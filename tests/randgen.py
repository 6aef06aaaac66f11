"""Seeded random fixtures shared by module tests and the acceptance suite.

Random diagrams live on forest-shaped posets so that functorial actions
can be chosen freely along parent edges and derived for composites.
"""

from __future__ import annotations

import random

from sheafkit.fincat import poset_category, presheaf, terminal_category, validate_category
from sheafkit.limits import diagram
from sheafkit.site import Site, finite_space, open_cover_topology, saturate_topology


def random_poset(rng: random.Random, max_objs: int = 6):
    """A random finite poset on mixed int, str and tuple labels.

    The labels are drawn in random order, so the canonical order of
    objects and arrows is unrelated to the order the relation was built in.
    """
    pool = [0, 1, 7, "a", "b", "m", "z", ("t", 1)]
    labels = rng.sample(pool, rng.randint(0, max_objs))
    below = {x: {x} for x in labels}
    for i, x in enumerate(labels):
        for y in labels[:i]:
            if rng.random() < 0.4:
                below[x] |= below[y]
    return poset_category(labels, lambda a, b: a in below[b])


def cyclic_product(P, n):
    """Raw tables of P × Z/n: an arrow (p, k) composes p in P and adds k mod n.
    Every hom-set of P with an arrow has n arrows here."""
    return (
        list(P.objects),
        [((m, k), P.src[m], P.tgt[m]) for m in P.morphisms for k in range(n)],
        {u: (m, 0) for u, m in P.identity.items()},
        {
            ((g, j), (f, k)): (gf, (j + k) % n)
            for (g, f), gf in P.table.items()
            for j in range(n)
            for k in range(n)
        },
    )


def random_base(rng: random.Random):
    """A random poset, a random poset times Z/n, or the monoid Z/n."""
    kind = rng.choice(("poset", "poset x Z/n", "monoid Z/n"))
    if kind == "poset":
        return random_poset(rng, 4)
    if kind == "poset x Z/n":
        return validate_category(*cyclic_product(random_poset(rng, 3), rng.choice([2, 3])))
    return validate_category(*cyclic_product(terminal_category(), rng.choice([2, 3, 4])))


def random_families(rng: random.Random, C):
    """One random family of non-identity arrows at about 70% of the
    objects.  A family with an identity in it would generate the maximal
    sieve, so these families often leave a sieve other than the maximal
    one covering; an empty family makes the empty sieve cover."""
    families = {}
    for u in C.objects:
        proper = [f for f in C.into(u) if not C.is_identity(f)]
        if rng.random() < 0.7:
            families[u] = [rng.sample(proper, rng.randint(0, len(proper)))]
    return families


def random_topology(rng: random.Random, C):
    """The topology generated by ``random_families``."""
    return saturate_topology(C, random_families(rng, C))


def random_site(rng: random.Random):
    """A random base with ``random_topology`` (two draws in three), or
    ``random_space_site``."""
    if rng.random() < 1 / 3:
        return random_space_site(rng)
    C = random_base(rng)
    return Site(C, random_topology(rng, C))


def random_space_site(rng: random.Random):
    """The open-cover site of a random finite space on at most three points:
    its opens are the down-sets of a random preorder."""
    points = [f"p{i}" for i in range(rng.randint(1, 3))]
    below = {p: {p} for p in points}
    for i, p in enumerate(points):
        for q in points[:i]:
            if rng.random() < 0.4:
                below[p] |= below[q]
    opens = [
        frozenset(s)
        for s in (
            {p for i, p in enumerate(points) if mask >> i & 1}
            for mask in range(1 << len(points))
        )
        if all(below[p] <= s for p in s)
    ]
    return open_cover_topology(finite_space(points, opens))


def raw_tables(C):
    """C as the mutable (objects, morphisms, identity, compose) of ``validate_category``."""
    return (
        list(C.objects),
        [(m, C.src[m], C.tgt[m]) for m in C.morphisms],
        dict(C.identity),
        dict(C.table),
    )


def opposite_tables(objs, mors, ident, comp):
    """The raw tables of the opposite category: arrows reversed, composites swapped."""
    return (
        list(objs),
        [(m, b, a) for m, a, b in mors],
        dict(ident),
        {(f, g): gf for (g, f), gf in comp.items()},
    )


def isomorphism_pair():
    """Raw tables of inverse arrows i: a -> b and j: b -> a, arrows
    f: a -> c and g: b -> c with f = g∘i and g = f∘j, and k: c -> d with
    its composites kf = k∘f and kg = k∘g.  Thin, with no non-identity
    endomorphism, but the cycle makes f and g composites of each other, so
    the irreducible arrows i, j and k do not generate them."""
    mors = [("ida", "a", "a"), ("idb", "b", "b"), ("idc", "c", "c"), ("idd", "d", "d"),
            ("i", "a", "b"), ("j", "b", "a"), ("f", "a", "c"), ("g", "b", "c"),
            ("k", "c", "d"), ("kf", "a", "d"), ("kg", "b", "d")]
    comp = {("j", "i"): "ida", ("i", "j"): "idb", ("f", "j"): "g", ("g", "i"): "f",
            ("k", "f"): "kf", ("k", "g"): "kg", ("kf", "j"): "kg", ("kg", "i"): "kf"}
    for m, a, b in mors:
        comp[(f"id{b}", m)] = m
        comp[(m, f"id{a}")] = m
    return ["a", "b", "c", "d"], mors, {u: f"id{u}" for u in "abcd"}, comp


def free_dag(rng: random.Random, max_nodes: int = 5):
    """Raw tables of the free category on a random acyclic graph.

    Arrows are the paths, named by their edges in order of travel ("e01.e13"),
    and compose by concatenation.  Two paths with the same ends are two
    arrows, so the category is not thin unless no two paths are parallel;
    its generators are the edges.
    """
    n = rng.randint(1, max_nodes)
    edges = [f"e{i}{j}" for j in range(n) for i in range(j) if rng.random() < 0.5]
    ends = {e: (int(e[1]), int(e[2])) for e in edges}
    paths = {f"id{u}": (u, u) for u in range(n)}
    frontier = dict(paths)
    while frontier:
        longer = {}
        for p, (a, b) in frontier.items():
            for e in edges:
                if ends[e][0] == b:
                    longer[e if p.startswith("id") else f"{p}.{e}"] = (a, ends[e][1])
        paths.update(longer)
        frontier = longer
    comp = {}
    for f, (a, b) in paths.items():
        for g, (c, d) in paths.items():
            if b == c:
                comp[(g, f)] = g if f.startswith("id") else f if g.startswith("id") else f"{f}.{g}"
    return (
        list(range(n)),
        [(p, a, b) for p, (a, b) in paths.items()],
        {u: f"id{u}" for u in range(n)},
        comp,
    )


def renamed_arrows(rng: random.Random, C):
    """C with its arrows renamed at random, so that the label order of the
    arrows into an object no longer follows the order of their sources."""
    name = dict(zip(C.morphisms, rng.sample(range(10 * len(C.morphisms) + 1), len(C.morphisms))))
    return validate_category(
        C.objects,
        [(name[m], C.src[m], C.tgt[m]) for m in C.morphisms],
        {u: name[m] for u, m in C.identity.items()},
        {(name[g], name[f]): name[gf] for (g, f), gf in C.table.items()},
    )


def random_presheaf(rng: random.Random, C, max_sections: int = 3):
    """A random presheaf on the poset category C with int and str sections.

    Object u carries the pool members whose random support (a down-set)
    contains u, modulo the equivalence generated by the pairs that objects
    above u glue.  Lower objects see more glued pairs, so the quotients
    only coarsen downward, and restriction sends the class of x at u to
    its class below; the class's first pool member stands for it.
    """
    pool = rng.sample([0, 1, 5, "a", "b", "x"], rng.randint(1, max_sections))
    objs = list(C.objects)
    below = {u: {C.src[f] for f in C.into(u)} for u in objs}
    support = {x: below[rng.choice(objs)] if objs and rng.random() < 0.3 else set(objs) for x in pool}
    glued = {w: rng.sample(pool, 2) for w in objs if len(pool) > 1 and rng.random() < 0.5}
    rep = {}
    for u in objs:
        cls = {x: x for x in pool if u in support[x]}
        for w, (x, y) in glued.items():
            if u in below[w] and x in cls and y in cls:
                old, new = sorted((cls[x], cls[y]), key=pool.index, reverse=True)
                cls = {z: new if c == old else c for z, c in cls.items()}
        rep[u] = cls
    value = {u: set(rep[u].values()) for u in objs}
    restrict = {
        f: {rep[C.tgt[f]][x]: rep[C.src[f]][x] for x in rep[C.tgt[f]]}
        for f in C.morphisms
    }
    return presheaf(C, value, restrict)


def random_forest_diagram(rng: random.Random, max_objs: int = 4, max_elems: int = 4):
    n = rng.randint(1, max_objs)
    names = [f"n{i}" for i in range(n)]
    parent = {}
    for i in range(1, n):
        if rng.random() < 0.75:
            parent[names[i]] = names[rng.randrange(i)]

    def leq(a, b):
        # a <= b iff b is reachable from a by parent links
        cur = a
        while True:
            if cur == b:
                return True
            if cur not in parent:
                return False
            cur = parent[cur]

    shape = poset_category(names, leq)
    value = {j: tuple(f"e{k}" for k in range(rng.randint(0, max_elems))) for j in names}
    edge_map = {}
    for child, par in parent.items():
        if value[child] and not value[par]:
            value = dict(value)
            value[child] = ()
        edge_map[(child, par)] = {
            x: rng.choice(value[par]) for x in value[child]
        } if value[par] else {}

    def path_map(a, b):
        # composite of parent-edge maps from a up to b
        tab = {x: x for x in value[a]}
        cur = a
        while cur != b:
            step = edge_map[(cur, parent[cur])]
            tab = {x: step[y] for x, y in tab.items()}
            cur = parent[cur]
        return tab

    action = {}
    for m in shape.morphisms:
        a, b = shape.src[m], shape.tgt[m]
        if a != b:
            action[m] = path_map(a, b)
    return diagram(shape, value, action)
