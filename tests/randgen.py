"""Seeded random fixtures shared by module tests and the acceptance suite.

Random diagrams live on forest-shaped posets so that functorial actions
can be chosen freely along parent edges and derived for composites.
"""

from __future__ import annotations

import random

from sheafkit.fincat import poset_category, presheaf, validate_category
from sheafkit.limits import diagram


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
