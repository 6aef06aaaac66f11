"""Seeded raw inputs: plain dicts and lists, never library objects.

Every generated presheaf, diagram or group table is a fixed *template*
relabelled by the seed: each object's elements get fresh random labels,
so their canonical order is shuffled too.  Relabelled copies of one
template are isomorphic, so the seed changes every table the library
sees but not how much work a search does; that keeps run-to-run spreads
small across seeds.

Templates on posets are functorial by construction: every non-identity
arrow acts by one map ``e`` with ``e∘e == e`` (an idempotent, or ``i mod
size`` with sizes dividing one another), and a composite of non-identity
poset arrows is non-identity, so composition is respected.
"""

from __future__ import annotations

import itertools
import string


def poset_raw(objects, leq):
    """Raw category tables for a finite poset, in ``validate_category`` form.

    The arrow v -> u is named ``"v<u"``, as sheafkit names inclusions.
    """
    objects = list(objects)
    mors = [(f"{a}<{b}", a, b) for a in objects for b in objects if leq(a, b)]
    identity = {u: f"{u}<{u}" for u in objects}
    compose = {}
    for _, a, b in mors:
        for c in objects:
            if leq(b, c):
                compose[(f"{b}<{c}", f"{a}<{b}")] = f"{a}<{c}"
    return {"objects": objects, "morphisms": mors, "identity": identity, "compose": compose}


def chain_raw(length, prefix="c"):
    objs = [f"{prefix}{i}" for i in range(length)]
    rank = {u: i for i, u in enumerate(objs)}
    return poset_raw(objs, lambda a, b: rank[a] <= rank[b])


def square_raw(prefix="s"):
    """The 2x2 grid: s0 below s1 and s2, both below s3."""
    o = [f"{prefix}{i}" for i in range(4)]
    below = {(o[0], o[1]), (o[0], o[2]), (o[0], o[3]), (o[1], o[3]), (o[2], o[3])}
    return poset_raw(o, lambda a, b: a == b or (a, b) in below)


def vee_raw(prefix="v"):
    """v0 below both v1 and v2."""
    o = [f"{prefix}{i}" for i in range(3)]
    return poset_raw(o, lambda a, b: a == b or a == o[0])


def open_label(points):
    return "{" + ",".join(sorted(points)) + "}"


def space_raw(points, opens):
    """A finite space as raw ``finite_space`` arguments plus its opens poset.

    Object and arrow labels match ``site.open_cover_topology``.
    """
    opens = [frozenset(o) for o in opens]
    open_of = {open_label(o): o for o in opens}
    cat = poset_raw(sorted(open_of), lambda a, b: open_of[a] <= open_of[b])
    return {"points": list(points), "opens": [sorted(o) for o in opens], "cat": cat, "open_of": open_of}


def discrete_space(points):
    opens = [c for r in range(len(points) + 1) for c in itertools.combinations(points, r)]
    return space_raw(points, opens)


SIERPINSKI = ("bt", [(), ("t",), ("b", "t")])
PSEUDOCIRCLE = (
    "abxy",
    [(), ("a",), ("b",), ("a", "b"), ("a", "b", "x"), ("a", "b", "y"), ("a", "b", "x", "y")],
)


def below_map(cat):
    """(v, u) -> name of the arrow v -> u, for v strictly below u."""
    return {(a, b): f for f, a, b in cat["morphisms"] if a != b}


def template_presheaf(cat, sizes, fold):
    """Contravariant template on a poset with elements 0..sizes[u]-1.

    Along v -> u, element i of F(u) restricts to ``fold(i, sizes[v])``.
    """
    value = {u: list(range(sizes[u])) for u in cat["objects"]}
    restrict = {
        f: {i: fold(i, sizes[v]) for i in value[u]} for f, v, u in cat["morphisms"] if u != v
    }
    return {"value": value, "restrict": restrict}


def template_diagram(cat, sizes, act):
    """Covariant template: along a -> b, element i of D(a) goes to ``act(i, sizes[b])``."""
    value = {u: list(range(sizes[u])) for u in cat["objects"]}
    action = {
        f: {i: act(i, sizes[b]) for i in value[a]} for f, a, b in cat["morphisms"] if a != b
    }
    return {"value": value, "action": action}


def fresh_labels(rng, count, used):
    out = []
    while len(out) < count:
        lbl = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
        if lbl not in used:
            used.add(lbl)
            out.append(lbl)
    return out


def relabel(rng, raw, table="restrict"):
    """Give every element fresh random labels, object by object.

    Returns the relabelled tables and ``names[u][old] = new`` so that
    callers can carry group and action tables along.  ``table`` names
    the arrow tables: ``"restrict"`` (contravariant) or ``"action"``.
    """
    used: set = set()
    names = {}
    for u, elems in raw["value"].items():
        names[u] = dict(zip(elems, fresh_labels(rng, len(elems), used)))
    value = {u: [names[u][x] for x in elems] for u, elems in raw["value"].items()}
    src_of, tgt_of = _arrow_ends(raw, table)
    tabs = {
        f: {names[src_of[f]][x]: names[tgt_of[f]][y] for x, y in tab.items()}
        for f, tab in raw[table].items()
    }
    return {"value": value, table: tabs}, names


def _arrow_ends(raw, table):
    """Which object's labels each side of an arrow table uses, from ``v<u`` names."""
    src_of, tgt_of = {}, {}
    for f in raw[table]:
        v, u = f.split("<")
        # restrict[v<u] maps F(u) -> F(v); action[a<b] maps D(a) -> D(b)
        src_of[f], tgt_of[f] = (u, v) if table == "restrict" else (v, u)
    return src_of, tgt_of


def identity_fold(i, size):
    return i


def pair_fold(i, size):
    """Collapse 2k+1 onto 2k: idempotent, halves the image."""
    return i - i % 2


def constant_fold(i, size):
    return 0


def mod_fold(i, size):
    """i mod the target size: idempotent when sizes divide one another."""
    return i % size


def constant_on_opens(space, k):
    """k values over every nonempty open, one point over the empty open."""
    cat, open_of = space["cat"], space["open_of"]
    value = {u: list(range(k)) if open_of[u] else [0] for u in cat["objects"]}
    restrict = {
        f: {i: (i if open_of[v] else 0) for i in value[u]}
        for f, v, u in cat["morphisms"]
        if u != v
    }
    return {"value": value, "restrict": restrict}


def functions_on_opens(space, k):
    """The sheaf of all functions to {0..k-1}: tuples indexed by sorted points."""
    cat, open_of = space["cat"], space["open_of"]
    pts = {u: sorted(open_of[u]) for u in cat["objects"]}
    value = {u: list(itertools.product(range(k), repeat=len(pts[u]))) for u in cat["objects"]}
    restrict = {}
    for f, v, u in cat["morphisms"]:
        if u != v:
            idx = [pts[u].index(p) for p in pts[v]]
            restrict[f] = {t: tuple(t[i] for i in idx) for t in value[u]}
    return {"value": value, "restrict": restrict}


def locally_constant_group(space, components, n):
    """Z/n-valued locally constant functions; ``components[u]`` lists the
    connected components of each open (as frozensets of points)."""
    cat = space["cat"]
    value = {u: list(itertools.product(range(n), repeat=len(components[u]))) for u in cat["objects"]}
    restrict = {}
    for f, v, u in cat["morphisms"]:
        if u != v:
            host = [next(i for i, d in enumerate(components[u]) if c <= d) for c in components[v]]
            restrict[f] = {t: tuple(t[i] for i in host) for t in value[u]}
    mult = {
        u: [(a, b, tuple((x + y) % n for x, y in zip(a, b))) for a in value[u] for b in value[u]]
        for u in cat["objects"]
    }
    return {"value": value, "restrict": restrict}, mult


def components_of(space):
    """Connected components of every open, from minimal neighbourhoods."""
    open_of = space["open_of"]
    out = {}
    for u, uset in open_of.items():
        parent = {p: p for p in uset}

        def find(p):
            while parent[p] != p:
                p = parent[p]
            return p

        for p in uset:
            nbhd = frozenset.intersection(*[o & uset for o in open_of.values() if p in o])
            for q in nbhd:
                parent[find(q)] = find(p)
        comps = {}
        for p in uset:
            comps.setdefault(find(p), set()).add(p)
        out[u] = sorted((frozenset(c) for c in comps.values()), key=sorted)
    return out
