"""Independent checks for search outputs, written against raw tables.

Nothing here calls into sheafkit: the counts come from a plain
element-by-element backtracking search, and the naturality check walks
the commuting squares directly.  A disagreement means the library (or
the benchmark's own inputs) are wrong, and the op is counted as failed.
"""

from __future__ import annotations


class CheckFailed(Exception):
    """An op returned an output that disagrees with the benchmark's checks."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def arrows(cat):
    """Non-identity arrows of a raw category as (name, src, tgt)."""
    ids = set(cat["identity"].values())
    return [(f, a, b) for f, a, b in cat["morphisms"] if f not in ids]


def count_naturals(cat, F, G):
    """Number of natural families F => G, by backtracking over elements.

    A presheaf is ``{"value": {u: [...]}, "restrict": {f: {x: y}}}``.
    Each variable is one (object, element) pair; a square constraint is
    checked as soon as both of its ends are assigned.
    """
    variables = [(u, x) for u in cat["objects"] for x in F["value"][u]]
    position = {v: i for i, v in enumerate(variables)}
    # constraint: val[later] must equal G(f)(val[earlier]) or the reverse
    checks = [[] for _ in variables]
    for f, v, u in arrows(cat):
        gtab = G["restrict"][f]
        for x in F["value"][u]:
            a = position[(u, x)]
            b = position[(v, F["restrict"][f][x])]
            checks[max(a, b)].append((a, b, gtab))
    domains = [G["value"][u] for u, _ in variables]
    val = [None] * len(variables)

    def rec(i):
        if i == len(variables):
            return 1
        total = 0
        for y in domains[i]:
            val[i] = y
            if all(val[b] == gtab[val[a]] for a, b, gtab in checks[i]):
                total += rec(i + 1)
        val[i] = None
        return total

    return rec(0)


def check_families(objects, cat_arrows, F, G, families, expected_count):
    """Naturality of every family, strictly increasing order, and the count.

    ``F`` and ``G`` are library presheaves (their tables are read, never
    called); order is lexicographic in the index of each value within
    ``G.value[u]``, objects and sources taken in canonical order.
    """
    expect(len(families) == expected_count, f"{len(families)} families, oracle says {expected_count}")
    index = {u: {y: i for i, y in enumerate(G.value[u])} for u in objects}
    slots = [(u, F.value[u], index[u]) for u in objects]
    squares = [(f, v, u, F.restrict[f], G.restrict[f], F.value[u]) for f, v, u in cat_arrows]
    previous = None
    for eta in families:
        comp = eta.components
        key = []
        for u, sources, targets in slots:
            cu = comp[u]
            expect(len(cu) == len(sources), f"component at {u!r} is not defined on F({u!r})")
            for x in sources:
                y = cu[x]
                expect(y in targets, f"component at {u!r} sends {x!r} outside G")
                key.append(targets[y])
        for f, v, u, frest, grest, sources in squares:
            cv, cu = comp[v], comp[u]
            for x in sources:
                expect(cv[frest[x]] == grest[cu[x]], f"square along {f!r} fails at {x!r}")
        key = tuple(key)
        expect(previous is None or previous < key, "families are not in strictly lexicographic order")
        previous = key


def library_arrows(C):
    """Non-identity arrows of a library category, read from its tables."""
    return [(f, C.src[f], C.tgt[f]) for f in C.morphisms if C.identity[C.src[f]] != f]


def count_matching(below, sieve_objects, F):
    """Matching families on a poset sieve: one section per member, agreeing
    under every restriction between members.  ``below[(w, v)]`` names the
    arrow w -> v."""
    members = list(sieve_objects)
    val = {}

    def rec(i):
        if i == len(members):
            return 1
        v = members[i]
        total = 0
        for s in F["value"][v]:
            ok = True
            for w in members[:i]:
                if (w, v) in below and F["restrict"][below[(w, v)]][s] != val[w]:
                    ok = False
                    break
                if (v, w) in below and F["restrict"][below[(v, w)]][val[w]] != s:
                    ok = False
                    break
            if ok:
                val[v] = s
                total += rec(i + 1)
        return total

    return rec(0)


def limit_size(cat, D):
    """Compatible families of a covariant raw diagram, by backtracking."""
    objs = cat["objects"]
    pos = {u: i for i, u in enumerate(objs)}
    later = [[] for _ in objs]
    for f, a, b in arrows(cat):
        later[max(pos[a], pos[b])].append((f, a, b))
    pick = {}

    def rec(i):
        if i == len(objs):
            return 1
        total = 0
        for x in D["value"][objs[i]]:
            pick[objs[i]] = x
            if all(D["action"][f][pick[a]] == pick[b] for f, a, b in later[i]):
                total += rec(i + 1)
        del pick[objs[i]]
        return total

    return rec(0)


def colimit_size(cat, D):
    """Classes of the disjoint union under x ~ D(f)(x), by union-find."""
    parent = {(u, x): (u, x) for u in cat["objects"] for x in D["value"][u]}

    def find(n):
        while parent[n] != n:
            n = parent[n]
        return n

    for f, a, b in arrows(cat):
        for x in D["value"][a]:
            parent[find((a, x))] = find((b, D["action"][f][x]))
    return len({find(n) for n in parent})


def closed_subpresheaves(objects, below, opens, X):
    """Subpresheaves of X closed for the open-cover topology, as dicts of sets.

    Restriction-stable choices are built object by object; A is closed
    when every x whose restrictions land in A on opens covering U is
    already in A(U).
    """
    objects = list(objects)
    choices = {}
    for u in objects:
        elems = X["value"][u]
        choices[u] = [
            {x for i, x in enumerate(elems) if mask >> i & 1} for mask in range(2 ** len(elems))
        ]
    found = []
    A = {}

    def stable(u):
        for (v, w), f in below.items():
            if v in A and w in A and (u in (v, w)):
                if any(X["restrict"][f][x] not in A[v] for x in A[w]):
                    return False
        return True

    def closed():
        for u in objects:
            for x in X["value"][u]:
                if x in A[u]:
                    continue
                covered = set()
                for v in objects:
                    if (v, u) in below and X["restrict"][below[(v, u)]][x] in A[v]:
                        covered |= opens[v]
                if covered == opens[u]:
                    return False
        return True

    def rec(i):
        if i == len(objects):
            if closed():
                found.append({u: set(A[u]) for u in objects})
            return
        u = objects[i]
        for part in choices[u]:
            A[u] = part
            if stable(u):
                rec(i + 1)
        del A[u]

    rec(0)
    return found
