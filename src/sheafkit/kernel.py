"""The natural-family search kernel.

Every "which compatible families of local data exist?" question in the
workbench reduces to one search over integer-encoded tables: natural
transformations, limits as compatible families, the test (co)cones of
the universal-property certificates, matching families, Hom(X, Omega)
and exponentials.

    natural_families(f_sizes, g_sizes, morphisms) -> list of families

    f_sizes[k], g_sizes[k]: sizes of the source and target value sets at
        slot k.  A family assigns to each slot k a function
        {0..f_sizes[k]-1} -> {0..g_sizes[k]-1}, encoded as a tuple.
    morphisms: list of (p, q, ftab, gtab) constraints meaning
        for all x < f_sizes[p]:  family[q][ftab[x]] == gtab[family[p][x]]
        where ftab maps slot-p source indices to slot-q source indices
        and gtab maps slot-p target indices to slot-q target indices.

Families come out in lexicographic order of the concatenated function
tuples.

Slots are filled in order.  Every constraint is applied at slot
max(p, q), once the earlier slots are fixed.  There it narrows the
domains of single elements of the slot before any candidate is built
(forward checking, Haralick & Elliott 1980):

    p < q:   forces family[q][ftab[x]] to the single value gtab[family[p][x]]
    q < p:   restricts family[p][x] to the gtab-preimage of family[q][ftab[x]]
    p == q:  filters the slot's candidates, the product of the domains

A bad partial family is rejected as soon as the filled slots show the
conflict, which can be before max(p, q).  When slots p0 < p1 both force
element e of slot q (p1 < q), the two constraints together say that
gtab1[family[p1][x1]] == gtab0[family[p0][x0]].  This is checked at
slot p1, as one more narrowing: family[p1][x1] lies in the
gtab1-preimage of the value that p0 forces.  Each later forcer of an
element is checked against its earliest one; the original constraints
still run at slot q, so the checks add no family and lose none.

A slot with no source values, or with one target value and no
narrowing at it, has exactly one function, and every check at that
slot accepts it: a forced value or a p == q filter can only ask for
the one target value there is.  Such a slot is fixed once, before the
search, and the recursion skips it, so a family whose remaining slots
all have one function costs no call of its own.  A slot with one
target value that a narrowing lands on is searched, since the
narrowing can reject it.

Domains stay in ascending order, so the product keeps the order.
Callers pass one constraint per generating arrow of their base
category, not one per arrow (``fincat.natural_index_families``).

Label tables reach the search in three steps:

    encode(objects, f_value, g_value, arrows) -> natural_families arguments
    natural_families(...)                     -> index families
    decode(objects, f_value, g_value, fams)   -> {object: {x: y}} dicts

Callers that only count families, test them slot by slot or permute
their indices stay on the index families and never decode.  Decoding
turns each distinct slot function into its {x: y} dict once per call;
the families that use that function share the dict.  Each family gets
its own outer {object: ...} dict, keyed in ``objects`` order.  Because
families come in lexicographic order, neighbours share their prefix
and differ in the last slot that varies at all, so the outer dict of a
family with the same prefix as the one before it is a copy of that
family's dict with one slot replaced, not a fresh dict from all slots.
``label_families`` is the three steps in a row.

Sieves and subobjects are enumerated as down-sets of a preorder by
``down_sets``: arrows into an object under precomposition, and sections
of a presheaf under restriction.
"""

from __future__ import annotations

from itertools import product
from operator import itemgetter


def natural_families(f_sizes, g_sizes, morphisms):
    """All families satisfying ``morphisms``, in order; see the module docstring."""
    n = len(f_sizes)
    if any(f and not g for f, g in zip(f_sizes, g_sizes)):
        return []  # a slot with no function at all
    forced = [[] for _ in range(n)]    # (p, ftab, gtab) with p < q == k
    narrowed = [[] for _ in range(n)]  # (s, i, x, pre): family[k][x] in pre[family[s][i]], s < k
    closed = [[] for _ in range(n)]    # (ftab, gtab) with p == q == k
    forcings = []  # the p < q constraints
    for p, q, ftab, gtab in morphisms:
        if p < q:
            forcings.append((p, q, ftab, gtab))
        elif q < p:
            pre = _preimages(gtab, g_sizes[q])
            narrowed[p] += [(q, i, x, pre) for x, i in enumerate(ftab)]
        else:
            closed[p].append((ftab, gtab))

    # early forcer checks: each later forcer of element e of slot q is
    # checked against the earliest one, at its own slot
    forcings.sort(key=itemgetter(0))
    first = {}     # (q, e) -> (constraint, slot, element) of its earliest forcer
    composed = {}  # (earliest constraint, later constraint) -> preimage table
    for c, (p, q, ftab, gtab) in enumerate(forcings):
        forced[q].append((p, ftab, gtab))
        for x, e in enumerate(ftab):
            c0, p0, x0 = first.setdefault((q, e), (c, p, x))
            if p0 < p:
                pre = composed.get((c0, c))
                if pre is None:
                    own = _preimages(gtab, g_sizes[q])
                    pre = composed[c0, c] = [own[v] for v in forcings[c0][3]]
                narrowed[p].append((p0, x0, x, pre))

    # slots with exactly one function are fixed once; the search visits the rest
    fam = [None] * n
    order = []
    for k in range(n):
        if not f_sizes[k] or (g_sizes[k] == 1 and not narrowed[k]):
            fam[k] = (0,) * f_sizes[k]
        else:
            order.append(k)
    if not order:
        return [tuple(fam)]
    out = []
    last = order[-1]
    following = dict(zip(order, order[1:]))

    def rec(k: int) -> None:
        domains = [range(g_sizes[k])] * f_sizes[k]
        for p, ftab, gtab in forced[k]:
            for x, y in enumerate(fam[p]):
                v = gtab[y]
                if v not in domains[ftab[x]]:
                    return
                domains[ftab[x]] = (v,)
        for s, i, x, pre in narrowed[k]:
            allowed = [y for y in pre[fam[s][i]] if y in domains[x]]
            if not allowed:
                return
            domains[x] = allowed
        cands = product(*domains)
        if closed[k]:
            cands = [
                func for func in cands
                if all(func[ftab[x]] == gtab[y] for ftab, gtab in closed[k] for x, y in enumerate(func))
            ]
        if k == last:
            for func in cands:
                fam[k] = func
                out.append(tuple(fam))
            return
        nxt = following[k]
        for func in cands:
            fam[k] = func
            rec(nxt)

    rec(order[0])
    del rec  # it refers to itself through its closure cell
    return out


def down_sets(below):
    """Every down-set of a finite preorder, as a mask, each exactly once.

    ``below[i]`` is the mask of the nodes at or below node i, reflexive
    and transitive; cycles are allowed.  The lowest undecided node is
    taken with everything below it, or dropped with everything above it.
    Neither branch contradicts an earlier choice, so every branch ends in
    a down-set (Squire, "Enumerating the ideals of a poset", 1995).
    """
    n = len(below)
    above = [sum(1 << j for j in range(n) if below[j] >> i & 1) for i in range(n)]
    full = (1 << n) - 1
    out = []
    stack = [(0, 0)]  # (taken, decided)
    while stack:
        taken, decided = stack.pop()
        if decided == full:
            out.append(taken)
            continue
        free = full & ~decided
        i = (free & -free).bit_length() - 1
        stack.append((taken, decided | above[i]))
        stack.append((taken | below[i], decided | below[i]))
    return out


def _preimages(gtab, size):
    """pre[v]: the y with gtab[y] == v, ascending, for every v < size."""
    pre = [[] for _ in range(size)]
    for y, v in enumerate(gtab):
        pre[v].append(y)
    return pre


def encode(objects, f_value, g_value, arrows):
    """Label tables as ``natural_families`` arguments.

    f_value[j], g_value[j]: the source and target value tuples at object j.
    arrows: (a, b, ftab, gtab) with dicts ftab: f_value[a] -> f_value[b]
    and gtab: g_value[a] -> g_value[b]; a family c satisfies
    c[b][ftab[x]] == gtab[c[a][x]] for every x in f_value[a].

    Slot k is ``objects[k]``, and index i at slot k stands for
    ``f_value[objects[k]][i]`` (source) or ``g_value[objects[k]][i]`` (target).
    """
    pos = {j: i for i, j in enumerate(objects)}
    f_index = {j: {x: i for i, x in enumerate(f_value[j])} for j in objects}
    g_index = {j: {y: i for i, y in enumerate(g_value[j])} for j in objects}
    morphisms = [
        (
            pos[a],
            pos[b],
            [f_index[b][ftab[x]] for x in f_value[a]],
            [g_index[b][gtab[y]] for y in g_value[a]],
        )
        for a, b, ftab, gtab in arrows
    ]
    return [len(f_value[j]) for j in objects], [len(g_value[j]) for j in objects], morphisms


def decode(objects, f_value, g_value, fams):
    """One {object: {x: y}} component dict per index family, in order.

    Each distinct slot function becomes its {x: y} dict once; every
    family that uses it shares that dict, so callers must not mutate it.
    The outer dicts belong to one family each and keep ``objects`` order.

    Slot v is the last slot with more than one function among ``fams``;
    the slots after it are the same in every family.  A run of families
    with equal slots before v is, in lexicographic order, one prefix
    with v counting up: its first family's dict is built from all slots,
    and each later one is a copy of it with slot v replaced, which keeps
    the key order.
    """
    tables = []
    for k, j in enumerate(objects):
        fv, gv = f_value[j], g_value[j]
        tables.append({
            func: {x: gv[i] for x, i in zip(fv, func)}
            for func in set(map(itemgetter(k), fams))
        })
    varying = [k for k, table in enumerate(tables) if len(table) > 1]
    if not varying:  # at most one family
        return [dict(zip(objects, map(dict.__getitem__, tables, fam))) for fam in fams]
    v = varying[-1]
    u, table = objects[v], tables[v]
    out = []
    prefix = None
    for fam in fams:
        head = fam[:v]
        if head != prefix:
            prefix = head
            shared = comp = dict(zip(objects, map(dict.__getitem__, tables, fam)))
        else:
            comp = shared.copy()
            comp[u] = table[fam[v]]
        out.append(comp)
    return out


def label_families(objects, f_value, g_value, arrows):
    """``natural_families`` over label tables: encode, search, decode."""
    fams = natural_families(*encode(objects, f_value, g_value, arrows))
    return decode(objects, f_value, g_value, fams)
