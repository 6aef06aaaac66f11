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

The domain of element x of slot k is an int bitmask, dom[k][x]: bit v
is set while family[k][x] may still be v.

Slots are filled in order.  Every constraint is applied at slot
max(p, q), once the earlier slots are filled.  There all of its checks
between two slots take one form, a narrowing (s, i, x, pre) at slot k:

    family[k][x] lies in the mask pre[family[s][i]], for s < k

It intersects dom[k][x] with that mask before any candidate of slot k
is built (forward checking, Haralick & Elliott 1980).  Only the pre
table tells the constraints apart:

    p < q:  at slot q, (p, x, ftab[x]) with pre[y] = the one value gtab[y]
    q < p:  at slot p, (q, ftab[x], x) with pre[v] = the gtab-preimage of v
    early forcer check, below: pre[y0] = the gtab1-preimage of gtab0[y0]

A p == q constraint is one filter on the slot's candidates, the
product of the domains: each pair (x, ftab[x]), the diagonal
x == ftab[x] included, asks that family[p][ftab[x]] == gtab[family[p][x]].

A constraint into a slot q with one target value holds for every
family, since both of its sides are that value.  Setup drops it, in
every form: it would add only narrowings, forcer checks and filters
that let every value through.

A bad partial family is rejected as soon as the filled slots show the
conflict, which can be before max(p, q).  When slots p0 < p1 both force
element e of slot q (p1 < q), the two constraints together say that
gtab1[family[p1][x1]] == gtab0[family[p0][x0]].  This is checked at
slot p1, as one more narrowing (p0, x0, x1, pre).  Each later forcer of
an element is checked against its earliest one; the original
constraints still run at slot q, so the checks add no family and lose
none.

One pruning pass runs before the search (directional arc consistency,
Dechter & Pearl 1987).  It goes through the slots from last to first,
and each narrowing (s, i, x, pre) at slot k shrinks the earlier element
to the values that the later one supports:

    dom[s][i] = {v in dom[s][i] : pre[v] & dom[k][x] != 0}

A narrowing at slot k shrinks only a slot before k, so every mask is
final before it shrinks an earlier one.  The pass removes only values
that occur in no family, so the families and their order stay the
same.  It runs only when something can shrink a full mask: a q < p
table whose gtab misses a value.  A mask that empties leaves no family.

A slot is fixed only when it has no source values or one target value:
its one function is all zeros, and the recursion skips it, so a family
whose remaining slots are all fixed costs no call of its own.  Every
other slot is forced or searched, even one that the pass leaves one
value per element.

A slot is forced when one constraint names one value for each of its
elements: a p < q table whose ftab reaches every element of slot q, or
a q < p table whose gtab is one-to-one, so that no preimage mask has
two bits.  Setup tests each constraint for this once.  After the slots
before it are filled, the narrowings at a forced slot leave each
element one value or none, so the slot has one function or none, and
the search computes it instead of branching on it.  Its narrowings are
grouped by element when the slot is classified.  Inside the candidate
loop of the slot the search branches on before it, each run of forced
slots is filled in one loop: element by element, the element's
narrowings are intersected in turn, and the first empty mask rejects
the candidate; the slot's p == q filter then checks the one function,
and the family is added or the search goes on to the next slot it
branches on.  A forced slot builds no product and makes no call, and
it adds one candidate or none, so the order stays the same.  The
intersection starts from every bit, not from dom[k][x]: after the pass
every narrowing at slot k names only values in dom[k][x], for every
value the search gives the earlier element.  A forced slot with only
fixed slots before it is searched like any other slot: its narrowings
leave it one candidate or none.

When no narrowing reaches the last slot the search branches on, and no
forced slot follows it, its candidates are the same after every prefix.
They are built once, when a prefix first reaches the slot (so a slot
that every prefix dies before is never built), filtered once by its
p == q constraints and joined once to the fixed slots after it; each
prefix then adds its families to the output in one ``extend``.
Otherwise the last slot builds its candidates for each prefix and adds
its families one at a time.

Candidates are the product of each element's values in ascending
order, so the product keeps the lexicographic order.  Callers pass one
constraint per generating arrow of their base category, not one per
arrow (``fincat.natural_index_families``).

Label tables reach the search in three steps:

    encode(objects, f_value, g_value, arrows) -> natural_families arguments
    natural_families(...)                     -> index families
    decode(objects, f_value, g_value, fams)   -> {object: {x: y}} dicts
    decode(..., flat=True)                    -> {x: y} dicts over all slots

Callers that only count families, test them slot by slot or permute
their indices stay on the index families and never decode; limits and
the (co)cone certificates are among them.  Three functions decode:
``fincat.enumerate_naturals`` and ``limits.diagram_naturals`` take the
nested form, ``sheaf.matching_families`` (x an arrow of the sieve) the
flat one.
Each family gets its own outer dict, keyed in slot order.  Because
families come in lexicographic order, neighbours share their prefix
and differ in the last slot that varies at all, so the dict of a
family with the same prefix as the one before it is a copy of that
family's dict with that slot replaced, not a fresh dict from all slots.
The nested form turns each distinct slot function into its {x: y} dict
once per call, and the families that use that function share the dict.

Sieves and subobjects are enumerated as down-sets of a preorder by
``down_sets``: arrows into an object under precomposition, and sections
of a presheaf under restriction.
"""

from __future__ import annotations

from itertools import chain, product, repeat
from operator import getitem, itemgetter


def natural_families(f_sizes, g_sizes, morphisms):
    """All families satisfying ``morphisms``, in order; see the module docstring."""
    n = len(f_sizes)
    dom = [[(1 << g) - 1] * f for f, g in zip(f_sizes, g_sizes)]  # dom[k][x]: the mask of family[k][x]
    if not all(map(all, dom)):
        return []  # a slot with no function at all
    narrowed = [[] for _ in range(n)]  # (s, i, x, pre): family[k][x] in mask pre[family[s][i]], s < k
    closed = [[] for _ in range(n)]    # (x, e, gtab): family[k][e] == gtab[family[k][x]]
    forcings = []   # the p < q constraints
    prunes = False  # can the pass shrink a full mask?
    forced = set()  # slots where one constraint names one value for every element
    for p, q, ftab, gtab in morphisms:
        if not ftab or g_sizes[q] == 1:
            continue  # no source values, or one value to land on: it always holds
        if p < q:
            forcings.append((p, q, ftab, gtab))
            single = [1 << v for v in gtab]
            narrowed[q] += [(p, x, e, single) for x, e in enumerate(ftab)]
            if len(set(ftab)) == f_sizes[q]:  # onto: it forces every element of slot q
                forced.add(q)
        elif q < p:
            pre = _premasks(gtab, g_sizes[q])
            narrowed[p] += [(q, i, x, pre) for x, i in enumerate(ftab)]
            missed = pre.count(0)  # values of slot q that gtab misses
            prunes = prunes or missed > 0
            if len(pre) - missed == len(gtab):  # one-to-one: each preimage has at most one value
                forced.add(p)
        else:
            closed[p] += [(x, e, gtab) for x, e in enumerate(ftab)]

    # early forcer checks: each later forcer of element e of slot q is
    # checked against the earliest one, at its own slot
    forcings.sort(key=itemgetter(0))
    first = {}     # (q, e) -> (constraint, slot, element) of its earliest forcer
    composed = {}  # (earliest constraint, later constraint) -> preimage masks
    for c, (p, q, ftab, gtab) in enumerate(forcings):
        for x, e in enumerate(ftab):
            c0, p0, x0 = first.setdefault((q, e), (c, p, x))
            if p0 < p:
                pre = composed.get((c0, c))
                if pre is None:
                    own = _premasks(gtab, g_sizes[q])
                    pre = composed[c0, c] = [own[v] for v in forcings[c0][3]]
                narrowed[p].append((p0, x0, x, pre))

    if prunes and not _prune(dom, narrowed):
        return []  # an element with no value left

    # slots with no source values or one target value are fixed; the search
    # branches on the rest, except forced slots, which it computes
    fam = [None] * n
    values = [None] * n  # values[k][x]: the values in dom[k][x], ascending
    spots = [()] * n     # spots[k]: the elements that the narrowings at slot k touch
    order = []  # the slots the search branches on
    runs = {}   # k in order -> (j, plan, p == q pairs) of each forced slot j after it, up to the next
    for k, masks in enumerate(dom):
        if g_sizes[k] == 1 or not masks:
            fam[k] = (0,) * len(masks)
        elif k in forced and order:  # filled in the candidate loop of the slot searched before it
            plan = [[] for _ in masks]  # plan[x]: the narrowings at element x, as (s, i, pre)
            for s, i, x, pre in narrowed[k]:
                plan[x].append((s, i, pre))
            runs.setdefault(order[-1], []).append((k, plan, closed[k]))
        else:
            order.append(k)
            # without the pass every mask is full
            values[k] = list(map(_values, masks)) if prunes else [range(g_sizes[k])] * len(masks)
            if narrowed[k]:
                spots[k] = {x for _, _, x, _ in narrowed[k]}
    if not order:
        return [tuple(fam)]
    out = []
    last = order[-1]
    following = dict(zip(order, order[1:]))
    ends = None  # the last slot's (func, *fixed slots after it) tuples, once built

    def rec(k: int) -> None:
        nonlocal ends
        if k == last and ends is not None:
            out.extend(map(tuple(fam[:k]).__add__, ends))
            return
        domains = dom[k].copy()
        for s, i, x, pre in narrowed[k]:
            m = domains[x] & pre[fam[s][i]]
            if not m:
                return
            domains[x] = m
        vals = values[k].copy()
        for x in spots[k]:
            m = domains[x]
            vals[x] = _values(m) if m & (m - 1) else (m.bit_length() - 1,)  # one value: no call
        cands = product(*vals)
        if closed[k]:
            cands = [func for func in cands if all(func[e] == gtab[func[x]] for x, e, gtab in closed[k])]
        run = runs.get(k)
        if run is None:  # kept apart: an empty run loop per candidate made search_dense's hom-omega 15% slower
            if k == last:
                if not narrowed[k]:  # the same candidates after every prefix: build them once
                    ends = list(zip(cands, *map(repeat, fam[k + 1:])))
                    out.extend(map(tuple(fam[:k]).__add__, ends))
                    return
                for func in cands:
                    fam[k] = func
                    out.append(tuple(fam))
                return
            nxt = following[k]
            for func in cands:
                fam[k] = func
                rec(nxt)
            return
        nxt = following.get(k)
        for func in cands:
            fam[k] = func
            for j, plan, pairs in run:  # each forced slot: one function or none
                row = []
                for nars in plan:  # each element: the one value its narrowings leave
                    m = -1
                    for s, i, pre in nars:
                        m &= pre[fam[s][i]]
                        if not m:
                            break
                    else:
                        row.append(m.bit_length() - 1)
                        continue
                    break
                else:
                    row = tuple(row)
                    if not pairs or all(row[e] == gtab[row[x]] for x, e, gtab in pairs):
                        fam[j] = row
                        continue
                break
            else:
                if nxt is None:
                    out.append(tuple(fam))
                else:
                    rec(nxt)

    rec(order[0])
    del rec  # it refers to itself through its closure cell
    return out


def _prune(dom, narrowed):
    """Shrink the masks ``dom`` to values that the narrowings support;
    False if a mask empties.

    Each slot's narrowings go from the last slot to the first.  A
    narrowing at slot k only shrinks a slot before k, so every mask is
    final before it shrinks an earlier one (directional arc consistency,
    Dechter & Pearl 1987).
    """
    for k in reversed(range(len(dom))):
        for s, i, x, pre in narrowed[k]:
            m = dom[k][x]
            dom[s][i] &= sum(1 << v for v, w in enumerate(pre) if w & m)
    return all(map(all, dom))


def _values(m):
    """The set bits of mask ``m``, ascending."""
    if not m & (m + 1):
        return range(m.bit_length())  # a full mask
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
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


def _premasks(gtab, size):
    """pre[v]: the mask of the y with gtab[y] == v, for every v < size."""
    pre = [0] * size
    for y, v in enumerate(gtab):
        pre[v] |= 1 << y
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


def decode(objects, f_value, g_value, fams, flat=False):
    """One record dict per index family, in order.

    Nested (the default): {object: {x: y}}, keyed in ``objects`` order.
    Each distinct slot function becomes its {x: y} dict once; every
    family that uses it shares that dict, so callers must not mutate it.

    Flat: {x: y} over the source values of every slot, keyed slot by slot
    in ``objects`` order; source values must be distinct across slots.

    Either way the outer dicts belong to one family each.  Slot v is the
    last slot with more than one function among ``fams``; the slots after
    it are the same in every family.  A run of families with equal slots
    before v is, in lexicographic order, one prefix with v counting up:
    its first family's dict is built from all slots in one C-level
    ``dict(zip(...))``, and each later one is a copy of it with slot v's
    entry replaced (nested) or updated with slot v's {x: y} table (flat).
    Either keeps the key order.
    """
    if flat:
        keys = [x for j in objects for x in f_value[j]]
        cols = [g_value[j] for j in objects for _ in f_value[j]]
        spread = chain.from_iterable
    else:
        keys, spread = objects, iter
        cols = [_tables(f_value[j], g_value[j], set(map(itemgetter(k), fams))) for k, j in enumerate(objects)]
    for v in reversed(range(len(objects))):
        funcs = set(map(itemgetter(v), fams)) if flat else cols[v]
        if len(funcs) > 1:
            break
    else:  # at most one family
        return [dict(zip(keys, map(getitem, cols, spread(fam)))) for fam in fams]
    u = objects[v]
    table = _tables(f_value[u], g_value[u], funcs) if flat else funcs
    out = []
    prefix = None
    for fam in fams:
        head = fam[:v]
        if head != prefix:
            prefix = head
            shared = comp = dict(zip(keys, map(getitem, cols, spread(fam))))
        else:
            comp = shared.copy()
            if flat:
                comp.update(table[fam[v]])
            else:
                comp[u] = table[fam[v]]
        out.append(comp)
    return out


def _tables(fv, gv, funcs):
    """{func: {x: y}} for each slot function in ``funcs``."""
    return {func: {x: gv[i] for x, i in zip(fv, func)} for func in funcs}

