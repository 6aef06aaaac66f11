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

Slots are filled in order, and a constraint is applied at slot
max(p, q), once the earlier slots are fixed.  There it narrows the
domains of single elements of the slot before any candidate is built
(forward checking, Haralick & Elliott 1980):

    p < q:   forces family[q][ftab[x]] to the single value gtab[family[p][x]]
    q < p:   restricts family[p][x] to the gtab-preimage of family[q][ftab[x]]
    p == q:  filters the slot's candidates, the product of the domains

Domains stay in ascending order, so the product keeps the order.

Label tables reach the search in three steps:

    encode(objects, f_value, g_value, arrows) -> natural_families arguments
    natural_families(...)                     -> index families
    decode(objects, f_value, g_value, fams)   -> {object: {x: y}} dicts

Callers that only count families, test them slot by slot or permute
their indices stay on the index families and never decode.  Decoding
turns each distinct slot function into its {x: y} dict once per call;
the families that use that function share the dict.  ``label_families``
is the three steps in a row.
"""

from __future__ import annotations

from itertools import product


def natural_families(f_sizes, g_sizes, morphisms):
    """All families satisfying ``morphisms``, in order; see the module docstring."""
    n = len(f_sizes)
    forced = [[] for _ in range(n)]    # (p, ftab, gtab) with p < q == k
    narrowed = [[] for _ in range(n)]  # (q, ftab, gtab preimages) with q < p == k
    closed = [[] for _ in range(n)]    # (ftab, gtab) with p == q == k
    for p, q, ftab, gtab in morphisms:
        if p < q:
            forced[q].append((p, ftab, gtab))
        elif q < p:
            preimages = [[] for _ in range(g_sizes[q])]
            for y, v in enumerate(gtab):
                preimages[v].append(y)
            narrowed[p].append((q, ftab, preimages))
        else:
            closed[p].append((ftab, gtab))

    out = []
    fam: list = [None] * n

    def rec(k: int) -> None:
        if k == n:
            out.append(tuple(fam))
            return
        domains = [range(g_sizes[k])] * f_sizes[k]
        for p, ftab, gtab in forced[k]:
            for x, y in enumerate(fam[p]):
                v = gtab[y]
                if v not in domains[ftab[x]]:
                    return
                domains[ftab[x]] = (v,)
        for q, ftab, preimages in narrowed[k]:
            row = fam[q]
            for x in range(f_sizes[k]):
                allowed = [y for y in preimages[row[ftab[x]]] if y in domains[x]]
                if not allowed:
                    return
                domains[x] = allowed
        cands = product(*domains)
        if closed[k]:
            cands = [
                func for func in cands
                if all(func[ftab[x]] == gtab[y] for ftab, gtab in closed[k] for x, y in enumerate(func))
            ]
        for func in cands:
            fam[k] = func
            rec(k + 1)

    rec(0)
    return out


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
    """
    tables = []
    for k, j in enumerate(objects):
        fv, gv = f_value[j], g_value[j]
        tables.append({
            func: {x: gv[i] for x, i in zip(fv, func)}
            for func in {fam[k] for fam in fams}
        })
    return [dict(zip(objects, map(dict.__getitem__, tables, fam))) for fam in fams]


def label_families(objects, f_value, g_value, arrows):
    """``natural_families`` over label tables: encode, search, decode."""
    fams = natural_families(*encode(objects, f_value, g_value, arrows))
    return decode(objects, f_value, g_value, fams)
