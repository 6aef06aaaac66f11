"""Independent brute-force oracles.

These deliberately do not share code with the library: no kernel, no
pruning, no canonical ordering tricks.  Each one enumerates the full
candidate space and filters by the defining condition, so library
results can be checked against them on small fixtures.  The one
exception, ``naive_natural_families``, drops a candidate once a whole
slot contradicts the earlier ones, so that kernel-sized cases stay fast.
"""

from __future__ import annotations

from itertools import product


def naive_naturals(F, G):
    """All natural families F => G as {object: {x: y}} dicts."""
    base = F.base
    per_object = []
    for u in base.objects:
        dom = F.value[u]
        cod = G.value[u]
        funcs = [dict(zip(dom, choice)) for choice in product(cod, repeat=len(dom))]
        per_object.append(funcs)
    found = []
    for combo in product(*per_object):
        comp = dict(zip(base.objects, combo))
        ok = True
        for f in base.morphisms:
            u, v = base.tgt[f], base.src[f]
            for x in F.value[u]:
                if comp[v][F.restrict[f][x]] != G.restrict[f][comp[u][x]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(comp)
    return found


def naive_natural_families(f_sizes, g_sizes, morphisms):
    """Reference for ``kernel.natural_families``, same contract and order.

    Fixes one whole slot function at a time, in lexicographic order, and
    checks a constraint once both of its slots are fixed; no constraint
    ever narrows an element's domain.
    """
    n = len(f_sizes)
    by_stage = [[] for _ in range(n)]
    for p, q, ftab, gtab in morphisms:
        by_stage[max(p, q)].append((p, q, ftab, gtab))
    out = []
    assign: list = [None] * n

    def consistent(stage):
        return all(
            assign[q][ftab[x]] == gtab[assign[p][x]]
            for p, q, ftab, gtab in by_stage[stage]
            for x in range(f_sizes[p])
        )

    def rec(stage):
        if stage == n:
            out.append(tuple(assign))
            return
        for func in product(range(g_sizes[stage]), repeat=f_sizes[stage]):
            assign[stage] = func
            if consistent(stage):
                rec(stage + 1)

    rec(0)
    return out


def naive_limit(D):
    """Compatible families of a set-valued diagram, by full product filter."""
    shape = D.shape
    objs = shape.objects
    out = []
    for combo in product(*(D.value[j] for j in objs)):
        pick = dict(zip(objs, combo))
        if all(
            D.action[f][pick[shape.src[f]]] == pick[shape.tgt[f]]
            for f in shape.morphisms
        ):
            out.append(combo)
    return out


def naive_colimit_classes(D):
    """Colimit classes as frozensets of (object, element) nodes."""
    shape = D.shape
    nodes = [(j, x) for j in shape.objects for x in D.value[j]]
    cls = {n: {n} for n in nodes}
    def merge(a, b):
        if cls[a] is cls[b]:
            return
        cls[a] |= cls[b]
        for n in cls[b]:
            cls[n] = cls[a]
    for f in shape.morphisms:
        a, b = shape.src[f], shape.tgt[f]
        for x in D.value[a]:
            merge((a, x), (b, D.action[f][x]))
    return {frozenset(s) for s in cls.values()}


def naive_matching_families(F, sieve_arrows, base):
    """All compatible assignments over the arrows of a sieve."""
    arrows = sorted(sieve_arrows, key=str)
    out = []
    for combo in product(*(F.value[base.src[f]] for f in arrows)):
        m = dict(zip(arrows, combo))
        ok = True
        for f in arrows:
            for g in base.morphisms:
                if base.tgt[g] != base.src[f]:
                    continue
                fg = base.compose(f, g)
                if m[fg] != F.restrict[g][m[f]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(m)
    return out


def naive_hom(C, a, b):
    """Hom(a, b) by a scan of the morphism list, in its order."""
    return tuple(m for m in C.morphisms if C.src[m] == a and C.tgt[m] == b)


def naive_into(C, u):
    """The morphisms ending at u by a scan of the morphism list, in its order."""
    return tuple(m for m in C.morphisms if C.tgt[m] == u)


def naive_is_sieve(C, arrows):
    """Closure under precomposition, checked against every morphism of C."""
    return all(
        C.compose(f, g) in arrows
        for f in arrows
        for g in C.morphisms
        if C.tgt[g] == C.src[f]
    )


def naive_sieves(C, u):
    """Every precomposition-closed subset of the arrows into u."""
    return [s for s in _subsets(naive_into(C, u)) if naive_is_sieve(C, s)]


def naive_stable_subsets(F):
    """All restriction-stable part families of a presheaf."""
    base = F.base
    objs = base.objects
    out = []
    for combo in product(*(list(_subsets(F.value[u])) for u in objs)):
        parts = dict(zip(objs, combo))
        ok = True
        for f in base.morphisms:
            u, v = base.tgt[f], base.src[f]
            for x in parts[u]:
                if F.restrict[f][x] not in parts[v]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append({u: frozenset(p) for u, p in parts.items()})
    return out


def _subsets(xs):
    xs = list(xs)
    for mask in range(1 << len(xs)):
        yield frozenset(x for i, x in enumerate(xs) if mask >> i & 1)
