"""Independent brute-force oracles.

These deliberately do not share code with the library: no kernel, no
pruning, no canonical ordering tricks.  Each one enumerates the full
candidate space and filters by the defining condition, so library
results can be checked against them on small fixtures.  Four exceptions:
``naive_natural_families`` drops a candidate once a whole slot
contradicts the earlier ones, so that kernel-sized cases stay fast, and
``naive_decode`` shares the {x: y} dicts of slot functions as the
library does; ``naive_exponential`` builds its presheaf tables with the
library's validated constructors, and its naturals come from
``naive_naturals``;
the validators of categories, functors, presheaves, diagrams, naturals
and matching families order morphisms by the library's ``label_key``
(or take the library's ordered inputs) and raise its error classes with
its messages, because they must name the same first failure.  They check
every composable pair and every arrow, where the library checks
generating arrows only;
the Heyting operations on ``Subobject`` parts (``meet_sub``, ``join_sub``,
``implies_sub``, ``neg_sub``, ``closure``, ``top_sub``, ``bottom_sub``)
and ``naive_interpret`` build on the library's ``Subobject``,
``subobject``, ``is_closed``, ``check_sorting`` and
``logic.context_product``, and resolve the bound with its
``enumeration_bound``, because they are the oracle for the library's
mask algebra (``classifier.MaskAlgebra``), and ``naive_interpret`` must
refuse a formula with the same ``IntractableSize`` as ``interpret``;
``naive_plus_construction`` is the colimit over every covering sieve as
it was first written, on the library's matching families, presheaf and
natural-transformation constructors, as the oracle for
``sheaf.plus_construction``, which reads it off the least covering
sieves;
``naive_is_sheaf`` is the sheaf condition walked over every listed
covering sieve as it was first written, on the library's matching and
induced families, as the oracle for ``sheaf.is_sheaf``, which
certifies it on the least covering sieves;
``naive_saturate_topology``, ``naive_open_cover_covers`` and
``naive_closed_sieves`` decide covering on whole sieve sets, as
``site`` and ``classifier`` first did, where the library decides it by
the least covering sieves.  They list sieves with the library's
``all_sieves`` and build them with its sieve constructors, so that they
keep its order and raise its ``IntractableSize`` at the same bound.
``section_rank`` and ``locate`` are not oracles but readers of the
library's own tables, which the tests use to compare orders and lattice
positions.  The last section is not oracles either: it holds library
constructions that only the tests call, ``presheaves_isomorphic``,
``sheafification_is_initial``, ``presheaf_diagram`` and
``presheaf_limit``, built on the library as they were inside it.
"""

from __future__ import annotations

from itertools import product

from sheafkit.errors import (
    AssociativityViolation,
    BaseMismatch,
    DanglingReference,
    IdentityViolation,
    IncompatibleFamily,
    IntractableSize,
    MissingComposite,
    NotASheafHere,
    NotNatural,
)
from sheafkit.classifier import Subobject, is_closed, subobject
from sheafkit.config import enumeration_bound
from sheafkit.fincat import (
    FrozenRecord,
    check_pairs,
    compose_naturals,
    enumerate_naturals,
    identity_natural,
    natural_index_families,
    natural_transformation,
    presheaf,
)
from sheafkit.labels import canon, label_key
from sheafkit.limits import diagram, limit
from sheafkit.sheaf import (
    MatchingFamily,
    SheafFailure,
    SheafReport,
    induced_family,
    is_sheaf,
    matching_families,
    sheafify,
)
from sheafkit.site import (
    GrothendieckTopology,
    Sieve,
    all_sieves,
    generate_sieve,
    maximal_sieve,
    pullback_sieve,
)
from sheafkit.logic import (
    And,
    Bottom,
    Eq,
    Exists,
    Implies,
    Mem,
    Not,
    Or,
    Top,
    check_sorting,
    context_product,
)


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


def naive_diagram_naturals(F, G):
    """All natural families F => G of covariant diagrams as {object: {x: y}}
    dicts, each square checked along every arrow."""
    shape = F.shape
    per_object = [
        [dict(zip(F.value[j], choice)) for choice in product(G.value[j], repeat=len(F.value[j]))]
        for j in shape.objects
    ]
    found = []
    for combo in product(*per_object):
        comp = dict(zip(shape.objects, combo))
        if all(
            comp[shape.tgt[f]][F.action[f][x]] == G.action[f][comp[shape.src[f]][x]]
            for f in shape.morphisms
            for x in F.value[shape.src[f]]
        ):
            found.append(comp)
    return found


def naive_exponential(A, B):
    """B^A as ``sheaf.exponential`` builds it, with every natural found by
    ``naive_naturals``: element ``n{i}`` at U is the i-th natural
    h_U × A => B, and restriction along f: V -> U precomposes with
    (g, a) |-> (f∘g, a), re-checks naturality with ``natural_transformation``
    and finds the result by its ``key()``.  Only the tables h_U × A and the
    returned presheaf come from the library's constructors."""
    from sheafkit.fincat import natural_transformation, presheaf, yoneda_presheaf
    from sheafkit.sheaf import product_presheaf

    base = A.base
    reps = {u: product_presheaf(yoneda_presheaf(base, u), A) for u in base.objects}
    nats = {u: [natural_transformation(reps[u], B, comp) for comp in naive_naturals(reps[u], B)] for u in base.objects}
    value = {u: tuple(f"n{i}" for i in range(len(nats[u]))) for u in base.objects}
    index = {u: {eta.key(): f"n{i}" for i, eta in enumerate(nats[u])} for u in base.objects}
    restrict = {}
    for f in base.morphisms:
        if base.is_identity(f):
            continue
        u, v = base.tgt[f], base.src[f]
        tab = {}
        for i, eta in enumerate(nats[u]):
            comps = {
                w: {(g, a): eta.components[w][(base.compose(f, g), a)] for (g, a) in reps[v].value[w]}
                for w in base.objects
            }
            tab[f"n{i}"] = index[v][natural_transformation(reps[v], B, comps).key()]
        restrict[f] = tab
    return presheaf(base, value, restrict)


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


def naive_decode(objects, f_value, g_value, fams):
    """Reference for ``kernel.decode``: each family's outer dict is built
    from all of its slots.  Each distinct slot function becomes its
    {x: y} dict once, and the families that use it share that dict."""
    tables = []
    for k, j in enumerate(objects):
        fv, gv = f_value[j], g_value[j]
        tables.append({
            func: {x: gv[i] for x, i in zip(fv, func)}
            for func in {fam[k] for fam in fams}
        })
    return [dict(zip(objects, map(dict.__getitem__, tables, fam))) for fam in fams]


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


# -- the Heyting algebra on Subobject parts, and the internal logic on it ---------

def truth_sieve(A, u, x):
    """The arrows into u along which x restricts into A."""
    F = A.ambient
    return frozenset(f for f in F.base.into(u) if F.restrict[f][x] in A.parts[F.base.src[f]])


def naive_is_closed(J, A):
    """No section outside A has a truth sieve holding a listed cover."""
    F = A.ambient
    return not any(
        x not in A.parts[u] and any(S.arrows <= truth_sieve(A, u, x) for S in J.covers[u])
        for u in F.base.objects
        for x in F.value[u]
    )


def closure(J, A):
    """J-closure: the sections whose truth sieve covers.  A single pass
    suffices; a fixpoint assertion guards it."""
    F = A.ambient
    grown = {
        u: frozenset(
            x for x in F.value[u]
            if any(S.arrows <= truth_sieve(A, u, x) for S in J.covers[u])
        )
        for u in F.base.objects
    }
    result = Subobject(F, grown)
    assert is_closed(J, result), "closure is not idempotent; topology not saturated?"
    return result


def top_sub(F):
    return subobject(F, {u: frozenset(F.value[u]) for u in F.base.objects})


def bottom_sub(J, F):
    return closure(J, subobject(F, {}))


def meet_sub(A, B):
    F = A.ambient
    return Subobject(F, {u: A.parts[u] & B.parts[u] for u in F.base.objects})


def join_sub(J, A, B):
    """Closure of the pointwise union."""
    F = A.ambient
    return closure(J, Subobject(F, {u: A.parts[u] | B.parts[u] for u in F.base.objects}))


def implies_sub(A, B):
    """Largest C with C ∧ A <= B: sections whose every restriction into A lands in B."""
    F = A.ambient
    base = F.base
    parts = {}
    for u in base.objects:
        parts[u] = frozenset(
            x
            for x in F.value[u]
            if not any(
                F.restrict[f][x] in A.parts[base.src[f]] and F.restrict[f][x] not in B.parts[base.src[f]]
                for f in base.into(u)
            )
        )
    return Subobject(F, parts)


def neg_sub(J, A):
    return implies_sub(A, bottom_sub(J, A.ambient))


def naive_interpret(model, phi, context, bound=None):
    """Reference for ``logic.interpret``: the same compositional semantics
    on ``Subobject`` parts, rebuilding the context product at every node."""
    check_sorting(model, phi, context)
    return _naive_interpret(model, phi, tuple(context), enumeration_bound(bound))


def _naive_interpret(model, phi, context, bound):
    J = model.site.topology
    C = model.site.category
    Pctx = context_product(model, context, bound)
    index = {v: i for i, (v, _) in enumerate(context)}

    if isinstance(phi, Top):
        return top_sub(Pctx)
    if isinstance(phi, Bottom):
        return bottom_sub(J, Pctx)
    if isinstance(phi, Mem):
        sub = model.predicates[phi.pred][1]
        i = index[phi.var]
        return subobject(Pctx, {u: frozenset(t for t in Pctx.value[u] if t[i] in sub.parts[u]) for u in C.objects})
    if isinstance(phi, Eq):
        i, j = index[phi.left], index[phi.right]
        strict = subobject(Pctx, {u: frozenset(t for t in Pctx.value[u] if t[i] == t[j]) for u in C.objects})
        return closure(J, strict)
    if isinstance(phi, And):
        return meet_sub(_naive_interpret(model, phi.left, context, bound), _naive_interpret(model, phi.right, context, bound))
    if isinstance(phi, Or):
        return join_sub(J, _naive_interpret(model, phi.left, context, bound), _naive_interpret(model, phi.right, context, bound))
    if isinstance(phi, Implies):
        return implies_sub(_naive_interpret(model, phi.left, context, bound), _naive_interpret(model, phi.right, context, bound))
    if isinstance(phi, Not):
        return implies_sub(_naive_interpret(model, phi.body, context, bound), bottom_sub(J, Pctx))
    inner_ctx = context + ((phi.var, phi.sort),)
    body = _naive_interpret(model, phi.body, inner_ctx, bound)
    sort = model.sorts[phi.sort]
    if isinstance(phi, Exists):
        image = {
            u: frozenset(t for t in Pctx.value[u] if any(t + (a,) in body.parts[u] for a in sort.value[u]))
            for u in C.objects
        }
        return closure(J, subobject(Pctx, image))
    parts = {
        u: frozenset(
            t
            for t in Pctx.value[u]
            if all(
                Pctx.restrict[f][t] + (a,) in body.parts[C.src[f]]
                for f in C.into(u)
                for a in sort.value[C.src[f]]
            )
        )
        for u in C.objects
    }
    result = subobject(Pctx, parts)
    assert is_closed(J, result), "universal quantification left a non-closed subobject"
    return result


def naive_forces(model, u, phi, env, context):
    """Reference for ``logic.forces``: the Kripke-Joyal clauses, recursively.

    Disjunction, existence and equality hold when the sieve of arrows
    along which they hold locally is one of the topology's covering
    sieves; implication, negation and universal quantification range over
    every restriction.  No memo, no bound.  The environment carries each
    variable's sort with its section, since sibling quantifiers may bind
    one variable in two sorts."""
    return _naive_forces(model, u, phi, {v: (s, env[v]) for v, s in context})


def _naive_forces(model, u, phi, env):
    J = model.site.topology
    C = model.site.category

    def covers(v, arrows):
        return any(S.arrows == arrows for S in J.covers[v])

    def restrict(f):
        return {w: (s, model.sorts[s].restrict[f][x]) for w, (s, x) in env.items()}

    def along(f, psi, extra=None):
        return _naive_forces(model, C.src[f], psi, {**restrict(f), **(extra or {})})

    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bottom):
        return covers(u, frozenset())
    if isinstance(phi, Mem):
        return env[phi.var][1] in model.predicates[phi.pred][1].parts[u]
    if isinstance(phi, Eq):
        # locally equal: the agreement sieve must cover
        (s, x), (t, y) = env[phi.left], env[phi.right]
        ls, rs = model.sorts[s].restrict, model.sorts[t].restrict
        return covers(u, frozenset(f for f in C.into(u) if ls[f][x] == rs[f][y]))
    if isinstance(phi, And):
        return _naive_forces(model, u, phi.left, env) and _naive_forces(model, u, phi.right, env)
    if isinstance(phi, Or):
        return covers(u, frozenset(f for f in C.into(u) if along(f, phi.left) or along(f, phi.right)))
    if isinstance(phi, Implies):
        return all(not along(f, phi.left) or along(f, phi.right) for f in C.into(u))
    if isinstance(phi, Not):
        return all(not along(f, phi.body) or covers(C.src[f], frozenset()) for f in C.into(u))
    sort = model.sorts[phi.sort]
    if isinstance(phi, Exists):
        return covers(u, frozenset(
            f for f in C.into(u)
            if any(along(f, phi.body, {phi.var: (phi.sort, a)}) for a in sort.value[C.src[f]])
        ))
    return all(
        along(f, phi.body, {phi.var: (phi.sort, a)})
        for f in C.into(u)
        for a in sort.value[C.src[f]]
    )


def naive_validate_category(objects, morphisms, identity, compose, hom_bound):
    """Reference for ``fincat.validate_category``: its checks in its order,
    each by a scan of every morphism, and associativity over every
    composable triple whether or not a hom-set has two arrows.

    Returns (objects, morphisms, src, tgt, identity, table) of the valid
    category; raises what the library raises on the first failure.
    """
    objs = tuple(sorted(set(objects), key=label_key))
    src, tgt = {}, {}
    for name, a, b in morphisms:
        if name in src:
            raise DanglingReference(f"duplicate morphism name {name!r}")
        if a not in objs:
            raise DanglingReference(f"morphism {name!r} has unknown source {a!r}")
        if b not in objs:
            raise DanglingReference(f"morphism {name!r} has unknown target {b!r}")
        src[name], tgt[name] = a, b
    mors = tuple(sorted(src, key=label_key))

    ident = dict(identity)
    for u in objs:
        if u not in ident:
            raise IdentityViolation(f"object {u!r} has no identity entry")
        m = ident[u]
        if m not in src:
            raise DanglingReference(f"identity of {u!r} names unknown morphism {m!r}")
        if src[m] != u or tgt[m] != u:
            raise IdentityViolation(f"identity {m!r} of {u!r} is not an endomorphism of {u!r}")
    for u in ident:
        if u not in objs:
            raise DanglingReference(f"identity entry for unknown object {u!r}")

    table = {}
    for (g, f), gf in (compose.items() if hasattr(compose, "items") else compose):
        for m in (g, f, gf):
            if m not in src:
                raise DanglingReference(f"compose entry ({g!r}, {f!r}) -> {gf!r} names unknown morphism {m!r}")
        if tgt[f] != src[g]:
            raise DanglingReference(f"compose entry for non-composable pair ({g!r}, {f!r})")
        if src[gf] != src[f] or tgt[gf] != tgt[g]:
            raise DanglingReference(f"composite {gf!r} of ({g!r}, {f!r}) should go {src[f]!r} -> {tgt[g]!r}")
        if (g, f) in table and table[(g, f)] != gf:
            raise DanglingReference(f"compose entry ({g!r}, {f!r}) is listed twice, as {table[(g, f)]!r} and {gf!r}")
        table[(g, f)] = gf

    for g in mors:
        for f in mors:
            if tgt[f] == src[g] and (g, f) not in table:
                raise MissingComposite(f"composable pair ({g!r}, {f!r}) has no entry")

    sizes = [sum(src[n] == src[m] and tgt[n] == tgt[m] for n in mors) for m in mors]
    if sizes and max(sizes) > hom_bound:
        m = mors[sizes.index(max(sizes))]
        raise IntractableSize(f"Hom{(src[m], tgt[m])!r}", max(sizes), hom_bound)

    for f in mors:
        if table[(ident[tgt[f]], f)] != f:
            raise IdentityViolation(f"id∘{f!r} != {f!r}")
        if table[(f, ident[src[f]])] != f:
            raise IdentityViolation(f"{f!r}∘id != {f!r}")

    for h in mors:
        for g in mors:
            for f in mors:
                if tgt[g] == src[h] and tgt[f] == src[g] and table[(table[(h, g)], f)] != table[(h, table[(g, f)])]:
                    raise AssociativityViolation(
                        f"(h∘g)∘f != h∘(g∘f) for (h, g, f) = ({h!r}, {g!r}, {f!r})"
                    )
    return objs, mors, src, tgt, ident, table


def naive_fin_functor(source, target, on_objects, on_morphisms):
    """Reference for ``fincat.fin_functor``: its checks in its order, and
    composition over every composable pair of the source, read from the
    raw tables, whether or not the target is thin."""
    on_objects, on_morphisms = dict(on_objects), dict(on_morphisms)
    for a in source.objects:
        if a not in on_objects:
            raise DanglingReference(f"functor misses object {a!r}")
        if on_objects[a] not in target.objects:
            raise DanglingReference(f"functor image {on_objects[a]!r} not in target")
    for f in source.morphisms:
        if f not in on_morphisms:
            raise DanglingReference(f"functor misses morphism {f!r}")
        ff = on_morphisms[f]
        if ff not in target.morphisms:
            raise DanglingReference(f"functor image {ff!r} not in target")
        if target.src[ff] != on_objects[source.src[f]] or target.tgt[ff] != on_objects[source.tgt[f]]:
            raise NotNatural(f"functor breaks endpoints at {f!r}")
    for u in source.objects:
        if on_morphisms[source.identity[u]] != target.identity[on_objects[u]]:
            raise IdentityViolation(f"functor breaks identity at {u!r}")
    for g in source.morphisms:
        for f in source.morphisms:
            if source.tgt[f] == source.src[g] and (
                on_morphisms[source.table[(g, f)]] != target.table[(on_morphisms[g], on_morphisms[f])]
            ):
                raise AssociativityViolation(f"functor breaks composition at ({g!r}, {f!r})")
    return on_objects, on_morphisms


def naive_cocycles_equivalent(c1, c2):
    """Reference for ``torsor.cocycles_equivalent``: (equivalent, witness).

    Tries every family (h_i), h_i in G(U_i), in product order and keeps
    the first with g'_ij = h_i^-1 · g_ij · h_j on every overlap U_ij,
    after restricting h_i and h_j there.  The overlap is found as the
    object whose open is U_i ∩ U_j, and the restriction arrows by a scan
    of the morphism list.
    """
    site, G = c1.site, c1.group
    C = site.category
    cover = c1.cover
    n = len(cover)

    def object_of(points):
        return next(u for u in C.objects if site.open_of[u] == points)

    for combo in product(*(G.sections.value[u] for u in cover)):
        good = True
        for i in range(n):
            for j in range(n):
                uij = object_of(site.open_of[cover[i]] & site.open_of[cover[j]])
                hi = G.sections.restrict[naive_hom(C, uij, cover[i])[0]][combo[i]]
                hj = G.sections.restrict[naive_hom(C, uij, cover[j])[0]][combo[j]]
                expected = G.mul(uij, G.mul(uij, G.inv(uij, hi), c1.values[(i, j)]), hj)
                if c2.values[(i, j)] != expected:
                    good = False
        if good:
            return True, dict(enumerate(combo))
    return False, None


def _into(C, u):
    return [g for g in C.morphisms if C.tgt[g] == u]


def _sorted(labels):
    return tuple(sorted(set(labels), key=label_key))


def naive_presheaf(base, value, restrict):
    """Reference for ``fincat.presheaf``: its checks in its order, and
    contravariance over every composable pair.  Returns (value, restrict)."""
    vals = {}
    for u in base.objects:
        if u not in value:
            raise DanglingReference(f"presheaf misses value set at {u!r}")
        vals[u] = _sorted(value[u])
    for u in value:
        if u not in base.objects:
            raise DanglingReference(f"presheaf value at unknown object {u!r}")
    for f in restrict:
        if f not in base.morphisms:
            raise DanglingReference(f"presheaf restriction along unknown arrow {f!r}")
    rest = {}
    for f in base.morphisms:
        u, v = base.tgt[f], base.src[f]
        if base.identity[v] == f and f not in restrict:
            rest[f] = {x: x for x in vals[u]}
            continue
        if f not in restrict:
            raise DanglingReference(f"presheaf misses restriction along {f!r}")
        tab = dict(restrict[f])
        for x in vals[u]:
            if x not in tab:
                raise DanglingReference(f"restriction along {f!r} misses {x!r}")
            if tab[x] not in vals[v]:
                raise DanglingReference(f"restriction along {f!r} sends {x!r} outside F({v!r})")
        for x in tab:
            if x not in vals[u]:
                raise DanglingReference(f"restriction along {f!r} defined on unknown {x!r}")
        rest[f] = tab
    for u in base.objects:
        for x in vals[u]:
            if rest[base.identity[u]][x] != x:
                raise NotNatural(f"restrict(id_{u!r}) moves {x!r}")
    for f in base.morphisms:
        for g in _into(base, base.src[f]):
            fg = base.table[(f, g)]
            for x in vals[base.tgt[f]]:
                if rest[fg][x] != rest[g][rest[f][x]]:
                    raise NotNatural(
                        f"contravariance fails: restrict({f!r}∘{g!r}) != "
                        f"restrict({g!r})∘restrict({f!r}) at {x!r}"
                    )
    return vals, rest


def naive_diagram(shape, value, action):
    """Reference for ``limits.diagram``: its checks in its order, and
    functoriality over every composable pair.  Returns (value, action)."""
    vals = {}
    for j in shape.objects:
        if j not in value:
            raise DanglingReference(f"diagram misses value at {j!r}")
        vals[j] = _sorted(value[j])
    for j in value:
        if j not in shape.objects:
            raise DanglingReference(f"diagram value at unknown object {j!r}")
    for f in action:
        if f not in shape.morphisms:
            raise DanglingReference(f"diagram action along unknown arrow {f!r}")
    act = {}
    for f in shape.morphisms:
        a, b = shape.src[f], shape.tgt[f]
        if shape.identity[a] == f and f not in action:
            act[f] = {x: x for x in vals[a]}
            continue
        if f not in action:
            raise DanglingReference(f"diagram misses action along {f!r}")
        tab = dict(action[f])
        for x in vals[a]:
            if x not in tab:
                raise DanglingReference(f"action along {f!r} misses {x!r}")
            if tab[x] not in vals[b]:
                raise DanglingReference(f"action along {f!r} sends {x!r} outside D({b!r})")
        for x in tab:
            if x not in vals[a]:
                raise DanglingReference(f"action along {f!r} defined on unknown {x!r}")
        act[f] = {x: tab[x] for x in vals[a]}
    for j in shape.objects:
        for x in vals[j]:
            if act[shape.identity[j]][x] != x:
                raise NotNatural(f"action of id_{j!r} moves {x!r}")
    for g in shape.morphisms:
        for f in _into(shape, shape.src[g]):
            gf = shape.table[(g, f)]
            for x in vals[shape.src[f]]:
                if act[gf][x] != act[g][act[f][x]]:
                    raise NotNatural(f"functoriality fails along ({g!r}, {f!r}) at {x!r}")
    return vals, act


def naive_natural_transformation(F, G, components):
    """Reference for ``fincat.natural_transformation``: the naturality
    square along every arrow.  Returns the components."""
    if not F.base.same(G.base):
        raise BaseMismatch("presheaves live over different base categories")
    base = F.base
    comp = {}
    for u in base.objects:
        tab = dict(components.get(u, {}))
        for x in F.value[u]:
            if x not in tab:
                raise NotNatural(f"component at {u!r} misses {x!r}")
            if tab[x] not in G.value[u]:
                raise NotNatural(f"component at {u!r} sends {x!r} outside target")
        comp[u] = {x: tab[x] for x in F.value[u]}
    for f in base.morphisms:
        u, v = base.tgt[f], base.src[f]
        for x in F.value[u]:
            if comp[v][F.restrict[f][x]] != G.restrict[f][comp[u][x]]:
                raise NotNatural(f"naturality square fails along {f!r} at {x!r}")
    return comp


def naive_matching_family(F, S, assignment):
    """Reference for ``sheaf.matching_family``: compatibility along every
    arrow into the domain of every arrow of the sieve, the sieve's arrows
    in label order.  Returns the assignment."""
    C = F.base
    if not C.same(S.category):
        raise BaseMismatch("sieve and presheaf live over different categories")
    assignment = dict(assignment)
    arrows = sorted(S.arrows, key=label_key)
    for f in arrows:
        if f not in assignment:
            raise IncompatibleFamily(f"family misses the arrow {f!r}")
        if assignment[f] not in F.value[C.src[f]]:
            raise IncompatibleFamily(f"value at {f!r} is not a section over its domain")
    for f in assignment:
        if f not in S.arrows:
            raise IncompatibleFamily(f"family assigns to {f!r} outside the sieve")
    for f in arrows:
        for g in _into(C, C.src[f]):
            fg = C.table[(f, g)]
            if assignment[fg] != F.restrict[g][assignment[f]]:
                raise IncompatibleFamily(
                    f"family disagrees along {g!r}: m({f!r}∘{g!r}) != m({f!r})|{g!r}"
                )
    return assignment


def naive_presheaf_diagram_commutes(shape, node, edge):
    """Reference for the commutation check of ``presheaf_diagram`` below
    on a diagram whose nodes and edge ends are right: E(g∘f) = E(g)∘E(f)
    for every composable pair of non-identity arrows, an identity g∘f
    standing for the identity map."""
    for g in shape.morphisms:
        for f in _into(shape, shape.src[g]):
            if shape.is_identity(f) or shape.is_identity(g):
                continue
            gf = shape.table[(g, f)]
            a = shape.src[f]
            left = {
                u: {x: edge[g].components[u][edge[f].components[u][x]] for x in node[a].value[u]}
                for u in node[a].base.objects
            }
            right = (
                {u: {x: x for x in node[a].value[u]} for u in node[a].base.objects}
                if shape.is_identity(gf) else edge[gf].components
            )
            if left != right:
                raise BaseMismatch(f"diagram does not commute along ({g!r}, {f!r})")


# -- the plus construction as a colimit over every covering sieve ----------------

def naive_plus_construction(F, J, bound=None):
    """F+(U): the matching families over every covering sieve of U, two
    identified when they agree on a covering sieve inside both, found by
    search over pairs.  Class ``p{i}`` is the i-th class in the order of
    its least (sieve key, section ranks) member.  Returns (F+, unit)."""
    C = F.base
    pairs = {
        u: [(S, m) for S in J.covers[u] for m in matching_families(F, S, bound)]
        for u in C.objects
    }

    def equivalent(u, a, b):
        (S1, m1), (S2, m2) = a, b
        meet = S1.arrows & S2.arrows
        return any(
            R.arrows <= meet and all(m1.assignment[f] == m2.assignment[f] for f in R.arrows)
            for R in J.covers[u]
        )

    classes, rep_of = {}, {}
    rank = section_rank(F)
    for u in C.objects:
        groups = []
        for item in pairs[u]:
            for group in groups:
                if equivalent(u, group[0], item):
                    group.append(item)
                    break
            else:
                groups.append([item])
        groups.sort(key=lambda g: min((S.key(), [rank[C.src[f]][x] for f, x in m.key()]) for S, m in g))
        classes[u] = groups
        rep_of[u] = {(S, m.key()): f"p{i}" for i, group in enumerate(groups) for S, m in group}

    value = {u: tuple(f"p{i}" for i in range(len(classes[u]))) for u in C.objects}
    restrict = {}
    for f in C.morphisms:
        if C.is_identity(f):
            continue
        u, v = C.tgt[f], C.src[f]
        tab = {}
        for i, group in enumerate(classes[u]):
            S, m = group[0]
            fS = pullback_sieve(C, f, S)
            pulled = {g: m.assignment[C.compose(f, g)] for g in fS.arrows}
            tab[f"p{i}"] = rep_of[v][(fS, MatchingFamily(F, fS, pulled).key())]
        restrict[f] = tab
    plus = presheaf(C, value, restrict)
    unit = {}
    for u in C.objects:
        M = maximal_sieve(C, u)
        unit[u] = {x: rep_of[u][(M, induced_family(F, M, x).key())] for x in F.value[u]}
    return plus, natural_transformation(F, plus, unit)


# -- the sheaf condition on every listed sieve -------------------------------------

def naive_is_sheaf(F, J, bound=None):
    """The sheaf condition walked over every listed covering sieve, in
    order: at each, the matching families against the families the
    sections induce.  Returns the report ``is_sheaf`` gives."""
    if not F.base.same(J.category):
        raise BaseMismatch("presheaf and topology live over different categories")
    if F.base.objects:
        bound = enumeration_bound(bound)
    failures = []
    checked = 0
    for u in F.base.objects:
        for S in J.covers[u]:
            checked += 1
            fams = matching_families(F, S, bound)
            induced = {}
            for x in F.value[u]:
                induced.setdefault(induced_family(F, S, x).key(), []).append(x)
            collisions = {k: xs for k, xs in induced.items() if len(xs) > 1}
            if collisions:
                xs = next(iter(collisions.values()))
                failures.append(
                    SheafFailure(
                        u, S, "separation", len(F.value[u]), len(fams),
                        f"sections {xs[0]!r} and {xs[1]!r} induce the same family",
                    )
                )
            missing = [m for m in fams if m.key() not in induced]
            if missing:
                failures.append(
                    SheafFailure(
                        u, S, "gluing", len(F.value[u]), len(fams),
                        f"{len(missing)} families glue to no section",
                    )
                )
    return SheafReport(not failures, tuple(failures), checked)


# -- covering decided on sieve sets --------------------------------------------------

def naive_saturate_topology(C, families, bound=None):
    """The least topology in which the families cover, closed under the
    axioms over the whole sieve lattice: pullbacks of covering sieves are
    added, and so is every sieve whose pullbacks along a covering sieve
    all cover, until nothing changes."""
    sieves_at = {u: all_sieves(C, u, bound) for u in C.objects}
    covering = {u: {maximal_sieve(C, u)} for u in C.objects}
    for u, fams in families.items():
        if u not in C.object_set:
            raise DanglingReference(f"covering family at unknown object {u!r}")
        for fam in fams:
            covering[u].add(generate_sieve(C, u, fam))
    changed = True
    while changed:
        changed = False
        for u in C.objects:
            for S in list(covering[u]):
                for f in C.into(u):
                    pb = pullback_sieve(C, f, S)
                    if pb not in covering[C.src[f]]:
                        covering[C.src[f]].add(pb)
                        changed = True
        for u in C.objects:
            for S in sieves_at[u]:
                if S in covering[u]:
                    continue
                for R in list(covering[u]):
                    if all(pullback_sieve(C, f, S) in covering[C.src[f]] for f in R.arrows):
                        covering[u].add(S)
                        changed = True
                        break
    covers = {u: tuple(sorted(covering[u], key=Sieve.key)) for u in C.objects}
    return GrothendieckTopology(C, covers)


def naive_open_cover_covers(site, bound=None):
    """The covering sieves of an open-cover site: those whose arrow
    domains have the union U."""
    C = site.category
    covers = {}
    for u in C.objects:
        chosen = []
        for S in all_sieves(C, u, bound):
            union = set()
            for f in S.arrows:
                union |= site.open_of[C.src[f]]
            if union == site.open_of[u]:
                chosen.append(S)
        covers[u] = tuple(chosen)
    return covers


def naive_closed_sieves(J, u, bound=None):
    """The J-closed sieves on u: no arrow f outside S has a covering
    pullback f*S, tested by membership in the listed covers."""
    C = J.category
    return [
        S for S in all_sieves(C, u, bound)
        if not any(
            f not in S.arrows and pullback_sieve(C, f, S) in J.covers[C.src[f]]
            for f in C.into(u)
        )
    ]


def section_rank(F):
    """Each section's position in its value set.  Value sets are in label
    order, so positions order sections by label without comparing labels,
    which fails on a mix of numbers and strings."""
    return {u: {x: i for i, x in enumerate(xs)} for u, xs in F.value.items()}


def locate(lat, A):
    """The position of the closed subobject A among a ``SubobjectLattice``'s
    elements, found by its mask."""
    return lat.index[lat.algebra.mask(A)]


def under_bounds(build, bounds=range(101)):
    """What ``build(bound)`` gives at each bound, up to the first bound it
    passes: the (search, size, bound) of each ``IntractableSize`` it
    raises, then its result.  A search raises exactly when its size
    exceeds the bound, so a build that passes at one bound passes at
    every larger one, with the same result."""
    found = []
    for bound in bounds:
        try:
            found.append(build(bound))
            return found
        except IntractableSize as err:
            found.append((err.search, err.size, err.bound))
    return found


# -- constructions only the tests use ------------------------------------------------
#
# Library code, not oracles: isomorphism of presheaves, the universal
# property of sheafification, and diagrams of presheaves with their
# pointwise limits.  No command, benchmark or library module calls them,
# so they live here, where the tests that check them are.

def presheaves_isomorphic(F, G, bound=None):
    """Strict equality of tables is ``same``; this decides isomorphism instead."""
    if not F.base.same(G.base):
        return False
    for u in F.base.objects:
        if len(F.value[u]) != len(G.value[u]):
            return False
    return any(
        all(len(set(func)) == len(func) for func in fam)
        for fam in natural_index_families(F, G, bound)
    )


def sheafification_is_initial(F, J, sheaf_target, bound=None):
    """Every map from F to a sheaf factors uniquely through the unit."""
    report = is_sheaf(sheaf_target, J, bound)
    if not report.ok:
        raise NotASheafHere("the comparison target is not a sheaf")
    result, unit = sheafify(F, J, bound)
    mediating = enumerate_naturals(result, sheaf_target, bound)
    for phi in enumerate_naturals(F, sheaf_target, bound):
        hits = [psi for psi in mediating if compose_naturals(psi, unit).same(phi)]
        if len(hits) != 1:
            return False
    return True


class PresheafDiagram(FrozenRecord):
    __slots__ = ("shape", "node", "edge")


def presheaf_diagram(shape, node, edge):
    """Validate a diagram of presheaves: a presheaf at each object of
    ``shape`` and a natural map along each non-identity arrow.

    Identities carry identity maps.  E(g∘f) == E(g)∘E(f) is checked for
    every arrow g and every generator f of the shape into src g
    (``check_pairs``), which proves it for every f, as in
    ``limits.diagram``: for f = f'∘e with e a generator,
    E(g∘f) = E((g∘f')∘e) = E(g∘f')∘E(e) = E(g)∘E(f')∘E(e) = E(g)∘E(f).
    """
    node = dict(node)
    edge = dict(edge)
    if not node and shape.objects:
        raise DanglingReference("diagram misses its nodes")
    base = None
    for j in shape.objects:
        if j not in node:
            raise DanglingReference(f"diagram misses the presheaf at {j!r}")
        if base is None:
            base = node[j].base
        elif not node[j].base.same(base):
            raise BaseMismatch(f"presheaf at {j!r} lives over a different base")
    for f in shape.morphisms:
        if shape.is_identity(f):
            continue
        if f not in edge:
            raise DanglingReference(f"diagram misses the map along {f!r}")
        eta = edge[f]
        if not (eta.source is node[shape.src[f]] or eta.source.same(node[shape.src[f]])):
            raise BaseMismatch(f"map along {f!r} starts at the wrong presheaf")
        if not (eta.target is node[shape.tgt[f]] or eta.target.same(node[shape.tgt[f]])):
            raise BaseMismatch(f"map along {f!r} ends at the wrong presheaf")
    def commutes(inner):
        for g in shape.morphisms:
            for f in inner(shape.src[g]):
                if shape.is_identity(f) or shape.is_identity(g):
                    continue
                gf = shape.compose(g, f)
                left = compose_naturals(edge[g], edge[f])
                right = edge[gf] if not shape.is_identity(gf) else identity_natural(node[shape.src[f]])
                if not left.same(right):
                    raise BaseMismatch(f"diagram does not commute along ({g!r}, {f!r})")

    check_pairs(shape, commutes)
    return PresheafDiagram(shape, node, edge)


def presheaf_limit(pd):
    """Limit computed pointwise by delegating each object to ``limits.limit``."""
    shape = pd.shape
    base = next(iter(pd.node.values())).base if pd.node else None
    if base is None:
        raise DanglingReference("empty presheaf diagram needs an explicit base; use terminal_presheaf")
    per_object = {}
    for u in base.objects:
        D = diagram(
            shape,
            {j: pd.node[j].value[u] for j in shape.objects},
            {
                f: dict(pd.edge[f].components[u])
                for f in shape.morphisms
                if not shape.is_identity(f)
            },
        )
        per_object[u] = limit(D)
    value = {u: canon(per_object[u].apex) for u in base.objects}
    pos = {j: i for i, j in enumerate(shape.objects)}
    restrict = {}
    for f in base.morphisms:
        if base.is_identity(f):
            continue
        u, v = base.tgt[f], base.src[f]
        restrict[f] = {
            t: tuple(pd.node[j].restrict[f][t[pos[j]]] for j in shape.objects)
            for t in value[u]
        }
    result = presheaf(base, value, restrict)
    legs = {}
    for j in shape.objects:
        legs[j] = natural_transformation(
            result,
            pd.node[j],
            {u: {t: t[pos[j]] for t in value[u]} for u in base.objects},
        )
    return result, legs
