"""Finite limits and colimits of set-valued diagrams, plus Kan extensions.

Limits are computed as compatible families, colimits as quotients of the
disjoint union by the generated equivalence.  Every result can be
certified against its universal property: its legs must form a
(co)cone, and for an exhaustively generated family of test (co)cones, a
mediating map must exist and be unique.
"""

from __future__ import annotations

from collections import Counter
from itertools import product, takewhile

from . import kernel
from .config import check_bound, enumeration_bound
from .errors import (
    CodomainMismatch,
    DanglingReference,
    NotNatural,
    ShapeMismatch,
    UsageError,
)
from .fincat import FinCategory, FinFunctor, FrozenRecord, check_pairs, to_point_functor, validate_category
from .labels import Label, canon, label_key


# -- plain set functions -------------------------------------------------------

class SetFun(FrozenRecord):
    __slots__ = ("dom", "cod", "table")

    def __call__(self, x: Label) -> Label:
        return self.table[x]


def set_fun(dom, cod, table) -> SetFun:
    dom = canon(dom)
    cod = canon(cod)
    table = dict(table)
    cod_set, dom_set = set(cod), set(dom)
    for x in dom:
        if x not in table:
            raise DanglingReference(f"function misses {x!r}")
        if table[x] not in cod_set:
            raise DanglingReference(f"function sends {x!r} outside its codomain")
    for x in table:
        if x not in dom_set:
            raise DanglingReference(f"function defined on unknown {x!r}")
    return SetFun(dom, cod, table)


# -- diagrams -------------------------------------------------------------------

class Diagram(FrozenRecord):
    """Covariant set-valued functor on a finite shape category."""

    __slots__ = ("shape", "value", "action")

    def size(self) -> int:
        return sum(len(v) for v in self.value.values())


def diagram(shape: FinCategory, value, action) -> Diagram:
    """Validate a covariant value/action table.

    For f: a -> b, ``action[f]`` maps D(a) to D(b).  Identity entries may
    be omitted; they are filled in, and an entry along an arrow outside
    the shape is refused.  Identities must act as identities.
    Functoriality act(g∘f) == act(g)∘act(f) is checked for every arrow g
    and every generator f of the shape into src g (``check_pairs``), which
    proves it for every f.  An identity f holds by the identity check.
    Otherwise f = f'∘e with e a generator and f' shorter, and by
    associativity act(g∘f) = act((g∘f')∘e) = act(g∘f')∘act(e)
    = act(g)∘act(f')∘act(e) = act(g)∘act(f'∘e), by the generator pair,
    by induction, and by the generator pair (f', e).
    """
    vals: dict[Label, tuple[Label, ...]] = {}
    for j in shape.objects:
        if j not in value:
            raise DanglingReference(f"diagram misses value at {j!r}")
        vals[j] = canon(value[j])
    for j in value:
        if j not in shape.object_set:
            raise DanglingReference(f"diagram value at unknown object {j!r}")
    for f in action:
        if f not in shape.morphism_set:
            raise DanglingReference(f"diagram action along unknown arrow {f!r}")
    members = {j: set(vals[j]) for j in shape.objects}
    act: dict[Label, dict[Label, Label]] = {}
    for f in shape.morphisms:
        a, b = shape.src[f], shape.tgt[f]
        if shape.is_identity(f) and f not in action:
            act[f] = {x: x for x in vals[a]}
            continue
        if f not in action:
            raise DanglingReference(f"diagram misses action along {f!r}")
        tab = dict(action[f])
        for x in vals[a]:
            if x not in tab:
                raise DanglingReference(f"action along {f!r} misses {x!r}")
            if tab[x] not in members[b]:
                raise DanglingReference(f"action along {f!r} sends {x!r} outside D({b!r})")
        for x in tab:
            if x not in members[a]:
                raise DanglingReference(f"action along {f!r} defined on unknown {x!r}")
        act[f] = {x: tab[x] for x in vals[a]}
    for j in shape.objects:
        i = shape.identity[j]
        for x in vals[j]:
            if act[i][x] != x:
                raise NotNatural(f"action of id_{j!r} moves {x!r}")

    def covariance(inner):
        for g in shape.morphisms:
            for f in inner(shape.src[g]):
                gf = shape.compose(g, f)
                for x in vals[shape.src[f]]:
                    if act[gf][x] != act[g][act[f][x]]:
                        raise NotNatural(f"functoriality fails along ({g!r}, {f!r}) at {x!r}")

    check_pairs(shape, covariance)
    return Diagram(shape, vals, act)


def diagram_naturals(F: Diagram, G: Diagram, bound: int | None = None):
    """All natural transformations between covariant diagrams on one shape.

    Returned as {object: {x: y}} component dicts in deterministic order.
    """
    if not F.shape.same(G.shape):
        raise ShapeMismatch("diagrams live on different shapes")
    check_bound(
        "diagram natural transformations",
        (len(G.value[j]) ** len(F.value[j]) for j in F.shape.objects),
        bound,
    )
    return kernel.decode(F.shape.objects, F.value, G.value, _naturals(F, G))


def _naturals(F: Diagram, G: Diagram):
    """All F => G as the kernel's index families (slot k is
    ``shape.objects[k]``), unbounded; callers check the bound they need.

    The kernel gets one constraint per generating arrow of the shape
    (``FinCategory.generating_arrows``), not one per arrow.  The squares
    η_b∘F(f) = G(f)∘η_a hold along identities, and if they hold along e
    and g they hold along g∘e: η∘F(g∘e) = η∘F(g)∘F(e) = G(g)∘η∘F(e) =
    G(g)∘G(e)∘η = G(g∘e)∘η.  By induction on the number of generators in
    a factorization they hold along every arrow.  Without generators
    every non-identity arrow is a constraint.
    """
    shape = F.shape
    arrows = [(shape.src[f], shape.tgt[f], F.action[f], G.action[f]) for f in shape.generating_arrows]
    return kernel.natural_families(*kernel.encode(shape.objects, F.value, G.value, arrows))


_POINT = "*"  # the one element of the terminal diagram Δ₁


def _constant(shape: FinCategory, values: tuple) -> Diagram:
    """Δ_values: every object goes to ``values``, every arrow to the identity."""
    ident = {x: x for x in values}
    return Diagram(shape, {j: values for j in shape.objects}, {f: ident for f in shape.morphisms})


# -- limits ------------------------------------------------------------------------

class ConeResult(FrozenRecord, eq=True):
    """A (co)limit: apex elements plus per-object leg tables."""

    __slots__ = ("diagram", "apex", "legs")


def limit(D: Diagram) -> ConeResult:
    """Apex = all compatible families, legs = projections.

    Families are tuples indexed by the shape objects in canonical order.
    They are the natural transformations Δ₁ => D out of the terminal
    diagram, so the kernel prunes them as they are built.
    """
    objs = D.shape.objects
    apex = tuple(
        tuple(D.value[j][i] for j, (i,) in zip(objs, cone))
        for cone in _naturals(_constant(D.shape, (_POINT,)), D)
    )
    pos = {j: i for i, j in enumerate(objs)}
    legs = {j: {t: t[pos[j]] for t in apex} for j in objs}
    return ConeResult(D, apex, legs)


def colimit(D: Diagram) -> ConeResult:
    """Disjoint union quotiented by x ~ action(f)(x); legs are injections.

    Classes are labeled by their least (object, element) member.
    """
    shape = D.shape
    nodes = [(j, x) for j in shape.objects for x in D.value[j]]
    relabel = _least_in_class(nodes, (
        ((shape.src[f], x), (shape.tgt[f], D.action[f][x]))
        for f in shape.morphisms
        for x in D.value[shape.src[f]]
    ))
    apex = canon(relabel.values())
    legs = {j: {x: relabel[(j, x)] for x in D.value[j]} for j in shape.objects}
    return ConeResult(D, apex, legs)


def _least_in_class(nodes, pairs) -> dict:
    """Each node mapped to the least member, by ``label_key``, of its class
    under the equivalence that ``pairs`` generate (a union-find)."""
    parent = {n: n for n in nodes}

    def find(n):
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    classes = {}
    for n in nodes:
        classes.setdefault(find(n), []).append(n)
    least = {}
    for members in classes.values():
        best = min(members, key=label_key)  # once per class, not per node
        for n in members:
            least[n] = best
    return least


# -- universal-property certificates ---------------------------------------------

class Certificate(FrozenRecord, eq=True):
    __slots__ = ("ok", "cones_checked", "failures")


def _check_size(name: str, size: int) -> None:
    if size < 0:
        raise UsageError(f"{name} must be at least 0, got {size}")


def _test_apexes(max_size: int):
    for size in range(max_size + 1):
        yield tuple(f"t{i}" for i in range(size))


def certify_limit(res: ConeResult, max_apex: int = 3, bound: int | None = None) -> Certificate:
    """Check that the legs form a cone, and that every test cone (apex
    size <= max_apex) has a unique mediating map."""
    _check_size("max_apex", max_apex)
    bound = enumeration_bound(bound)
    D = res.diagram
    shape = D.shape
    objs = shape.objects
    # how many apex elements have each tuple of leg positions
    ranks = [{y: i for i, y in enumerate(D.value[j])} for j in objs]
    images = Counter(tuple(rank.get(res.legs[j][p]) for j, rank in zip(objs, ranks)) for p in res.apex)
    # legs that commute along the generating arrows commute along every
    # arrow, as the squares of ``_naturals`` do
    failures = [
        f"the legs of {p!r} do not commute with {f!r}"
        for p in res.apex
        for f in shape.generating_arrows
        if D.action[f].get(res.legs[shape.src[f]][p]) != res.legs[shape.tgt[f]][p]
    ]
    checked = 0
    for T in _test_apexes(max_apex):
        check_bound("test cones", (len(D.value[j]) ** len(T) for j in objs), bound)
        for legs in _naturals(_constant(D.shape, T), D):  # legs[k][i]: t_i's leg, a position in D(objs[k])
            checked += 1
            # the mediating map is forced pointwise; check existence+uniqueness
            for i, t in enumerate(T):
                hits = images[tuple(leg[i] for leg in legs)]
                if hits != 1:
                    failures.append(
                        f"test cone over apex size {len(T)}: {hits} mediating images for {t!r}"
                    )
                    break
    return Certificate(not failures, checked, tuple(failures))


def certify_colimit(res: ConeResult, max_apex: int = 3, bound: int | None = None) -> Certificate:
    """Check that the legs form a cocone, and that every test cocone
    factors uniquely through the colimit."""
    _check_size("max_apex", max_apex)
    bound = enumeration_bound(bound)
    D = res.diagram
    shape = D.shape
    classes = [[res.legs[j][x] for x in D.value[j]] for j in shape.objects]
    failures = [  # along the generating arrows, as in certify_limit
        f"the leg of {x!r} differs from the leg of its image under {f!r}"
        for f in shape.generating_arrows
        for x in D.value[shape.src[f]]
        if res.legs[shape.tgt[f]][D.action[f][x]] != res.legs[shape.src[f]][x]
    ]
    checked = 0
    for T in _test_apexes(max_apex):
        check_bound("test cocones", (len(T) ** len(D.value[j]) for j in shape.objects), bound)
        for legs in _naturals(D, _constant(shape, T)):  # legs[k]: D(objects[k]) -> positions in T
            checked += 1
            # mediating map forced on each class; consistent iff well-defined
            mediating = {}
            ok = True
            for labels, leg in zip(classes, legs):
                for cls, want in zip(labels, leg):
                    if mediating.setdefault(cls, want) != want:
                        ok = False
            if not ok or len(mediating) != len(res.apex):
                failures.append(f"test cocone into apex size {len(T)} has no unique factorization")
    return Certificate(not failures, checked, tuple(failures))


# -- named special cases -------------------------------------------------------------

def pullback(f: SetFun, g: SetFun) -> tuple[tuple[Label, ...], SetFun, SetFun]:
    """P = {(a, b) | f(a) = g(b)} with its projections."""
    if f.cod != g.cod:
        raise CodomainMismatch("pullback needs a common codomain")
    pairs = tuple(sorted(((a, b) for a in f.dom for b in g.dom if f(a) == g(b)), key=label_key))
    pa = set_fun(pairs, f.dom, {p: p[0] for p in pairs})
    pb = set_fun(pairs, g.dom, {p: p[1] for p in pairs})
    return pairs, pa, pb


def is_pullback(apex, pa: SetFun, pb: SetFun, f: SetFun, g: SetFun) -> bool:
    """Is a given commuting cone the pullback?  Exactly when (pa, pb) maps
    the apex one to one onto the pairs of the canonical pullback,
    {(a, b) | f(a) = g(b)}, which are compared as a set, unsorted."""
    if any(f(pa(t)) != g(pb(t)) for t in apex):
        return False
    if f.cod != g.cod:
        raise CodomainMismatch("pullback needs a common codomain")
    image = {(pa(t), pb(t)) for t in apex}
    return len(image) == len(apex) and image == {(a, b) for a in f.dom for b in g.dom if f(a) == g(b)}


def equalizer(f: SetFun, g: SetFun) -> tuple[tuple[Label, ...], SetFun]:
    """E = {a | f(a) = g(a)} with its inclusion."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ShapeMismatch("equalizer needs a parallel pair")
    e = tuple(a for a in f.dom if f(a) == g(a))
    return e, set_fun(e, f.dom, {a: a for a in e})


def coequalizer(f: SetFun, g: SetFun) -> tuple[tuple[Label, ...], SetFun]:
    """Quotient of the codomain by the equivalence generated by f(a) ~ g(a)."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ShapeMismatch("coequalizer needs a parallel pair")
    relabel = _least_in_class(f.cod, ((f(a), g(a)) for a in f.dom))
    q = canon(relabel.values())
    return q, set_fun(f.cod, q, relabel)


# -- Kan extensions ------------------------------------------------------------------

class KanResult(FrozenRecord, eq=True):
    __slots__ = (
        "direction",  # "left" | "right"
        "along",
        "source",     # F on A
        "extension",  # Lan/Ran on B
        "transform",
    )
    # left:  unit components  F(a) -> Lan(K(a))
    # right: counit components Ran(K(a)) -> F(a)


def comma_category(K: FinFunctor, b: Label, direction: str, bound: int | None = None) -> FinCategory:
    """(K ↓ b) for "left", (b ↓ K) for "right".

    Objects are (a, m) pairs; morphisms are (g, (a, m), (a', m')) with the
    evident triangle condition.
    """
    A, B = K.source, K.target
    if direction == "left":
        objects = [(a, m) for a in A.objects for m in B.hom(K.obj(a), b)]
    else:
        objects = [(a, m) for a in A.objects for m in B.hom(b, K.obj(a))]
    check_bound(f"comma category at {b!r}", [len(objects)], bound)
    mors = []
    for (a1, m1) in objects:
        for (a2, m2) in objects:
            for g in A.hom(a1, a2):
                if direction == "left":
                    ok = B.compose(m2, K.mor(g)) == m1
                else:
                    ok = B.compose(K.mor(g), m1) == m2
                if ok:
                    name = (g, (a1, m1), (a2, m2))
                    mors.append((name, (a1, m1), (a2, m2)))
    ident = {(a, m): (A.identity[a], (a, m), (a, m)) for (a, m) in objects}
    comp = {}
    for name2, s2, t2 in mors:
        for name1, s1, t1 in mors:
            if t1 == s2:
                comp[(name2, name1)] = (A.compose(name2[0], name1[0]), s1, t2)
    return validate_category(objects, mors, ident, comp)


def _comma_diagram(F: Diagram, comma: FinCategory) -> Diagram:
    value = {(a, m): F.value[a] for (a, m) in comma.objects}
    action = {}
    for name in comma.morphisms:
        g = name[0]
        action[name] = dict(F.action[g])
    return diagram(comma, value, action)


def kan_extension(
    direction: str,
    K: FinFunctor,
    F: Diagram,
    bound: int | None = None,
) -> KanResult:
    """Pointwise Kan extension along K, with its unit or counit.

    Left: Lan(b) = colim over (K ↓ b).  Right: Ran(b) = lim over (b ↓ K).
    """
    if direction not in ("left", "right"):
        raise ShapeMismatch("direction must be 'left' or 'right'")
    if not F.shape.same(K.source):
        raise ShapeMismatch("diagram does not live on the functor's source")
    A, B = K.source, K.target

    per_object: dict[Label, ConeResult] = {}
    commas: dict[Label, FinCategory] = {}
    for b in B.objects:
        comma = comma_category(K, b, direction, bound)
        commas[b] = comma
        dg = _comma_diagram(F, comma)
        per_object[b] = colimit(dg) if direction == "left" else limit(dg)

    value = {b: per_object[b].apex for b in B.objects}
    action: dict[Label, dict[Label, Label]] = {}
    for beta in B.morphisms:
        b, b2 = B.src[beta], B.tgt[beta]
        res_b, res_b2 = per_object[b], per_object[b2]
        tab: dict[Label, Label] = {}
        if direction == "left":
            # classes are labeled by representatives ((a, m), x)
            for cls in res_b.apex:
                (a, m), x = cls
                target_obj = (a, B.compose(beta, m))
                tab[cls] = res_b2.legs[target_obj][x]
        else:
            objs_b = commas[b].objects
            objs_b2 = commas[b2].objects
            pos_b = {o: i for i, o in enumerate(objs_b)}
            for t in res_b.apex:
                image = tuple(t[pos_b[(a, B.compose(m, beta))]] for (a, m) in objs_b2)
                tab[t] = image
        action[beta] = tab
    ext = diagram(B, value, action)

    transform: dict[Label, dict[Label, Label]] = {}
    for a in A.objects:
        ka = K.obj(a)
        node = (a, B.identity[ka])
        if direction == "left":
            transform[a] = {x: per_object[ka].legs[node][x] for x in F.value[a]}
        else:
            objs = commas[ka].objects
            pos = {o: i for i, o in enumerate(objs)}
            transform[a] = {t: t[pos[node]] for t in per_object[ka].apex}
    return KanResult(direction, K, F, ext, transform)


def kan_to_point(direction: str, D: Diagram, bound: int | None = None) -> ConeResult:
    """(Co)limit computed through the Kan machinery along the to-point functor.

    The result is relabeled through the canonical identification of
    (K ↓ pt) with the shape, so it is elementwise comparable with
    ``limit``/``colimit`` output.  Cross-checking the two code paths is a
    test of both.
    """
    K = to_point_functor(D.shape)
    res = kan_extension(direction, K, D, bound)
    ext = res.extension
    idp = "id_pt"
    if direction == "left":
        apex = tuple((a, x) for ((a, _m), x) in ext.value["pt"])
        legs = {
            a: {x: _strip_left(res, a, x) for x in D.value[a]}
            for a in D.shape.objects
        }
        return ConeResult(D, canon(apex), legs)
    # right: tuples over comma objects (a, id_pt) in canonical order match
    # tuples over the shape objects in canonical order positionally
    apex = ext.value["pt"]
    legs = {}
    comma_objs = tuple(sorted(((a, idp) for a in D.shape.objects), key=label_key))
    pos = {o: i for i, o in enumerate(comma_objs)}
    for a in D.shape.objects:
        legs[a] = {t: t[pos[(a, idp)]] for t in apex}
    return ConeResult(D, apex, legs)


def _strip_left(res: KanResult, a, x):
    cls = res.transform[a][x]
    (a2, _m), y = cls
    return (a2, y)


def kan_certificate(
    result: KanResult,
    value_bound: int = 2,
    bound: int | None = None,
) -> Certificate:
    """Exhaustive universal-property check for a Kan extension.

    Enumerates every candidate functor H on the target with value sets of
    size <= value_bound, every comparison transformation, and asserts the
    unique factorization through the (co)unit.
    """
    _check_size("value_bound", value_bound)
    K, F = result.along, result.source
    B = K.target
    failures = []
    checked = 0
    for H in _enumerate_diagrams(B, value_bound, bound):
        HK = diagram(
            F.shape,
            {a: H.value[K.obj(a)] for a in F.shape.objects},
            {g: dict(H.action[K.mor(g)]) for g in F.shape.morphisms},
        )
        if result.direction == "left":
            alphas = diagram_naturals(F, HK, bound)
            mediums = diagram_naturals(result.extension, H, bound)
            for alpha in alphas:
                checked += 1
                hits = [
                    med
                    for med in mediums
                    if all(
                        med[K.obj(a)][result.transform[a][x]] == alpha[a][x]
                        for a in F.shape.objects
                        for x in F.value[a]
                    )
                ]
                if len(hits) != 1:
                    failures.append(
                        f"left Kan: {len(hits)} factorizations for a comparison into H of sizes "
                        f"{[len(H.value[b]) for b in B.objects]}"
                    )
        else:
            alphas = diagram_naturals(HK, F, bound)
            mediums = diagram_naturals(H, result.extension, bound)
            for alpha in alphas:
                checked += 1
                hits = [
                    med
                    for med in mediums
                    if all(
                        result.transform[a][med[K.obj(a)][y]] == alpha[a][y]
                        for a in F.shape.objects
                        for y in HK.value[a]
                    )
                ]
                if len(hits) != 1:
                    failures.append(
                        f"right Kan: {len(hits)} factorizations for a comparison out of H of sizes "
                        f"{[len(H.value[b]) for b in B.objects]}"
                    )
    return Certificate(not failures, checked, tuple(failures))


def _enumerate_diagrams(shape: FinCategory, max_size: int, bound: int | None = None):
    """All covariant set-valued functors on a shape with small value sets."""
    objs = shape.objects
    non_id = [f for f in shape.morphisms if not shape.is_identity(f)]
    for sizes in product(range(max_size + 1), repeat=len(objs)):
        value = {j: tuple(f"v{i}" for i in range(sizes[k])) for k, j in enumerate(objs)}
        # (|target|, |source|) per arrow.  No functor sends a nonempty set into
        # an empty one, so such sizes are skipped at the first arrow that
        # does, after the bound is checked on the arrows before it.
        exps = [(len(value[shape.tgt[f]]), len(value[shape.src[f]])) for f in non_id]
        live = list(takewhile(lambda e: e[0] or not e[1], exps))
        check_bound("test functors", (nb ** na for nb, na in live), bound)
        if len(live) < len(exps):
            continue
        tables = [product(value[shape.tgt[f]], repeat=na) for f, (_, na) in zip(non_id, exps)]
        for combo in product(*tables):
            action = {f: dict(zip(value[shape.src[f]], choice)) for f, choice in zip(non_id, combo)}
            try:
                yield diagram(shape, value, action)
            except NotNatural:
                continue
