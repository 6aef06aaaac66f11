"""Matching families, the sheaf condition, gluing, sheafification,
pointwise presheaf limits, and exponentials.

A matching family over a sieve is the same thing as a natural
transformation out of the sieve viewed as a subpresheaf of the
representable, so the enumeration kernel does the heavy lifting here
too.  Sheafification is the plus construction applied twice, with
refinement-equivalence decided by exhaustive search over covering
sieves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import enumeration_bound
from .errors import (
    BaseMismatch,
    DanglingReference,
    IncompatibleFamily,
    IntractableSize,
    NoSuchFamily,
    NotASheafHere,
)
from .fincat import (
    FinCategory,
    NaturalTransformation,
    Presheaf,
    compose_naturals,
    enumerate_naturals,
    natural_index_families,
    natural_transformation,
    presheaf,
    yoneda_presheaf,
)
from .labels import Label, canon, label_key
from .limits import ConeResult, diagram, limit
from .site import GrothendieckTopology, Sieve, generate_sieve, maximal_sieve, pullback_sieve


def sieve_presheaf(S: Sieve) -> Presheaf:
    """A sieve as a subpresheaf of the representable at its apex."""
    C = S.category
    value = {v: tuple(sorted((f for f in S.arrows if C.src[f] == v), key=label_key)) for v in C.objects}
    restrict = {}
    for g in C.morphisms:
        u = C.tgt[g]
        restrict[g] = {f: C.compose(f, g) for f in value[u]}
    return presheaf(C, value, restrict)


@dataclass(frozen=True, eq=False)
class MatchingFamily:
    presheaf: Presheaf
    sieve: Sieve
    assignment: dict[Label, Label]

    def key(self) -> tuple:
        return tuple(sorted(self.assignment.items(), key=lambda kv: label_key(kv[0])))

    def same(self, other: "MatchingFamily") -> bool:
        return self.sieve == other.sieve and self.assignment == other.assignment


def matching_family(F: Presheaf, S: Sieve, assignment) -> MatchingFamily:
    """Validate compatibility: m(f∘g) == F(g)(m(f)) for every f in S and composable g."""
    C = F.base
    if not C.same(S.category):
        raise BaseMismatch("sieve and presheaf live over different categories")
    assignment = dict(assignment)
    sections = {u: set(F.value[u]) for u in C.objects}
    for f in S.arrows:
        if f not in assignment:
            raise IncompatibleFamily(f"family misses the arrow {f!r}")
        if assignment[f] not in sections[C.src[f]]:
            raise IncompatibleFamily(f"value at {f!r} is not a section over its domain")
    for f in assignment:
        if f not in S.arrows:
            raise IncompatibleFamily(f"family assigns to {f!r} outside the sieve")
    for f in S.arrows:
        for g in C.into(C.src[f]):
            fg = C.compose(f, g)
            if assignment[fg] != F.restrict[g][assignment[f]]:
                raise IncompatibleFamily(
                    f"family disagrees along {g!r}: m({f!r}∘{g!r}) != m({f!r})|{g!r}"
                )
    return MatchingFamily(F, S, assignment)


def matching_families(F: Presheaf, S: Sieve, bound: int | None = None) -> tuple[MatchingFamily, ...]:
    """All matching families for F over S, canonically ordered.

    They are the natural maps out of the sieve presheaf, read straight off
    the kernel's index families: the arrow f sits at its position in
    ``sp.value[src f]``, and its value's index is its position in
    ``F.value[src f]``, which is its section rank.
    """
    sp = sieve_presheaf(S)
    C = F.base
    slot = {w: k for k, w in enumerate(C.objects)}
    at = {f: (slot[C.src[f]], sp.value[C.src[f]].index(f)) for f in S.arrows}
    cells = [(f, k, i, F.value[C.src[f]]) for f, (k, i) in at.items()]
    # in label order of their values, arrow by arrow
    order = [at[f] for f in sorted(S.arrows, key=label_key)]
    fams = sorted(
        natural_index_families(sp, F, bound),
        key=lambda fam: tuple(fam[k][i] for k, i in order),
    )
    return tuple(
        MatchingFamily(F, S, {f: values[fam[k][i]] for f, k, i, values in cells})
        for fam in fams
    )


def induced_family(F: Presheaf, S: Sieve, x: Label) -> MatchingFamily:
    """The family f |-> F(f)(x) induced by a section x over the apex."""
    if x not in F.value[S.apex]:
        raise DanglingReference(f"{x!r} is not a section over {S.apex!r}")
    return MatchingFamily(F, S, {f: F.restrict[f][x] for f in S.arrows})


def family_from_cover(site, F: Presheaf, u: Label, sections: dict) -> tuple[Sieve, MatchingFamily]:
    """Extend sections on a cover to the generated sieve.

    Every arrow of the generated sieve factors through a cover member;
    the extension is well defined exactly when the sections agree on
    overlaps, and IncompatibleFamily names the first disagreement.
    """
    C = F.base
    incl = {}
    for ui, s_i in sections.items():
        hom = C.hom(ui, u)
        if len(hom) != 1:
            raise DanglingReference(f"no unique arrow {ui!r} -> {u!r}")
        if s_i not in F.value[ui]:
            raise DanglingReference(f"{s_i!r} is not a section over {ui!r}")
        incl[ui] = hom[0]
    S = generate_sieve(C, u, [incl[ui] for ui in sections])
    assignment = {}
    for f in S.arrows:
        candidates = {}
        for ui, s_i in sections.items():
            for g in C.hom(C.src[f], ui):
                if C.compose(incl[ui], g) == f:
                    candidates[(ui, g)] = F.restrict[g][s_i]
        values = set(candidates.values())
        if len(values) != 1:
            raise IncompatibleFamily(
                f"sections disagree on the overlap seen by {f!r}: "
                + ", ".join(f"via {ui!r}: {val!r}" for (ui, _), val in sorted(candidates.items(), key=str))
            )
        assignment[f] = values.pop()
    return S, matching_family(F, S, assignment)


# -- the sheaf condition ----------------------------------------------------------

@dataclass(frozen=True)
class SheafFailure:
    at: Label
    sieve: Sieve
    kind: str            # "separation" | "gluing"
    sections: int
    families: int
    witness: str


@dataclass(frozen=True)
class SheafReport:
    ok: bool
    failures: tuple[SheafFailure, ...]
    pairs_checked: int


def is_sheaf(F: Presheaf, J: GrothendieckTopology, bound: int | None = None) -> SheafReport:
    """Check that sections biject with matching families for every covering sieve."""
    if not F.base.same(J.category):
        raise BaseMismatch("presheaf and topology live over different categories")
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


def glue(F: Presheaf, J: GrothendieckTopology, S: Sieve, m: MatchingFamily) -> Label:
    """The unique section inducing m, when the sheaf condition holds at (apex, S)."""
    if not F.base.same(J.category):
        raise BaseMismatch("presheaf and topology live over different categories")
    if not J.covers_with(S.apex, S.arrows):
        raise NotASheafHere(f"the sieve on {S.apex!r} is not covering")
    hits = [x for x in F.value[S.apex] if induced_family(F, S, x).key() == m.key()]
    if len(hits) > 1:
        raise NotASheafHere(
            f"separation fails at ({S.apex!r}): {hits[0]!r} and {hits[1]!r} agree on the sieve"
        )
    if not hits:
        raise NoSuchFamily(f"no section over {S.apex!r} induces the family")
    return hits[0]


# -- sheafification -----------------------------------------------------------------

def _families_agree_on(m1: MatchingFamily, m2: MatchingFamily, R: Sieve) -> bool:
    return all(m1.assignment[f] == m2.assignment[f] for f in R.arrows)


def plus_construction(
    F: Presheaf, J: GrothendieckTopology, bound: int | None = None
) -> tuple[Presheaf, NaturalTransformation]:
    """One application of the plus construction.

    F+(U) is the set of matching families over covering sieves of U, two
    families identified when they agree after refinement to a common
    covering sieve.  Class labels are ``p0, p1, ...`` in the canonical
    order of their least representative.
    """
    if not F.base.same(J.category):
        raise BaseMismatch("presheaf and topology live over different categories")
    C = F.base
    pairs: dict[Label, list[tuple[Sieve, MatchingFamily]]] = {}
    for u in C.objects:
        at_u = []
        for S in J.covers[u]:
            for m in matching_families(F, S, bound):
                at_u.append((S, m))
        pairs[u] = at_u

    def equivalent(u, a, b):
        S1, m1 = a
        S2, m2 = b
        meet = S1.arrows & S2.arrows
        for R in J.covers[u]:
            if R.arrows <= meet and _families_agree_on(m1, m2, R):
                return True
        return False

    classes: dict[Label, list[list]] = {}
    rep_of: dict[Label, dict] = {}
    rank = F.section_rank()
    for u in C.objects:
        groups: list[list] = []
        for item in pairs[u]:
            placed = False
            for group in groups:
                if equivalent(u, group[0], item):
                    group.append(item)
                    placed = True
                    break
            if not placed:
                groups.append([item])
        groups.sort(key=lambda g: min((S.key(), [rank[C.src[f]][x] for f, x in m.key()]) for S, m in g))
        classes[u] = groups
        rep_of[u] = {}
        for i, group in enumerate(groups):
            for S, m in group:
                rep_of[u][(S, m.key())] = f"p{i}"

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

    unit_components = {}
    for u in C.objects:
        M = maximal_sieve(C, u)
        unit_components[u] = {
            x: rep_of[u][(M, induced_family(F, M, x).key())] for x in F.value[u]
        }
    unit = natural_transformation(F, plus, unit_components)
    return plus, unit


def sheafify(
    F: Presheaf, J: GrothendieckTopology, bound: int | None = None
) -> tuple[Presheaf, NaturalTransformation]:
    """Apply the plus construction twice; the unit is the composite map."""
    once, u1 = plus_construction(F, J, bound)
    twice, u2 = plus_construction(once, J, bound)
    return twice, compose_naturals(u2, u1)


def sheafification_is_initial(
    F: Presheaf,
    J: GrothendieckTopology,
    sheaf_target: Presheaf,
    bound: int | None = None,
) -> bool:
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


# -- pointwise presheaf limits --------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PresheafDiagram:
    shape: FinCategory
    node: dict[Label, Presheaf]
    edge: dict[Label, NaturalTransformation]


def presheaf_diagram(shape: FinCategory, node, edge) -> PresheafDiagram:
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
    from .fincat import identity_natural

    for g in shape.morphisms:
        for f in shape.into(shape.src[g]):
            if shape.is_identity(f) or shape.is_identity(g):
                continue
            gf = shape.compose(g, f)
            left = compose_naturals(edge[g], edge[f])
            right = edge[gf] if not shape.is_identity(gf) else identity_natural(node[shape.src[f]])
            if not left.same(right):
                raise BaseMismatch(f"diagram does not commute along ({g!r}, {f!r})")
    return PresheafDiagram(shape, node, edge)


def presheaf_limit(pd: PresheafDiagram) -> tuple[Presheaf, dict[Label, NaturalTransformation]]:
    """Limit computed pointwise by delegating each object to ``limits.limit``."""
    shape = pd.shape
    base = next(iter(pd.node.values())).base if pd.node else None
    if base is None:
        raise DanglingReference("empty presheaf diagram needs an explicit base; use terminal_presheaf")
    per_object: dict[Label, ConeResult] = {}
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


def terminal_presheaf(base: FinCategory) -> Presheaf:
    value = {u: ((),) for u in base.objects}
    restrict = {f: {(): ()} for f in base.morphisms if not base.is_identity(f)}
    return presheaf(base, value, restrict)


def product_presheaf(F: Presheaf, G: Presheaf) -> Presheaf:
    """Pointwise product; elements are (x, y) pairs."""
    if not F.base.same(G.base):
        raise BaseMismatch("factors live over different bases")
    base = F.base
    value = {u: tuple((x, y) for x in F.value[u] for y in G.value[u]) for u in base.objects}
    restrict = {}
    for f in base.morphisms:
        if base.is_identity(f):
            continue
        u = base.tgt[f]
        restrict[f] = {
            (x, y): (F.restrict[f][x], G.restrict[f][y]) for (x, y) in value[u]
        }
    return presheaf(base, value, restrict)


# -- exponentials ------------------------------------------------------------------------

def exponential(A: Presheaf, B: Presheaf, bound: int | None = None) -> Presheaf:
    """B^A with B^A(U) = Nat(h_U × A, B), restriction by precomposition.

    Element ``n{i}`` at U is the i-th natural transformation in canonical
    enumeration order; the Cartesian-closure adjunction is certified by
    counting in the tests rather than assumed.

    The naturals stay the kernel's index families.  For f: V -> U, the
    restriction of a family eta at U is eta precomposed with
    h_f × A: h_V × A => h_U × A, (g, a) |-> (f∘g, a); at each object that
    is an index permutation of eta's slot function.  The pulled family is
    then looked up among the families at V.  That enumeration is
    exhaustive and holds only natural families, so finding the pulled
    family there certifies that it is natural, without checking its
    squares again.
    """
    if not A.base.same(B.base):
        raise BaseMismatch("exponential needs a common base")
    base = A.base
    limit_ = enumeration_bound(bound)

    reps: dict[Label, Presheaf] = {u: product_presheaf(yoneda_presheaf(base, u), A) for u in base.objects}
    fams: dict[Label, list] = {}
    for u in base.objects:
        count = 1
        for w in base.objects:
            fw = len(reps[u].value[w])
            gw = len(B.value[w])
            count *= gw ** fw if fw else 1
            if count > limit_:
                raise IntractableSize("exponential candidate space exceeds bound")
        fams[u] = natural_index_families(reps[u], B, bound)

    value = {u: tuple(f"n{i}" for i in range(len(fams[u]))) for u in base.objects}
    index = {u: {fam: f"n{i}" for i, fam in enumerate(fams[u])} for u in base.objects}
    restrict = {}
    for f in base.morphisms:
        if base.is_identity(f):
            continue
        u, v = base.tgt[f], base.src[f]
        # per object w: where (f∘g, a) sits in reps[u].value[w], for each (g, a) of reps[v].value[w]
        perms = []
        for w in base.objects:
            pos = {x: i for i, x in enumerate(reps[u].value[w])}
            perms.append([pos[(base.compose(f, g), a)] for g, a in reps[v].value[w]])
        at_v = index[v]
        restrict[f] = {
            f"n{i}": at_v[tuple(tuple(func[p] for p in perm) for func, perm in zip(fam, perms))]
            for i, fam in enumerate(fams[u])
        }
    return presheaf(base, value, restrict)
