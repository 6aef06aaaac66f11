"""Matching families, the sheaf condition, gluing, sheafification,
terminal and product presheaves, and exponentials.

A matching family over a sieve is the same thing as a natural
transformation out of the sieve viewed as a subpresheaf of the
representable, so the enumeration kernel does the heavy lifting here
too.  Sheafification is the plus construction applied twice; each
application reads F+(U) off the matching families over the least
covering sieve of U.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from operator import getitem, itemgetter

from .config import check_bound, enumeration_bound
from .errors import (
    BaseMismatch,
    DanglingReference,
    IncompatibleFamily,
    NoSuchFamily,
    NotASheafHere,
    SemanticError,
)
from .fincat import (
    FinCategory,
    FrozenRecord,
    NaturalTransformation,
    Presheaf,
    check_pairs,
    compose_naturals,
    natural_index_families,
    natural_transformation,
    presheaf,
    yoneda_presheaf,
)
from .labels import Label
from .site import GrothendieckTopology, Sieve, generate_sieve


class MatchingFamily(FrozenRecord):
    """A value ``assignment[f]`` of the presheaf at the domain of each
    arrow f of the sieve.

    ``matching_families`` builds one per family, all of them at once
    with ``FrozenRecord.bulk``.
    """

    __slots__ = ("presheaf", "sieve", "assignment")

    def key(self) -> tuple:
        """(arrow, value) pairs in the label order of the arrows.  Every
        constructor assigns exactly the arrows of the sieve."""
        a = self.assignment
        return tuple((f, a[f]) for f in self.sieve.ordered)

    def same(self, other: "MatchingFamily") -> bool:
        return self.sieve == other.sieve and self.assignment == other.assignment


def matching_family(F: Presheaf, S: Sieve, assignment) -> MatchingFamily:
    """Validate compatibility: m(f∘g) == F(g)(m(f)) for every f in S and composable g.

    It is checked for every f in S and every generator g of the base into
    src f (``check_pairs``), which proves it for every g.  An identity g
    holds because F(id) is the identity.  Otherwise g = g'∘e with e a
    generator and g' shorter; S is closed under precomposition, so f∘g'
    is in S, and m(f∘g) = m((f∘g')∘e) = F(e)(m(f∘g')) = F(e)(F(g')(m(f)))
    = F(g'∘e)(m(f)), by the generator pair, by induction, and because F
    is a presheaf.  The arrows of S are walked in label order
    (``S.ordered``), so the first failure named does not depend on how
    the frozenset ``S.arrows`` iterates.
    """
    C = F.base
    if not C.same(S.category):
        raise BaseMismatch("sieve and presheaf live over different categories")
    assignment = dict(assignment)
    sections = {u: set(F.value[u]) for u in C.objects}
    for f in S.ordered:
        if f not in assignment:
            raise IncompatibleFamily(f"family misses the arrow {f!r}")
        if assignment[f] not in sections[C.src[f]]:
            raise IncompatibleFamily(f"value at {f!r} is not a section over its domain")
    for f in assignment:
        if f not in S.arrows:
            raise IncompatibleFamily(f"family assigns to {f!r} outside the sieve")

    def compatibility(inner):
        for f in S.ordered:
            for g in inner(C.src[f]):
                fg = C.compose(f, g)
                if assignment[fg] != F.restrict[g][assignment[f]]:
                    raise IncompatibleFamily(
                        f"family disagrees along {g!r}: m({f!r}∘{g!r}) != m({f!r})|{g!r}"
                    )

    check_pairs(C, compatibility)
    return MatchingFamily(F, S, assignment)


def matching_families(F: Presheaf, S: Sieve, bound: int | None = None) -> tuple[MatchingFamily, ...]:
    """All matching families for F over S, canonically ordered.

    They are the natural maps out of the sieve presheaf, read straight off
    the kernel's index families: the arrow f sits at its position in
    ``sp.value[src f]``, and its value's index is its position in
    ``F.value[src f]``, which is its section rank.  Flattened, a family
    lists the value index of every arrow in slot order.
    """
    sp = S.presheaf
    C = F.base
    arrows = [f for w in C.objects for f in sp.value[w]]
    values = [F.value[C.src[f]] for f in arrows]
    flats = [tuple(chain.from_iterable(fam)) for fam in natural_index_families(sp, F, bound)]
    if arrows:
        # in label order of their values, arrow by arrow
        at = {f: i for i, f in enumerate(arrows)}
        flats.sort(key=itemgetter(*[at[f] for f in S.ordered]))
    assignments = [dict(zip(arrows, map(getitem, values, flat))) for flat in flats]
    return MatchingFamily.bulk(len(assignments), repeat(F), repeat(S), assignments)


def induced_family(F: Presheaf, S: Sieve, x: Label) -> MatchingFamily:
    """The family f |-> F(f)(x) induced by a section x over the apex."""
    if x not in F.value[S.apex]:
        raise DanglingReference(f"{x!r} is not a section over {S.apex!r}")
    return MatchingFamily(F, S, {f: F.restrict[f][x] for f in S.ordered})


def family_from_cover(site, F: Presheaf, u: Label, sections: dict) -> tuple[Sieve, MatchingFamily]:
    """Extend sections on a cover to the generated sieve.

    Every arrow of the generated sieve factors through a cover member;
    the extension is well defined exactly when the sections agree on
    overlaps, and IncompatibleFamily names the first disagreement in the
    label order of the sieve's arrows, which is also the order of the
    assignment.
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
    for f in S.ordered:
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

class SheafFailure(FrozenRecord, eq=True):
    __slots__ = (
        "at",
        "sieve",
        "kind",  # "separation" | "gluing"
        "sections",
        "families",
        "witness",
    )


class SheafReport(FrozenRecord, eq=True):
    __slots__ = ("ok", "failures", "pairs_checked")


def is_sheaf(F: Presheaf, J: GrothendieckTopology, bound: int | None = None) -> SheafReport:
    """Check that sections biject with matching families for every covering sieve.

    It is enough to check the least covering sieves.  If F is a sheaf
    for L(v) = ``J.least[v]`` at every object v, and f∘g lies in L(u)
    for every arrow f: V -> u and every g in L(V), then F is a sheaf for
    every sieve S at u that contains L(u), which every listed one does.
    Separation: two sections that agree on S agree on L(u).  Gluing: a
    family m on S restricts to a family on L(u), which glues to some x;
    for f: V -> u in S, x·f and m(f) agree along every g in L(V), since
    (x·f)·g = x·(f∘g) = m(f∘g) = m(f)·g, so they are equal by separation
    on L(V).  This is the sheaf condition for a basis (Mac Lane and
    Moerdijk, *Sheaves in Geometry and Logic*, III.4).

    The condition on L is the guard, checked on arrow sets
    (``_least_is_a_basis``); a saturated or trivial topology always
    passes it.  When the guard fails, ``least`` raises, or some L(u)
    fails, every listed sieve is walked in order, so the report lists
    the same failures.  ``pairs_checked`` counts the listed sieves
    either way, and the bound is checked for each of them, in walk
    order, before any search.
    """
    C = F.base
    if not C.same(J.category):
        raise BaseMismatch("presheaf and topology live over different categories")
    if C.objects:  # a category with no objects runs no search and reads no bound
        bound = enumeration_bound(bound)
    listed = [(u, S) for u in C.objects for S in J.covers[u]]
    for _, S in listed:
        # the factors natural_index_families(S.presheaf, F) checks
        arity = Counter(C.src[f] for f in S.ordered)
        check_bound("natural transformations", (len(F.value[w]) ** arity[w] for w in C.objects), bound)
    rank = {w: {x: i for i, x in enumerate(F.value[w])} for w in C.objects}
    if _least_is_a_basis(J) and not any(_sieve_failures(F, u, J.least[u], rank, bound) for u in C.objects):
        return SheafReport(True, (), len(listed))
    failures = []
    for u, S in listed:
        failures += _sieve_failures(F, u, S, rank, bound)
    return SheafReport(not failures, tuple(failures), len(listed))


def _least_is_a_basis(J: GrothendieckTopology) -> bool:
    """Does every sieve listed at u have apex u, and f∘g lie in L(u) for
    every arrow f: V -> u and every g in L(V)?  False when ``least`` raises."""
    C = J.category
    try:
        least = J.least
    except SemanticError:
        return False
    table = C.table
    for u in C.objects:
        if any(S.apex != u for S in J.covers[u]):
            return False
        at_u = least[u].arrows
        for f in C.into(u):
            if any(table[(f, g)] not in at_u for g in least[C.src[f]].arrows):
                return False
    return True


def _sieve_failures(F: Presheaf, u: Label, S: Sieve, rank, bound) -> list[SheafFailure]:
    """The separation and gluing failures of F on the sieve S at u.

    Matching families stay the kernel's index families of
    ``natural_index_families(S.presheaf, F)``: one tuple per object w,
    holding the section rank of the value at each arrow of S from w.  A
    section x induces the family whose entry at f is the rank of x·f.
    """
    sp = S.presheaf
    families = natural_index_families(sp, F, bound)
    slots = [(rank[w], [F.restrict[f] for f in sp.value[w]]) for w in F.base.objects]
    induced = {}
    at_apex = rank[S.apex]
    for x in F.value[u]:
        if x not in at_apex:  # S is listed under an object other than its apex
            raise DanglingReference(f"{x!r} is not a section over {S.apex!r}")
        key = tuple(tuple(at[r[x]] for r in along) for at, along in slots)
        induced.setdefault(key, []).append(x)
    failures = []
    xs = next((xs for xs in induced.values() if len(xs) > 1), None)
    if xs:
        failures.append(
            SheafFailure(
                u, S, "separation", len(F.value[u]), len(families),
                f"sections {xs[0]!r} and {xs[1]!r} induce the same family",
            )
        )
    missing = sum(fam not in induced for fam in families)
    if missing:
        failures.append(
            SheafFailure(
                u, S, "gluing", len(F.value[u]), len(families),
                f"{missing} families glue to no section",
            )
        )
    return failures


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

def plus_construction(
    F: Presheaf, J: GrothendieckTopology, bound: int | None = None
) -> tuple[Presheaf, NaturalTransformation]:
    """One application of the plus construction.

    F+(U) is the colimit over covering sieves R of U of Match(R, F), two
    families identified when they agree on a covering sieve inside both.
    With L(U) = ``J.least[U]``, the least covering sieve, it is
    Match(L(U), F).  Every class holds a family on L(U): restrict any
    member to L(U), which lies inside its sieve.  It holds only one: two
    families on L(U) that agree on a covering R ⊆ L(U) have R = L(U).

    Class ``p{i}`` is the i-th family of ``matching_families(F, L(U))``.
    That is the order of the least (sieve key, section ranks) member of
    each class, the canonical order of the colimit: L(U) has strictly
    fewer arrows than any other covering sieve of U, and
    ``matching_families`` lists families in rank order.  For f: V -> U,
    f*L(U) covers V, so it contains L(V), and the class of m restricts to
    the family g |-> m(f∘g) on L(V).  The unit sends x to the family it
    induces on L(U).
    """
    if not F.base.same(J.category):
        raise BaseMismatch("presheaf and topology live over different categories")
    C = F.base
    if C.objects:  # a category with no objects runs no search and reads no bound
        bound = enumeration_bound(bound)
    least = J.least
    fams = {u: matching_families(F, least[u], bound) for u in C.objects}
    label_of = {u: {m.key(): f"p{i}" for i, m in enumerate(fams[u])} for u in C.objects}

    value = {u: tuple(f"p{i}" for i in range(len(fams[u]))) for u in C.objects}
    restrict = {}
    for f in C.morphisms:
        if C.is_identity(f):
            continue
        u, v = C.tgt[f], C.src[f]
        at_v = least[v].ordered
        restrict[f] = {
            f"p{i}": label_of[v][tuple((g, m.assignment[C.compose(f, g)]) for g in at_v)]
            for i, m in enumerate(fams[u])
        }
    plus = presheaf(C, value, restrict)

    unit_components = {
        u: {x: label_of[u][induced_family(F, least[u], x).key()] for x in F.value[u]}
        for u in C.objects
    }
    unit = natural_transformation(F, plus, unit_components)
    return plus, unit


def sheafify(
    F: Presheaf, J: GrothendieckTopology, bound: int | None = None
) -> tuple[Presheaf, NaturalTransformation]:
    """Apply the plus construction twice; the unit is the composite map."""
    if F.base.objects:  # a category with no objects runs no search and reads no bound
        bound = enumeration_bound(bound)
    once, u1 = plus_construction(F, J, bound)
    twice, u2 = plus_construction(once, J, bound)
    return twice, compose_naturals(u2, u1)


def terminal_presheaf(base: FinCategory) -> Presheaf:
    """One section () everywhere.  Built without re-validation: every
    restriction is the identity of {()}, so functoriality is immediate."""
    value = {u: ((),) for u in base.objects}
    restrict = {f: {(): ()} for f in base.morphisms}
    return Presheaf(base, value, restrict)


def product_presheaf(F: Presheaf, G: Presheaf) -> Presheaf:
    """Pointwise product; elements are (x, y) pairs.

    Built without re-validation.  Both factors list their sections in
    label order, so the pairs come out in label order.  Restriction acts
    componentwise, so identities and composites are respected because
    they are in each validated factor.
    """
    if not F.base.same(G.base):
        raise BaseMismatch("factors live over different bases")
    base = F.base
    value = {u: tuple((x, y) for x in F.value[u] for y in G.value[u]) for u in base.objects}
    restrict = {}
    for f in base.morphisms:
        rf, rg = F.restrict[f], G.restrict[f]
        restrict[f] = {(x, y): (rf[x], rg[y]) for (x, y) in value[base.tgt[f]]}
    return Presheaf(base, value, restrict)


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
    if base.objects:  # a category with no objects runs no search and reads no bound
        bound = enumeration_bound(bound)
    reps: dict[Label, Presheaf] = {u: product_presheaf(yoneda_presheaf(base, u), A) for u in base.objects}
    fams = {u: natural_index_families(reps[u], B, bound) for u in base.objects}

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
