"""Sieves, Grothendieck topologies, finite spaces, and their open-cover sites.

Topologies are stored extensionally: every covering sieve is listed, so
``validate_topology`` checks the axioms by full enumeration.  Everything
else decides covering one way: a sieve covers u exactly when it contains
the least covering sieve L(u) (``GrothendieckTopology.least``).
``saturate_topology`` computes L from generating families, and an
open-cover site is the saturation of the least open neighbourhoods.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .config import check_bound, enumeration_bound
from .errors import (
    ApexMismatch,
    CodomainMismatch,
    DanglingReference,
    SemanticError,
)
from .fincat import FinCategory, FrozenRecord, Presheaf, poset_category
from .kernel import down_sets
from .labels import Label, canon, label_key


class Sieve(FrozenRecord):
    __slots__ = ("category", "apex", "arrows", "__dict__")

    def __eq__(self, other):
        return isinstance(other, Sieve) and self.apex == other.apex and self.arrows == other.arrows

    def __hash__(self):
        return hash((self.apex, self.arrows))

    def key(self) -> tuple:
        return self._key

    @cached_property
    def _key(self) -> tuple:
        return (len(self.arrows),) + tuple(label_key(a) for a in self.ordered)

    @cached_property
    def ordered(self) -> tuple[Label, ...]:
        """The arrows in label order, which is the order of ``into(apex)``."""
        arrows = self.arrows
        return tuple(f for f in self.category.into(self.apex) if f in arrows)

    @cached_property
    def presheaf(self) -> Presheaf:
        """The sieve as a subpresheaf of the representable at its apex.

        Built without re-validation.  A sieve is closed under
        precomposition, so for g: V -> W and f in the sieve with domain W,
        f∘g is in the sieve with domain V.  Each value set keeps label
        order.  Identities restrict to identities, and functoriality is
        h∘(f∘g) = (h∘f)∘g, which the validated category already satisfies.
        """
        C = self.category
        value = {v: [] for v in C.objects}
        for f in self.ordered:
            value[C.src[f]].append(f)
        value = {v: tuple(fs) for v, fs in value.items()}
        table = C.table
        restrict = {g: {f: table[(f, g)] for f in value[C.tgt[g]]} for g in C.morphisms}
        return Presheaf(C, value, restrict)


def sieve(category: FinCategory, apex: Label, arrows) -> Sieve:
    """Validate precomposition closure and build the sieve."""
    if apex not in category.object_set:
        raise DanglingReference(f"no object {apex!r}")
    arrows = frozenset(arrows)
    for f in arrows:
        if f not in category.morphism_set:
            raise DanglingReference(f"sieve names unknown morphism {f!r}")
        if category.tgt[f] != apex:
            raise CodomainMismatch(f"{f!r} does not end at {apex!r}")
    for f in arrows:
        for g in category.into(category.src[f]):
            if category.compose(f, g) not in arrows:
                raise SemanticError(
                    f"not a sieve: contains {f!r} but not {f!r}∘{g!r}"
                )
    return Sieve(category, apex, arrows)


def generate_sieve(category: FinCategory, apex: Label, family) -> Sieve:
    """Smallest precomposition-closed set of arrows into apex containing the family."""
    if apex not in category.object_set:
        raise DanglingReference(f"no object {apex!r}")
    family = list(family)
    for f in family:
        if f not in category.morphism_set:
            raise DanglingReference(f"unknown morphism {f!r}")
        if category.tgt[f] != apex:
            raise CodomainMismatch(f"{f!r} does not end at {apex!r}")
    closed = set()
    for f in family:
        for g in category.into(category.src[f]):
            closed.add(category.compose(f, g))
    return Sieve(category, apex, frozenset(closed))


def maximal_sieve(category: FinCategory, apex: Label) -> Sieve:
    """Every arrow into apex.  Built without re-validation: f∘g ends at
    apex whenever f does, so the set is closed under precomposition."""
    if apex not in category.object_set:
        raise DanglingReference(f"no object {apex!r}")
    return Sieve(category, apex, frozenset(category.into(apex)))


def empty_sieve(category: FinCategory, apex: Label) -> Sieve:
    return Sieve(category, apex, frozenset())


def pullback_sieve(category: FinCategory, f: Label, S: Sieve) -> Sieve:
    """f*S = {g into src(f) | f∘g ∈ S} for f: V -> U and S on U."""
    if category.tgt[f] != S.apex:
        raise ApexMismatch(f"{f!r} does not end at the sieve's apex {S.apex!r}")
    v = category.src[f]
    arrows = frozenset(g for g in category.into(v) if category.compose(f, g) in S.arrows)
    return Sieve(category, v, arrows)


def all_sieves(category: FinCategory, apex: Label, bound: int | None = None) -> tuple[Sieve, ...]:
    """Every sieve on apex, canonically ordered: the down-sets of the
    arrows into apex, with the arrows f∘g below f.  The bound still
    counts all 2^n subsets of the arrows.  ``into(apex)`` is in label
    order, so masks ordered by size, then arrow positions, are in
    ``Sieve.key`` order before any sieve is built."""
    C = category
    if apex not in C.object_set:
        raise DanglingReference(f"no object {apex!r}")
    incoming = C.into(apex)
    check_bound(f"sieves on {apex!r}", [2 ** len(incoming)], bound)
    bit = {f: 1 << i for i, f in enumerate(incoming)}
    # a set of distinct bits sums to their union
    below = [sum({bit[C.table[(f, g)]] for g in C.into(C.src[f])}) for f in incoming]
    positions = range(len(incoming))
    members = sorted((m.bit_count(), [i for i in positions if m >> i & 1]) for m in down_sets(below))
    return tuple(Sieve(C, apex, frozenset(incoming[i] for i in held)) for _, held in members)


# -- topologies -----------------------------------------------------------------

class GrothendieckTopology(FrozenRecord):
    __slots__ = ("category", "covers", "__dict__")

    @cached_property
    def _listed(self) -> dict[Label, frozenset]:
        """The covering sieves at each object, as a set."""
        return {u: frozenset(sieves) for u, sieves in self.covers.items()}

    @cached_property
    def least(self) -> dict[Label, Sieve]:
        """The least covering sieve L(u) of each object u: the intersection
        of its listed covering sieves.  For R and S covering u and f in R,
        f*(R ∩ S) = f*S covers, so R ∩ S covers by transitivity; hence L(u)
        covers, and a sieve covers exactly when it contains L(u).  A cover
        table with no sieve at u, or without the intersection, raises
        ``SemanticError`` naming u; ``validate_topology`` never reads this.
        """
        least = {}
        for u in self.category.objects:
            sieves = self.covers.get(u, ())
            if not sieves:
                raise SemanticError(f"no covering sieve is listed at {u!r}")
            least[u] = Sieve(self.category, u, frozenset.intersection(*(S.arrows for S in sieves)))
            if least[u] not in self._listed[u]:
                raise SemanticError(f"the covering sieves at {u!r} are not closed under intersection")
        return least

    def covers_with(self, u: Label, arrows: frozenset) -> bool:
        """Does the sieve on u with these arrows cover?  It does exactly
        when it contains the least covering sieve ``least[u]``."""
        return self.least[u].arrows <= arrows


class TopologyViolation(FrozenRecord, eq=True):
    __slots__ = ("axiom", "at", "detail")


class TopologyReport(FrozenRecord, eq=True):
    __slots__ = ("ok", "violations", "sieves_checked")


def validate_topology(J: GrothendieckTopology, bound: int | None = None) -> TopologyReport:
    """Check maximality, pullback stability, and transitivity by enumeration.

    Violations are report content, not exceptions.
    """
    C = J.category
    if C.objects:  # a category with no objects runs no search and reads no bound
        bound = enumeration_bound(bound)
    listed = J._listed
    violations = []
    checked = 0
    for u in C.objects:
        if u not in J.covers:
            violations.append(TopologyViolation("maximality", u, "object missing from the cover table"))
            continue
        if maximal_sieve(C, u) not in listed[u]:
            violations.append(TopologyViolation("maximality", u, "maximal sieve is not covering"))
    for u in C.objects:
        for S in J.covers.get(u, ()):
            if S.apex != u:
                violations.append(TopologyViolation("well-formed", u, f"sieve with apex {S.apex!r} listed at {u!r}"))
                continue
            for f in C.into(u):
                checked += 1
                pb = pullback_sieve(C, f, S)
                if pb not in listed.get(C.src[f], ()):
                    violations.append(
                        TopologyViolation(
                            "stability", u,
                            f"pullback of a covering sieve along {f!r} is not covering",
                        )
                    )
    for u in C.objects:
        for S in all_sieves(C, u, bound):
            if S in listed.get(u, ()):
                continue
            for R in J.covers.get(u, ()):
                checked += 1
                if all(
                    pullback_sieve(C, f, S) in listed.get(C.src[f], ())
                    for f in R.arrows
                ):
                    violations.append(
                        TopologyViolation(
                            "transitivity", u,
                            f"sieve {sorted(map(str, S.arrows))} is locally covering via "
                            f"{sorted(map(str, R.arrows))} but not listed",
                        )
                    )
                    break
    return TopologyReport(not violations, tuple(violations), checked)


def trivial_topology(category: FinCategory) -> GrothendieckTopology:
    covers = {u: (maximal_sieve(category, u),) for u in category.objects}
    return GrothendieckTopology(category, covers)


def saturate_topology(category: FinCategory, families, bound: int | None = None) -> GrothendieckTopology:
    """The least topology in which the generating families cover.

    ``families`` maps objects to iterables of morphism families; each
    family generates a covering sieve.  The topology is computed as its
    least covering sieves L (``GrothendieckTopology.least``) on arrow
    sets: L(u) starts as the maximal sieve cut by each sieve generated at
    u, and two rules run until nothing changes:

    - stability: L(v) := L(v) ∩ f*L(u) for every f: v -> u;
    - transitivity: L(u) := {f∘g : f ∈ L(u), g ∈ L(src f)}.

    Each step only intersects L(u) with a sieve the axioms force to cover:
    a generated sieve, a pullback of a covering sieve, or a sieve whose
    pullback along each f in the covering L(u) holds the covering L(src f).
    At the fixpoint {S ⊇ L(u)} is a topology: f*S ⊇ f*L(u) ⊇ L(v), and
    if f*S ⊇ L(src f) for every f in L(u), then S holds the transitivity
    sieve, which is L(u).  So it is the least one containing the
    generators, and ``covers[u]`` is the sieves of ``all_sieves`` that
    contain L(u), in its order.
    """
    C = category
    if C.objects:  # a category with no objects runs no search and reads no bound
        bound = enumeration_bound(bound)
    sieves_at = {u: all_sieves(C, u, bound) for u in C.objects}
    least = {u: frozenset(C.into(u)) for u in C.objects}
    for u, fams in families.items():
        if u not in C.object_set:
            raise DanglingReference(f"covering family at unknown object {u!r}")
        for fam in fams:
            least[u] &= generate_sieve(C, u, fam).arrows
    table, src = C.table, C.src
    changed = True
    while changed:
        changed = False
        for f in C.morphisms:
            v, cover = src[f], least[C.tgt[f]]
            stable = frozenset(g for g in least[v] if table[(f, g)] in cover)
            if stable != least[v]:
                least[v], changed = stable, True
        for u in C.objects:
            composed = frozenset(table[(f, g)] for f in least[u] for g in least[src[f]])
            if composed != least[u]:
                least[u], changed = composed, True
    covers = {u: tuple(S for S in sieves_at[u] if least[u] <= S.arrows) for u in C.objects}
    return GrothendieckTopology(C, covers)


# -- finite spaces ------------------------------------------------------------------

class FiniteSpace(FrozenRecord):
    __slots__ = ("points", "opens")


def finite_space(points, opens) -> FiniteSpace:
    pts = canon(points)
    point_set = frozenset(pts)
    fam = {frozenset(o) for o in opens}
    for o in opens:
        for p in o:
            if p not in point_set:
                raise DanglingReference(f"open set names unknown point {p!r}")
    if frozenset() not in fam:
        raise SemanticError("opens must contain the empty set")
    if point_set not in fam:
        raise SemanticError("opens must contain the full point set")
    # label order throughout: comparing raw labels fails on a mix of numbers and strings
    ordered = tuple(sorted(fam, key=lambda o: (len(o), sorted(map(label_key, o)))))
    for a, b in combinations(ordered, 2):
        if a | b not in fam:
            raise SemanticError(
                f"opens not closed under union: {sorted(a, key=label_key)} ∪ {sorted(b, key=label_key)}"
            )
        if a & b not in fam:
            raise SemanticError(
                f"opens not closed under intersection: {sorted(a, key=label_key)} ∩ {sorted(b, key=label_key)}"
            )
    return FiniteSpace(pts, ordered)


def open_label(o: frozenset) -> str:
    return "{" + ",".join(str(p) for p in sorted(o, key=label_key)) + "}"


# -- sites ---------------------------------------------------------------------------

class Site(FrozenRecord):
    __slots__ = ("category", "topology", "space", "open_of", "__dict__")
    _defaults = {"space": None, "open_of": None}

    def is_open_cover_site(self) -> bool:
        return self.space is not None

    @cached_property
    def _overlaps(self) -> dict[tuple[Label, Label], Label]:
        """The memo of ``overlap``: (a, b) -> the label of U_a ∩ U_b."""
        return {}


def open_cover_topology(X: FiniteSpace, bound: int | None = None) -> Site:
    """The inclusion poset of opens with the covering-by-unions topology.

    A sieve covers U when its arrow domains have the union U, that is
    when it holds U_p ⊆ U for every point p of U, U_p the least open
    containing p: a member containing p contains U_p.  So the union
    covers are ``saturate_topology`` of the inclusions U_p ⊆ U.
    """
    labels = {o: open_label(o) for o in X.opens}
    by_label = {labels[o]: o for o in X.opens}
    category = poset_category(
        list(labels.values()),
        lambda a, b: by_label[a] <= by_label[b],
        name=lambda a, b: f"{a}<{b}",
    )
    # opens are closed under intersection, so U_p is one
    least_open = {p: frozenset.intersection(*(o for o in X.opens if p in o)) for p in X.points}
    families = {
        u: [{f"{labels[least_open[p]]}<{u}" for p in by_label[u]}] for u in category.objects
    }
    topology = saturate_topology(category, families, bound)
    return Site(category, topology, X, dict(by_label))


def presheaf_site(category: FinCategory) -> Site:
    """A category with its trivial topology: the ambient presheaf topos."""
    return Site(category, trivial_topology(category))


def slice_site(site: Site, u: Label, bound: int | None = None) -> Site:
    """The open-cover site of the open u, viewed as a space in its own right."""
    if not site.is_open_cover_site():
        raise SemanticError("slicing needs an open-cover site")
    uset = site.open_of[u]
    opens = [o for o in site.space.opens if o <= uset]
    return open_cover_topology(finite_space(tuple(sorted(uset, key=label_key)), opens), bound)


def overlap(site: Site, a: Label, b: Label) -> Label:
    """The pullback object U_a ×_U U_b, realized as the intersection of opens.

    A site is treated as immutable, so each pair's label is computed once
    from ``open_of`` and kept on the site; a pair naming no open raises
    ``KeyError`` on every call."""
    if not site.is_open_cover_site():
        raise SemanticError("overlaps are computed in open-cover sites")
    memo = site._overlaps
    label = memo.get((a, b))
    if label is None:
        label = memo[a, b] = open_label(site.open_of[a] & site.open_of[b])
    return label
