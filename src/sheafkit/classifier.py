"""The subobject classifier, characteristic maps, and Heyting structure.

Omega is realized by J-closed sieves, so one construction serves both
presheaf topoi (trivial topology: every sieve is closed) and sheaf
topoi.  Subobjects are restriction-stable pointwise subsets that are
additionally J-closed; for the trivial topology the closedness condition
is vacuous, and over a sheaf it picks out exactly the subsheaves.
J-closure is decided by the least covering sieves: a section is in the
closure when its restrictions along ``J.least[u]`` all are.

The Heyting operations exist once, on bitmasks of sections
(``MaskAlgebra``).  ``enumerate_subobjects`` lists the closed subobjects
as the J-closed down-sets of the sections under restriction, found by
``kernel.down_sets``; ``heyting`` certifies the operations against that
list, and ``logic.interpret`` evaluates formulas on them.  ``omega``
keeps the closed sieves among ``site.all_sieves``, by the same rule on
arrows: f is in the closure of S when f∘g ∈ S for every g in
``J.least[src f]``.  The same operations on ``Subobject`` parts live in
``tests/naive.py`` as the oracle.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .config import check_bound, enumeration_bound
from .errors import (
    BaseMismatch,
    DanglingReference,
    NotClosedSubobject,
    NotRestrictionStable,
)
from .fincat import FrozenRecord, NaturalTransformation, Presheaf, natural_transformation, presheaf
from .kernel import down_sets
from .labels import Label, label_key
from .limits import SetFun, is_pullback
from .sheaf import terminal_presheaf
from .site import GrothendieckTopology, Sieve, Site, all_sieves, open_label, pullback_sieve


# -- subobjects -----------------------------------------------------------------

class Subobject(FrozenRecord):
    __slots__ = ("ambient", "parts")

    def key(self) -> tuple:
        return tuple(
            (u, tuple(sorted(self.parts[u], key=label_key)))
            for u in self.ambient.base.objects
        )

    def same(self, other: "Subobject") -> bool:
        return self.parts == other.parts

    def leq(self, other: "Subobject") -> bool:
        return all(self.parts[u] <= other.parts[u] for u in self.ambient.base.objects)


def subobject(F: Presheaf, parts) -> Subobject:
    """Validate restriction stability."""
    base = F.base
    full: dict[Label, frozenset] = {}
    for u in base.objects:
        chosen = frozenset(parts.get(u, ()))
        sections = set(F.value[u])
        for x in chosen:
            if x not in sections:
                raise DanglingReference(f"part at {u!r} names unknown section {x!r}")
        full[u] = chosen
    for u in parts:
        if u not in base.object_set:
            raise DanglingReference(f"part at unknown object {u!r}")
    for f in base.morphisms:
        u, v = base.tgt[f], base.src[f]
        for x in full[u]:
            if F.restrict[f][x] not in full[v]:
                raise NotRestrictionStable(
                    f"{x!r} lies in the part at {u!r} but its restriction along {f!r} escapes"
                )
    return Subobject(F, full)


def is_closed(J: GrothendieckTopology, A: Subobject) -> bool:
    """No section outside A has a covering truth sieve.  The truth sieve
    of x covers exactly when it contains ``J.least[u]``, that is when x
    restricts into A along every arrow of ``J.least[u]``."""
    F = A.ambient
    src, restrict, parts = F.base.src, F.restrict, A.parts
    for u in F.base.objects:
        for x in F.value[u]:
            if x not in parts[u] and all(restrict[f][x] in parts[src[f]] for f in J.least[u].arrows):
                return False
    return True


def enumerate_subobjects(
    J: GrothendieckTopology, F: Presheaf, bound: int | None = None
) -> tuple[Subobject, ...]:
    """All J-closed restriction-stable subobjects, canonically ordered:
    the closed down-sets of the sections under restriction."""
    algebra, masks = _closed_masks(J, F, bound)
    return tuple(Subobject(F, algebra.parts(m)) for m in masks)


def _closed_masks(
    J: GrothendieckTopology, F: Presheaf, bound: int | None
) -> tuple["MaskAlgebra", tuple[int, ...]]:
    """The mask algebra of F and its closed down-sets, in label order part
    by part.  The bound counts every pointwise subset, as the down-sets
    may be all of them."""
    if not F.base.same(J.category):
        raise BaseMismatch("presheaf and topology live over different categories")
    sizes = [len(F.value[u]) for u in F.base.objects]
    check_bound("subobjects", (2 ** n for n in sizes), bound)
    algebra = MaskAlgebra(J, F)
    # bits run object by object, each in section order, which is label order
    blocks = [(sum(sizes[:k]), n) for k, n in enumerate(sizes)]

    def ranks(m):
        return [[i for i in range(n) if m >> start + i & 1] for start, n in blocks]

    return algebra, tuple(sorted(filter(algebra.is_closed, down_sets(algebra.below)), key=ranks))


# -- Omega ------------------------------------------------------------------------

class OmegaObject(FrozenRecord):
    __slots__ = (
        "site",
        "presheaf",
        "terminal",
        "truth",
        "sieves",  # object -> element label -> closed sieve
        "__dict__",
    )

    def truth_label(self, u: Label) -> Label:
        return self.truth.components[u][()]

    @cached_property
    def true_maps(self) -> dict[Label, SetFun]:
        """true at each object as a set function {()} -> Omega(U).  Built
        without re-validation: () goes to the truth label, a section."""
        value = self.presheaf.value
        return {u: SetFun(((),), value[u], {(): self.truth_label(u)}) for u in value}


def omega(site: Site, bound: int | None = None) -> OmegaObject:
    """Omega(U) = J-closed sieves on U; restriction is sieve pullback;
    true picks the maximal sieve.

    The sieves on U are ``all_sieves(C, U)``, in ``Sieve.key`` order, and
    the closed ones are kept: f: V -> U outside S is in its closure when
    f∘g ∈ S for every g in J.least[V], that is when f*S covers.  The
    bound counts all 2^n sets of arrows into U."""
    C, J = site.category, site.topology
    if C.objects:  # a category with no objects runs no search and reads no bound
        bound = enumeration_bound(bound)
    closed: dict[Label, dict[Label, Sieve]] = {}
    for u in C.objects:
        sieves = all_sieves(C, u, bound)  # the bound is checked before J.least is read
        # each f into u with {f∘g : g in L(src f)}: S holding it puts f in the closure
        covered = [(f, {C.table[(f, g)] for g in J.least[C.src[f]].arrows}) for f in C.into(u)]
        closed[u] = {S.ordered: S for S in sieves if not any(f not in S.arrows and fl <= S.arrows for f, fl in covered)}
    value = {u: tuple(sorted(closed[u], key=label_key)) for u in C.objects}
    restrict = {
        f: {lbl: pullback_sieve(C, f, closed[C.tgt[f]][lbl]).ordered for lbl in value[C.tgt[f]]}
        for f in C.morphisms if not C.is_identity(f)
    }
    om = presheaf(C, value, restrict)
    one = terminal_presheaf(C)
    truth = natural_transformation(one, om, {u: {(): C.into(u)} for u in C.objects})
    return OmegaObject(site, om, one, truth, closed)


class OmegaOpenIso(FrozenRecord, eq=True):
    __slots__ = (
        "ok",
        "table",  # object -> (truth value, open) pairs
        "detail",
    )


def omega_open_iso(om: OmegaObject) -> OmegaOpenIso:
    """Certified order-isomorphism Omega(U) ≅ {opens contained in U} on open-cover sites."""
    site = om.site
    if not site.is_open_cover_site():
        return OmegaOpenIso(False, {}, "not an open-cover site")
    C = site.category
    table = {}
    for u in C.objects:
        uset = site.open_of[u]
        opens_below = {open_label(o) for o in site.space.opens if o <= uset}
        assigned = {}
        for lbl in om.presheaf.value[u]:
            S = om.sieves[u][lbl]
            union = set()
            for f in S.arrows:
                union |= site.open_of[C.src[f]]
            assigned[lbl] = open_label(frozenset(union))
        if set(assigned.values()) != opens_below or len(set(assigned.values())) != len(assigned):
            return OmegaOpenIso(False, {}, f"not a bijection at {u!r}")
        for l1, S1 in om.sieves[u].items():
            for l2, S2 in om.sieves[u].items():
                # open labels are the object labels of the opens poset
                o1 = site.open_of.get(assigned[l1])
                o2 = site.open_of.get(assigned[l2])
                if (S1.arrows <= S2.arrows) != (o1 <= o2):
                    return OmegaOpenIso(False, {}, f"order not preserved at {u!r}")
        table[u] = tuple(sorted(assigned.items(), key=lambda kv: label_key(kv[0])))
    return OmegaOpenIso(True, table, "")


# -- classification -----------------------------------------------------------------

def characteristic(om: OmegaObject, A: Subobject) -> NaturalTransformation:
    """chi_A(x) = the sieve of arrows pulling x into A; requires A closed."""
    J = om.site.topology
    if not is_closed(J, A):
        raise NotClosedSubobject("characteristic maps classify J-closed subobjects")
    F = A.ambient
    into, src, restrict, parts = F.base.into, F.base.src, F.restrict, A.parts
    # each label is the truth sieve of x, in into order, which is label order
    comps = {
        u: {x: tuple(f for f in into(u) if restrict[f][x] in parts[src[f]]) for x in F.value[u]}
        for u in F.base.objects
    }
    return natural_transformation(F, om.presheaf, comps)


def pullback_of_truth(om: OmegaObject, chi: NaturalTransformation) -> Subobject:
    F = chi.source
    parts = {
        u: frozenset(x for x in F.value[u] if chi.components[u][x] == om.truth_label(u))
        for u in F.base.objects
    }
    return subobject(F, parts)


def characteristic_square_is_pullback(om: OmegaObject, A: Subobject, chi: NaturalTransformation) -> bool:
    """Pointwise: A(U) with (inclusion, !) is the pullback of chi against true.

    The four set functions of each square are built without
    re-validation: chi's component is a validated map F(U) -> Omega(U),
    the apex is A(U) in label order, filtered from F(U), and the
    inclusion and the map to {()} are total on it.  ``is_pullback``
    still compares the square with the canonical pullback exhaustively.
    """
    F = A.ambient
    omega_value = om.presheaf.value
    for u in F.base.objects:
        chi_u = SetFun(F.value[u], omega_value[u], chi.components[u])
        part = A.parts[u]
        apex = tuple(x for x in F.value[u] if x in part)
        pa = SetFun(apex, F.value[u], {x: x for x in apex})
        pb = SetFun(apex, ((),), {x: () for x in apex})
        if not is_pullback(apex, pa, pb, chi_u, om.true_maps[u]):
            return False
    return True


class ClassifyReport(FrozenRecord, eq=True):
    __slots__ = ("ok", "subobjects", "arrows", "failures")


def classify_round_trip(site: Site, X: Presheaf, bound: int | None = None) -> ClassifyReport:
    """Sub(X) ≅ Hom(X, Omega) by characteristic / pullback-of-true, exhaustively."""
    from .fincat import enumerate_naturals

    bound = enumeration_bound(bound)
    om = omega(site, bound)
    J = site.topology
    subs = enumerate_subobjects(J, X, bound)
    homs = enumerate_naturals(X, om.presheaf, bound)
    backs = [pullback_of_truth(om, phi) for phi in homs]
    objects = X.base.objects
    pulled = Counter(tuple(back.parts[u] for u in objects) for back in backs)
    failures = []
    for A in subs:
        chi = characteristic(om, A)
        back = pullback_of_truth(om, chi)
        if not back.same(A):
            failures.append(f"pullback of true does not recover the subobject {A.key()}")
        if not characteristic_square_is_pullback(om, A, chi):
            failures.append(f"characteristic square is not a pullback for {A.key()}")
        hits = pulled[tuple(A.parts[u] for u in objects)]
        if hits != 1:
            failures.append(f"{hits} arrows classify {A.key()}; expected exactly one")
    for phi, back in zip(homs, backs):
        chi = characteristic(om, back)
        if not chi.same(phi):
            failures.append("an arrow into Omega is not the characteristic of its pullback")
    if len(subs) != len(homs):
        failures.append(f"|Sub(X)| = {len(subs)} but |Hom(X, Omega)| = {len(homs)}")
    return ClassifyReport(not failures, len(subs), len(homs), tuple(failures))


# -- the Heyting algebra of subobjects ----------------------------------------------

class MaskAlgebra:
    """The Heyting algebra of J-closed subobjects of ``ambient``, on node masks.

    Each node (u, x), a section x of the ambient presheaf at object u, owns
    one bit, numbered by ``node_index`` in object order and then section
    order; ``nodes`` lists the nodes by bit.  A subobject is the mask of
    the nodes in its parts.  Two tables, one entry per node (u, x), each
    built on first use, turn the operations into bit arithmetic:

    - ``below``: the mask of x's restrictions along every arrow into u;
    - ``covering``: the mask of x's restrictions along the arrows of the
      least covering sieve ``J.least[u]``.

    Meet is ``a & b``.  Closure keeps the nodes whose ``covering`` entry
    ``r`` has ``r & ~m == 0``: the truth sieve of x contains ``J.least[u]``.
    Join is the closure of ``a | b``.  Implication keeps the nodes with
    ``below & a & ~b == 0``, negation is implication into ``bottom``, the
    closure of 0, and ``top`` is every node.

    On restriction-stable masks every operation gives a restriction-stable
    mask: intersections and unions of stable parts are stable; if x is
    kept by an implication, every restriction of a restriction of x is a
    restriction of x, so the restrictions of x are kept too; and for
    f: V -> U the truth sieve of F(f)(x) is the pullback along f of the
    truth sieve of x, so by pullback stability of J the closure keeps
    F(f)(x) when it keeps x.  Nothing here enumerates Sub(F), so the
    algebra serves any presheaf: ``enumerate_subobjects`` runs
    ``kernel.down_sets`` on ``below`` and keeps the closed masks,
    ``heyting`` certifies the operations against that list, and
    ``logic.interpret`` runs on it over each context product.
    """

    def __init__(self, J: GrothendieckTopology, F: Presheaf):
        self.topology = J
        self.ambient = F
        self.nodes = tuple((u, x) for u in F.base.objects for x in F.value[u])
        self.node_index = {node: bit for bit, node in enumerate(self.nodes)}
        self.top = (1 << len(self.nodes)) - 1

    def _restrictions(self, x: Label, arrows) -> int:
        F, node_index = self.ambient, self.node_index
        m = 0
        for f in arrows:
            m |= 1 << node_index[(F.base.src[f], F.restrict[f][x])]
        return m

    @cached_property
    def below(self) -> tuple[int, ...]:
        into = self.ambient.base.into
        return tuple(self._restrictions(x, into(u)) for u, x in self.nodes)

    @cached_property
    def covering(self) -> tuple[int, ...]:
        least = self.topology.least
        return tuple(self._restrictions(x, least[u].arrows) for u, x in self.nodes)

    def mask(self, A: Subobject) -> int:
        m = 0
        for u, part in A.parts.items():
            for x in part:
                m |= 1 << self.node_index[(u, x)]
        return m

    def mask_where(self, keep) -> int:
        """The mask of the nodes (u, x) with ``keep(u, x)``."""
        m = 0
        for bit, (u, x) in enumerate(self.nodes):
            if keep(u, x):
                m |= 1 << bit
        return m

    def parts(self, m: int) -> dict[Label, frozenset]:
        """The parts of the mask ``m``, one per object in object order."""
        found = {u: [] for u in self.ambient.base.objects}
        for bit, (u, x) in enumerate(self.nodes):
            if m >> bit & 1:
                found[u].append(x)
        return {u: frozenset(xs) for u, xs in found.items()}

    def _close(self, m: int) -> int:
        closed, bit = 0, 1
        for r in self.covering:
            if not r & ~m:
                closed |= bit
            bit <<= 1
        return closed

    def is_closed(self, m: int) -> bool:
        return self._close(m) == m

    def closure(self, m: int) -> int:
        """J-closure of a mask.  A single pass suffices; a fixpoint assertion guards it."""
        closed = self._close(m)
        assert self.is_closed(closed), "closure is not idempotent; topology not saturated?"
        return closed

    def implies(self, a: int, b: int) -> int:
        escapes = a & ~b
        kept, bit = 0, 1
        for d in self.below:
            if not d & escapes:
                kept |= bit
            bit <<= 1
        return kept

    @cached_property
    def bottom(self) -> int:
        return self.closure(0)


class SubobjectLattice(FrozenRecord, eq=True):
    """The Heyting algebra of J-closed subobjects, certified element by element.

    ``algebra`` computes every operation on masks.  ``elements`` is
    ``enumerate_subobjects``: every down-set of the sections under
    restriction that is J-closed, which is exactly the restriction-stable,
    J-closed subobjects, and ``masks[i]`` is the mask of ``elements[i]``.
    Every result is looked up in ``index`` (mask -> element), and a mask
    outside it raises ``KeyError`` rather than being rounded to a
    neighbour.  So each result is certified a closed, restriction-stable
    subobject by membership alone.  The tests compare every entry with
    the same operations computed on parts, the oracle in ``tests/naive.py``.
    """

    __slots__ = (
        "algebra",
        "elements",
        "masks",
        "index",  # mask -> position in elements
    )

    def meet(self, i: int, j: int) -> int:
        return self.index[self.masks[i] & self.masks[j]]

    def join(self, i: int, j: int) -> int:
        return self.index[self.algebra.closure(self.masks[i] | self.masks[j])]

    def implies(self, i: int, j: int) -> int:
        return self.index[self.algebra.implies(self.masks[i], self.masks[j])]

    def neg(self, i: int) -> int:
        return self.index[self.algebra.implies(self.masks[i], self.algebra.bottom)]

    @property
    def top(self) -> int:
        return self.index[self.algebra.top]

    @property
    def bottom(self) -> int:
        return self.index[self.algebra.bottom]


def heyting(site: Site, F: Presheaf, bound: int | None = None) -> SubobjectLattice:
    algebra, masks = _closed_masks(site.topology, F, bound)
    subs = tuple(Subobject(F, algebra.parts(m)) for m in masks)
    return SubobjectLattice(algebra, subs, masks, {m: i for i, m in enumerate(masks)})


class HeytingReport(FrozenRecord, eq=True):
    __slots__ = ("ok", "size", "checks", "excluded_middle_fails", "double_negation_strict", "witnesses")


def heyting_report(site: Site, F: Presheaf, bound: int | None = None) -> HeytingReport:
    """All Heyting axioms by enumeration, plus the intuitionistic witnesses."""
    bound = enumeration_bound(bound)
    lat = heyting(site, F, bound)
    n = len(lat.elements)
    check_bound("Heyting triples", [n ** 3], bound)
    rng = range(n)
    meet = [[lat.meet(i, j) for j in rng] for i in rng]
    join = [[lat.join(i, j) for j in rng] for i in rng]
    imp = [[lat.implies(i, j) for j in rng] for i in rng]
    neg = [lat.neg(i) for i in rng]
    top, bot = lat.top, lat.bottom

    checks = []
    checks.append(("commutativity", all(meet[i][j] == meet[j][i] and join[i][j] == join[j][i] for i in rng for j in rng)))
    checks.append(("idempotence", all(meet[i][i] == i and join[i][i] == i for i in rng)))
    checks.append(("absorption", all(meet[i][join[i][j]] == i and join[i][meet[i][j]] == i for i in rng for j in rng)))
    checks.append(("associativity", all(
        meet[meet[i][j]][k] == meet[i][meet[j][k]] and join[join[i][j]][k] == join[i][join[j][k]]
        for i in rng for j in rng for k in rng
    )))
    checks.append(("bounds", all(meet[i][top] == i and join[i][bot] == i for i in rng)))
    checks.append(("distributivity", all(
        meet[i][join[j][k]] == join[meet[i][j]][meet[i][k]]
        for i in rng for j in rng for k in rng
    )))
    masks = lat.masks
    outside = [~m for m in masks]
    checks.append(("adjunction", all(
        (masks[meet[c][a]] & outside[b] == 0) == (masks[c] & outside[imp[a][b]] == 0)
        for a in rng for b in rng for c in rng
    )))
    checks.append(("implication-self", all(imp[i][i] == top for i in rng)))
    checks.append(("negation-definition", all(neg[i] == imp[i][bot] for i in rng)))
    checks.append(("double-negation-inflation", all(masks[i] & outside[neg[neg[i]]] == 0 for i in rng)))

    em_fails = [i for i in rng if join[i][neg[i]] != top]
    dn_strict = [i for i in rng if neg[neg[i]] != i]
    witnesses = []
    if em_fails:
        witnesses.append(f"A ∨ ¬A ≠ ⊤ at subobject #{em_fails[0]}")
    if dn_strict:
        witnesses.append(f"¬¬A > A at subobject #{dn_strict[0]}")
    ok = all(flag for _, flag in checks)
    return HeytingReport(ok, n, tuple(checks), bool(em_fails), bool(dn_strict), tuple(witnesses))
