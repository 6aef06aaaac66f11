"""Sheaves of groups, torsors, cocycles, descent gluing, and the
internal characterization of torsors.

Covers are finite families of opens; overlaps are intersections, which
in the opens poset are the pullbacks.  The change-of-trivialization
relation is g'_ij = h_i^-1 · g_ij · h_j, the unique relation compatible
with the section-change calculation for s_j = s_i · g_ij.
"""

from __future__ import annotations

from itertools import product

from .config import check_bound, enumeration_bound
from .errors import (
    BaseMismatch,
    CoverMismatch,
    DanglingReference,
    InvalidCocycle,
    NotUniquelyTransitive,
    SemanticError,
)
from .fincat import FrozenRecord, Presheaf, presheaf
from .labels import Label, label_key
from .sheaf import is_sheaf
from .site import Site, overlap, slice_site


# -- groups --------------------------------------------------------------------

class GroupSheaf(FrozenRecord):
    __slots__ = ("sections", "mult", "unit", "inverse")

    def mul(self, u: Label, a: Label, b: Label) -> Label:
        return self.mult[u][(a, b)]

    def inv(self, u: Label, a: Label) -> Label:
        return self.inverse[u][a]


def group_sheaf(G: Presheaf, mult, unit=None, inverse=None) -> GroupSheaf:
    """Validate per-object group axioms and homomorphy of restrictions."""
    base = G.base
    mult = {u: dict(tab) for u, tab in mult.items()}
    for u in base.objects:
        elems = G.value[u]
        if u not in mult:
            if len(elems) <= 1:
                mult[u] = {(a, b): a for a in elems for b in elems}
            else:
                raise DanglingReference(f"group table missing at {u!r}")
        tab = mult[u]
        elem_set = set(elems)
        for a in elems:
            for b in elems:
                if (a, b) not in tab:
                    raise DanglingReference(f"product {a!r}·{b!r} missing at {u!r}")
                if tab[(a, b)] not in elem_set:
                    raise DanglingReference(f"product {a!r}·{b!r} escapes the section set at {u!r}")
        for a in elems:
            for b in elems:
                for c in elems:
                    if tab[(tab[(a, b)], c)] != tab[(a, tab[(b, c)])]:
                        raise SemanticError(f"associativity fails at {u!r} on ({a!r},{b!r},{c!r})")

    units: dict[Label, Label] = dict(unit or {})
    for u in base.objects:
        elems = G.value[u]
        if u not in units:
            found = [e for e in elems if all(
                mult[u][(e, a)] == a and mult[u][(a, e)] == a for a in elems
            )]
            if len(found) != 1:
                raise SemanticError(f"no unique unit at {u!r}")
            units[u] = found[0]
        else:
            e = units[u]
            if e not in elems or any(mult[u][(e, a)] != a or mult[u][(a, e)] != a for a in elems):
                raise SemanticError(f"declared unit at {u!r} is not a unit")

    invs: dict[Label, dict[Label, Label]] = {u: dict(tab) for u, tab in (inverse or {}).items()}
    for u in base.objects:
        elems = G.value[u]
        tab = invs.setdefault(u, {})
        for a in elems:
            if a not in tab:
                found = [b for b in elems if mult[u][(a, b)] == units[u] and mult[u][(b, a)] == units[u]]
                if len(found) != 1:
                    raise SemanticError(f"no unique inverse for {a!r} at {u!r}")
                tab[a] = found[0]
            else:
                b = tab[a]
                if mult[u][(a, b)] != units[u] or mult[u][(b, a)] != units[u]:
                    raise SemanticError(f"declared inverse of {a!r} at {u!r} is wrong")

    for f in base.morphisms:
        u, v = base.tgt[f], base.src[f]
        r = G.restrict[f]
        for a in G.value[u]:
            for b in G.value[u]:
                if r[mult[u][(a, b)]] != mult[v][(r[a], r[b])]:
                    raise SemanticError(f"restriction along {f!r} is not a homomorphism")
        if G.value[u] and r[units[u]] != units[v]:
            raise SemanticError(f"restriction along {f!r} moves the unit")
    return GroupSheaf(G, mult, units, invs)


# -- torsor candidates ------------------------------------------------------------

class TorsorCandidate(FrozenRecord):
    __slots__ = ("space", "group", "action")

    def act(self, u: Label, p: Label, g: Label) -> Label:
        return self.action[u][(p, g)]


def torsor_candidate(P: Presheaf, G: GroupSheaf, action) -> TorsorCandidate:
    """Validate the right-action laws and equivariance of restrictions."""
    if not P.base.same(G.sections.base):
        raise SemanticError("space and group live over different categories")
    base = P.base
    action = {u: dict(tab) for u, tab in action.items()}
    for u in base.objects:
        tab = action.setdefault(u, {})
        points = set(P.value[u])
        for p in P.value[u]:
            for g in G.sections.value[u]:
                if (p, g) not in tab:
                    raise DanglingReference(f"action misses ({p!r}, {g!r}) at {u!r}")
                if tab[(p, g)] not in points:
                    raise DanglingReference(f"action escapes the section set at {u!r}")
        for p in P.value[u]:
            if tab[(p, G.unit[u])] != p:
                raise SemanticError(f"unit law fails at {u!r} on {p!r}")
            for g in G.sections.value[u]:
                for h in G.sections.value[u]:
                    if tab[(tab[(p, g)], h)] != tab[(p, G.mul(u, g, h))]:
                        raise SemanticError(
                            f"compatibility fails at {u!r} on ({p!r},{g!r},{h!r})"
                        )
    for f in base.morphisms:
        u, v = base.tgt[f], base.src[f]
        for p in P.value[u]:
            for g in G.sections.value[u]:
                lhs = P.restrict[f][action[u][(p, g)]]
                rhs = action[v][(P.restrict[f][p], G.sections.restrict[f][g])]
                if lhs != rhs:
                    raise SemanticError(f"action does not commute with restriction along {f!r}")
    return TorsorCandidate(P, G, action)


class TorsorReport(FrozenRecord, eq=True):
    __slots__ = ("ok", "locally_nonempty", "uniquely_transitive", "failures")


def is_torsor(
    T: TorsorCandidate,
    site: Site,
    nonempty_everywhere: bool = True,
) -> TorsorReport:
    """Local nonemptiness plus unique transitivity, with named witnesses.

    The universal reading checks at every object that some covering sieve
    has nonempty sections on each piece, which holds exactly when the
    least covering sieve does; ``nonempty_everywhere=False`` checks only
    the objects that no non-identity arrow leaves (the whole space, in an
    opens poset).
    """
    if not T.space.base.same(site.category):
        raise BaseMismatch("torsor and site live over different categories")
    C = site.category
    J = site.topology
    P, G = T.space, T.group
    failures = []
    targets = list(C.objects)
    if not nonempty_everywhere:
        targets = [
            u for u in C.objects
            if all(C.is_identity(f) for f in C.morphisms if C.src[f] == u)
        ]
    nonempty_ok = True
    for u in targets:
        if not all(P.value[C.src[f]] for f in J.least[u].arrows):
            nonempty_ok = False
            failures.append(f"no covering sieve of {u!r} has nonempty sections on every piece")
    transitive_ok = True
    for u in C.objects:
        for p in P.value[u]:
            for q in P.value[u]:
                carriers = [g for g in G.sections.value[u] if T.act(u, p, g) == q]
                if len(carriers) != 1:
                    transitive_ok = False
                    failures.append(
                        f"{len(carriers)} group elements carry {p!r} to {q!r} over {u!r}"
                    )
    return TorsorReport(nonempty_ok and transitive_ok, nonempty_ok, transitive_ok, tuple(failures))


class CanonicalMapReport(FrozenRecord, eq=True):
    __slots__ = ("ok", "map_bijective", "locally_surjective", "failures")


def canonical_map_check(T: TorsorCandidate, site: Site) -> CanonicalMapReport:
    """(p, g) -> (p, p·g) bijective where sections exist, and P -> 1 locally
    epi: the least covering sieve of each object has nonempty pieces."""
    if not T.space.base.same(site.category):
        raise BaseMismatch("torsor and site live over different categories")
    C = site.category
    P, G = T.space, T.group
    failures = []
    bij = True
    for u in C.objects:
        if not P.value[u]:
            continue
        image = {}
        for p in P.value[u]:
            for g in G.sections.value[u]:
                key = (p, T.act(u, p, g))
                if key in image:
                    bij = False
                    failures.append(f"canonical map not injective at {u!r}: {key!r} hit twice")
                image[key] = (p, g)
        expected = {(p, q) for p in P.value[u] for q in P.value[u]}
        missing = expected - set(image)
        if missing:
            bij = False
            failures.append(f"canonical map not surjective at {u!r}: misses {sorted(missing, key=label_key)[0]!r}")
    epi = True
    for u in C.objects:
        if not all(P.value[C.src[f]] for f in site.topology.least[u].arrows):
            epi = False
            failures.append(f"P -> 1 is not locally surjective at {u!r}")
    return CanonicalMapReport(bij and epi, bij, epi, tuple(failures))


# -- cocycles ---------------------------------------------------------------------------

class Cocycle(FrozenRecord):
    __slots__ = (
        "site",
        "group",
        "target",
        "cover",
        "values",  # (i, j) -> g_ij in G(U_i ∩ U_j)
    )

    def overlap(self, i: int, j: int) -> Label:
        return overlap(self.site, self.cover[i], self.cover[j])


def cocycle(site: Site, G: GroupSheaf, target: Label, cover, values) -> Cocycle:
    """Shape-check a cocycle; fill g_ii = unit and g_ji = g_ij^-1 when missing."""
    if not site.is_open_cover_site():
        raise SemanticError("cocycles live on open-cover sites")
    cover = tuple(cover)
    for u in (target,) + cover:
        if u not in site.category.object_set:
            raise DanglingReference(f"cocycle names unknown open {u!r}")
        if u != target and not site.open_of[u] <= site.open_of[target]:
            raise CoverMismatch(f"cover member {u!r} is not contained in {target!r}")
    union = frozenset().union(*(site.open_of[u] for u in cover)) if cover else frozenset()
    if union != site.open_of[target]:
        raise CoverMismatch(f"cover does not exhaust {target!r}")

    def ov(i: int, j: int) -> Label:
        return overlap(site, cover[i], cover[j])

    n = len(cover)
    vals: dict[tuple[int, int], Label] = {}
    for key, g in dict(values).items():
        i, j = map(int, key)
        if not (0 <= i < n and 0 <= j < n):
            raise DanglingReference(f"cocycle value ({i}, {j}) names no pair of the {n} cover members")
        vals[(i, j)] = g
    for i in range(n):
        vals.setdefault((i, i), G.unit[ov(i, i)])
    for i in range(n):
        for j in range(n):
            uij = ov(i, j)
            if (i, j) not in vals and (j, i) in vals:
                vals[(i, j)] = G.inv(uij, vals[(j, i)])
            if (i, j) not in vals:
                raise DanglingReference(f"cocycle misses the pair ({i}, {j})")
            if vals[(i, j)] not in G.sections.value[uij]:
                raise DanglingReference(
                    f"g_{i}{j} is not a section of the group over {uij!r}"
                )
    return Cocycle(site, G, target, cover, vals)


class CocycleReport(FrozenRecord, eq=True):
    __slots__ = ("ok", "failures", "triples_checked")


def check_cocycle(c: Cocycle) -> CocycleReport:
    """g_ii = unit and g_ij·g_jk = g_ik after restriction to triple overlaps.

    The triple overlap U_ij ∩ U_k is the overlap of U_ij with U_k, read
    from the site's overlap memo, and each g_ij is restricted once to
    each triple overlap it meets; the loop over (i, j, k) then only
    multiplies.
    """
    site, G = c.site, c.group
    C = site.category
    restrict = G.sections.restrict
    n = len(c.cover)
    overlaps = {(i, j): c.overlap(i, j) for i in range(n) for j in range(n)}
    failures = [
        f"g_{i}{i} is not the unit over {overlaps[i, i]!r}"
        for i in range(n)
        if c.values[(i, i)] != G.unit[overlaps[i, i]]
    ]
    triples = {
        (i, j, k): overlap(site, overlaps[i, j], c.cover[k]) for i, j, k in product(range(n), repeat=3)
    }
    lifted = {}  # (i, j, w) -> g_ij restricted to the triple overlap w
    for (i, j, k), w in triples.items():
        for a, b in ((i, j), (j, k), (i, k)):
            if (a, b, w) not in lifted:
                lifted[a, b, w] = restrict[C.hom(w, overlaps[a, b])[0]][c.values[(a, b)]]
    for (i, j, k), w in triples.items():
        if G.mul(w, lifted[i, j, w], lifted[j, k, w]) != lifted[i, k, w]:
            failures.append(f"g_{i}{j}·g_{j}{k} != g_{i}{k} on the triple overlap {w!r}")
    return CocycleReport(not failures, tuple(failures), len(triples))


# -- torsors from sections, sections from torsors ------------------------------------------

class LocalSections(FrozenRecord, eq=True):
    __slots__ = (
        "cover",
        "sections",  # cover index -> section of P over that member
    )


def extract_cocycle(T: TorsorCandidate, site: Site, target: Label, L: LocalSections) -> Cocycle:
    """The unique g_ij with s_j = s_i · g_ij on each overlap."""
    C = site.category
    P, G = T.space, T.group
    for i, u in enumerate(L.cover):
        if L.sections.get(i) not in P.value[u]:
            raise DanglingReference(f"chosen section over {u!r} does not exist")
    values: dict[tuple[int, int], Label] = {}
    n = len(L.cover)
    for i in range(n):
        for j in range(n):
            uij = overlap(site, L.cover[i], L.cover[j])
            ri = C.hom(uij, L.cover[i])[0]
            rj = C.hom(uij, L.cover[j])[0]
            si = P.restrict[ri][L.sections[i]]
            sj = P.restrict[rj][L.sections[j]]
            carriers = [g for g in G.sections.value[uij] if T.act(uij, si, g) == sj]
            if len(carriers) != 1:
                raise NotUniquelyTransitive(
                    f"{len(carriers)} elements carry {si!r} to {sj!r} over {uij!r}"
                )
            values[(i, j)] = carriers[0]
    return cocycle(site, G, target, L.cover, values)


def restrict_group(G: GroupSheaf, sub: Site) -> GroupSheaf:
    """The group sheaf restricted to the opens of a slice site.

    The slice's opens poset is a full subcategory of the ambient one, with
    the same object and arrow labels, identities included, so the value
    sets, restrictions and group tables are read from the validated
    sheaf at the slice's labels, without re-validation.
    """
    base = sub.category
    ambient = G.sections.restrict
    for f in base.morphisms:
        if f not in ambient:
            raise DanglingReference(f"arrow {f!r} not found in the ambient site")
    objs = base.objects
    return GroupSheaf(
        Presheaf(base, {u: G.sections.value[u] for u in objs}, {f: ambient[f] for f in base.morphisms}),
        {u: G.mult[u] for u in objs},
        {u: G.unit[u] for u in objs},
        {u: G.inverse[u] for u in objs},
    )


class GluedTorsor(FrozenRecord, eq=True):
    __slots__ = (
        "site",  # the slice over the cocycle's target
        "torsor",
        "canonical_sections",
    )


def glue_torsor(site: Site, G: GroupSheaf, c: Cocycle, bound: int | None = None) -> GluedTorsor:
    """Glue trivial torsors along the cocycle.

    A section over V is a tuple (t_i) with t_i in G(V ∩ U_i) satisfying
    t_i = g_ij · t_j on w = V ∩ U_ij; the right action is componentwise.
    Each open V of the slice is set up once: its pieces V ∩ U_i and, for
    every ordered pair (i, j), the restrictions of t_i and t_j to w, the
    group table over w and g_ij restricted to w.  The glued sections are
    then one filter over the product of the pieces' groups, in product
    order.  The canonical sections s_i = (g_ki)_k trivialize each piece
    and extract back to the input cocycle on the nose.
    """
    report = check_cocycle(c)
    if not report.ok:
        raise InvalidCocycle("; ".join(report.failures))
    bound = enumeration_bound(bound)
    if not is_sheaf(G.sections, site.topology, bound).ok:
        raise SemanticError("the coefficient presheaf is not a sheaf for the topology")

    sl = slice_site(site, c.target, bound)
    Gs = restrict_group(G, sl)
    C = sl.category
    n = len(c.cover)

    def along(w: Label, u: Label) -> dict[Label, Label]:
        """G(u) -> G(w), the restriction along the inclusion w ⊆ u."""
        return G.sections.restrict[site.category.hom(w, u)[0]]

    # an open of the slice has the same label in the site, so V ∩ U is
    # the site's overlap of the two labels
    pieces: dict[Label, list[Label]] = {}
    value: dict[Label, tuple] = {}
    for v in C.objects:
        at = pieces[v] = [overlap(site, v, u) for u in c.cover]
        check_bound("glued sections", (max(1, len(G.sections.value[p])) for p in at), bound)
        laws = []
        for i in range(n):
            for j in range(n):
                uij = c.overlap(i, j)
                w = overlap(site, v, uij)
                laws.append((i, j, along(w, at[i]), along(w, at[j]), G.mult[w], along(w, uij)[c.values[i, j]]))
        value[v] = tuple(
            t for t in product(*(G.sections.value[p] for p in at))
            if all(ri[t[i]] == mult[gij, rj[t[j]]] for i, j, ri, rj, mult, gij in laws)
        )

    restrict = {}
    for f in C.morphisms:
        if not C.is_identity(f):
            rs = [along(a, b) for a, b in zip(pieces[C.src[f]], pieces[C.tgt[f]])]
            restrict[f] = {t: tuple(r[x] for r, x in zip(rs, t)) for t in value[C.tgt[f]]}
    P = presheaf(C, value, restrict)

    action = {}
    for v in C.objects:
        acts = [(G.mult[p], along(p, v)) for p in pieces[v]]
        action[v] = {
            (t, g): tuple(mult[x, r[g]] for (mult, r), x in zip(acts, t))
            for t in value[v] for g in Gs.sections.value[v]
        }
    T = torsor_candidate(P, Gs, action)

    canonical = {}
    for i in range(n):
        ui = c.cover[i]
        # g_ki already lives on U_k ∩ U_i, which is the k-th piece of a
        # section over U_i
        s_i = tuple(c.values[(k, i)] for k in range(n))
        if s_i not in P.value[ui]:
            raise SemanticError(f"canonical section over {ui!r} is not a glued section")
        canonical[i] = s_i
    return GluedTorsor(sl, T, LocalSections(c.cover, canonical))


# -- cocycle equivalence ----------------------------------------------------------------------

class EquivalenceResult(FrozenRecord, eq=True):
    __slots__ = ("equivalent", "witness")


def cocycles_equivalent(c1: Cocycle, c2: Cocycle, bound: int | None = None) -> EquivalenceResult:
    """Search for h_i with g'_ij = h_i^-1 · g_ij · h_j after restriction."""
    if c1.cover != c2.cover or c1.target != c2.target:
        raise CoverMismatch("cocycles live on different covers")
    if not c1.group.sections.same(c2.group.sections):
        raise CoverMismatch("cocycles have different coefficient groups")
    site, G = c1.site, c1.group
    C = site.category
    n = len(c1.cover)
    check_bound("trivializations", (max(1, len(G.sections.value[u])) for u in c1.cover), bound)
    # per pair (i, j), in the order the search tries them: the restrictions
    # to U_ij of h_i and h_j, the group tables over U_ij, g_ij and g'_ij
    pairs = []
    for i in range(n):
        for j in range(n):
            uij = c1.overlap(i, j)
            ri = C.hom(uij, c1.cover[i])[0]
            rj = C.hom(uij, c1.cover[j])[0]
            pairs.append((
                i, j, G.sections.restrict[ri], G.sections.restrict[rj],
                G.mult[uij], G.inverse[uij], c1.values[(i, j)], c2.values[(i, j)],
            ))
    for combo in product(*(G.sections.value[u] for u in c1.cover)):
        for i, j, ri, rj, mult, inv, gij, gij2 in pairs:
            hi = ri[combo[i]]
            hj = rj[combo[j]]
            if gij2 != mult[(mult[(inv[hi], gij)], hj)]:
                break
        else:
            return EquivalenceResult(True, {i: combo[i] for i in range(n)})
    return EquivalenceResult(False, None)
