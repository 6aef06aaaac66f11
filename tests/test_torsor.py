"""Group sheaves, torsors, cocycles, descent."""

import random
from itertools import product

import pytest

from sheafkit.documents import load_documents
from sheafkit.errors import CoverMismatch, InvalidCocycle, SemanticError
from sheafkit.fincat import enumerate_naturals, presheaf
from sheafkit.gallery import (
    PC_UX,
    PC_UY,
    PC_WHOLE,
    chain3_site,
    connected_components,
    discrete2_site,
    pc_double_cover,
    pseudocircle_site,
    sign_cocycle,
    trivial_torsor,
    unit_cocycle,
    z2_local_system,
)
from sheafkit.sheaf import is_sheaf
from sheafkit.site import finite_space, open_cover_topology, overlap
from sheafkit.torsor import (
    LocalSections,
    canonical_map_check,
    check_cocycle,
    cocycle,
    cocycles_equivalent,
    extract_cocycle,
    glue_torsor,
    group_sheaf,
    is_torsor,
    torsor_candidate,
)

from naive import naive_cocycles_equivalent


def point_site():
    return open_cover_topology(finite_space(["p"], [(), ("p",)]))


def split_action_fixture():
    """Free but not transitive: two disjoint copies of the group."""
    site = point_site()
    G = z2_local_system(site)
    C = site.category
    P = presheaf(
        C,
        {"{p}": (("l", "0"), ("l", "1"), ("r", "0"), ("r", "1")), "{}": ("*",)},
        {"{}<{p}": {p: "*" for p in
                    (("l", "0"), ("l", "1"), ("r", "0"), ("r", "1"))}},
    )
    xor = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}
    action = {
        "{p}": {
            ((tag, b), g): (tag, xor[(b, g[0])])
            for tag in ("l", "r") for b in ("0", "1")
            for g in G.sections.value["{p}"]
        },
        "{}": {("*", ()): "*"},
    }
    return site, torsor_candidate(P, G, action)


# -- group sheaves ---------------------------------------------------------------

def test_z2_local_system_is_a_group_sheaf_everywhere():
    for make in (discrete2_site, pseudocircle_site, chain3_site):
        site = make()
        G = z2_local_system(site)
        assert is_sheaf(G.sections, site.topology).ok


def test_broken_group_table_is_rejected():
    site = point_site()
    G = z2_local_system(site)
    bad_mult = {u: dict(G.mult[u]) for u in site.category.objects}
    bad_mult["{p}"][(("1",), ("1",))] = ("1",)   # 1+1 = 1 breaks the group
    with pytest.raises(SemanticError):
        group_sheaf(G.sections, bad_mult)


# -- torsor checks ------------------------------------------------------------------

def test_trivial_torsor_is_a_torsor():
    site = discrete2_site()
    T = trivial_torsor(z2_local_system(site))
    report = is_torsor(T, site)
    assert report.ok, report.failures
    cmr = canonical_map_check(T, site)
    assert cmr.ok, cmr.failures


def test_pseudocircle_double_cover_is_a_torsor_without_global_sections():
    glued = pc_double_cover()
    assert glued.torsor.space.value[PC_WHOLE] == ()
    assert len(glued.torsor.space.value[PC_UX]) == 2
    report = is_torsor(glued.torsor, glued.site)
    assert report.ok, report.failures
    assert is_sheaf(glued.torsor.space, glued.site.topology).ok


def test_fixed_point_breaks_freeness_with_witness():
    site = point_site()
    G = z2_local_system(site)
    P = G.sections
    action = {
        u: {(p, g): p for p in P.value[u] for g in P.value[u]}
        for u in P.base.objects
    }
    T = torsor_candidate(P, G, action)
    report = is_torsor(T, site)
    assert not report.ok
    assert any("carry" in msg for msg in report.failures)


def test_split_action_is_free_but_not_transitive():
    site, T = split_action_fixture()
    report = is_torsor(T, site)
    assert not report.ok and not report.uniquely_transitive
    cmr = canonical_map_check(T, site)
    assert not cmr.ok and not cmr.map_bijective
    assert any("not surjective" in msg for msg in cmr.failures)


def test_canonical_map_agrees_with_torsor_check_on_fixtures():
    fixtures = []
    site = discrete2_site()
    fixtures.append((site, trivial_torsor(z2_local_system(site))))
    glued = pc_double_cover()
    fixtures.append((glued.site, glued.torsor))
    fixtures.append(split_action_fixture())
    for s, T in fixtures:
        assert is_torsor(T, s).ok == canonical_map_check(T, s).ok


def test_existential_nonemptiness_reading_checks_only_the_top():
    glued = pc_double_cover()
    universal = is_torsor(glued.torsor, glued.site, nonempty_everywhere=True)
    existential = is_torsor(glued.torsor, glued.site, nonempty_everywhere=False)
    assert universal.ok and existential.ok


# -- cocycles ------------------------------------------------------------------------

def test_all_unit_cocycle_is_valid():
    site = pseudocircle_site()
    G = z2_local_system(site)
    c = unit_cocycle(site, G, PC_WHOLE, (PC_UX, PC_UY))
    assert check_cocycle(c).ok


def test_sign_cocycle_is_valid():
    c = sign_cocycle()
    report = check_cocycle(c)
    assert report.ok
    assert report.triples_checked == 8


def test_negated_entry_breaks_the_triple_identity():
    site = pseudocircle_site()
    G = z2_local_system(site)
    c = cocycle(
        site, G, PC_WHOLE, (PC_UX, PC_UY),
        {(0, 1): ("0", "1"), (1, 0): ("0", "1"), (0, 0): ("0",), (1, 1): ("0",)},
    )
    # g_01 has order two, so g_10 = g_01 passes; break g_00 instead
    bad = cocycle(
        site, G, PC_WHOLE, (PC_UX, PC_UY),
        {(0, 1): ("0", "1"), (1, 0): ("0", "0"), (0, 0): ("0",), (1, 1): ("0",)},
    )
    assert check_cocycle(c).ok
    report = check_cocycle(bad)
    assert not report.ok
    assert any("triple overlap" in msg for msg in report.failures)


def test_extraction_from_a_global_section_gives_units():
    site = discrete2_site()
    G = z2_local_system(site)
    T = trivial_torsor(G)
    D2 = "{a,b}"
    s = T.space.value[D2][0]
    C = site.category
    sections = {
        0: T.space.restrict[f"{{a}}<{D2}"][s],
        1: T.space.restrict[f"{{b}}<{D2}"][s],
    }
    c = extract_cocycle(T, site, D2, LocalSections(("{a}", "{b}"), sections))
    for (i, j), g in c.values.items():
        uij = c.overlap(i, j)
        assert g == G.unit[uij]
    assert check_cocycle(c).ok


def test_pseudocircle_extraction_recovers_the_sign_cocycle():
    glued = pc_double_cover()
    sign = sign_cocycle()
    extracted = extract_cocycle(
        glued.torsor, glued.site, PC_WHOLE, glued.canonical_sections
    )
    assert extracted.values == sign.values
    assert check_cocycle(extracted).ok


def test_all_section_choices_give_coboundary_equivalent_cocycles():
    glued = pc_double_cover()
    P = glued.torsor.space
    cocycles = []
    for sx in P.value[PC_UX]:
        for sy in P.value[PC_UY]:
            L = LocalSections((PC_UX, PC_UY), {0: sx, 1: sy})
            c = extract_cocycle(glued.torsor, glued.site, PC_WHOLE, L)
            assert check_cocycle(c).ok
            cocycles.append(c)
    for c1 in cocycles:
        for c2 in cocycles:
            assert cocycles_equivalent(c1, c2).equivalent


def test_cocycle_identity_on_every_triple_of_discrete2():
    site = discrete2_site()
    G = z2_local_system(site)
    T = trivial_torsor(G)
    D2 = "{a,b}"
    for sa in T.space.value["{a}"]:
        for sb in T.space.value["{b}"]:
            c = extract_cocycle(
                T, site, D2, LocalSections(("{a}", "{b}"), {0: sa, 1: sb})
            )
            assert check_cocycle(c).ok


# -- descent ------------------------------------------------------------------------------

def test_glue_with_unit_cocycle_recovers_the_trivial_torsor():
    site = pseudocircle_site()
    G = z2_local_system(site)
    glued = glue_torsor(site, G, unit_cocycle(site, G, PC_WHOLE, (PC_UX, PC_UY)))
    P = glued.torsor.space
    for u in glued.site.category.objects:
        assert len(P.value[u]) == len(G.sections.value[u])
    assert is_torsor(glued.torsor, glued.site).ok


def test_glue_rejects_invalid_cocycles():
    site = pseudocircle_site()
    G = z2_local_system(site)
    bad = cocycle(
        site, G, PC_WHOLE, (PC_UX, PC_UY),
        {(0, 1): ("0", "1"), (1, 0): ("0", "0")},
    )
    with pytest.raises(InvalidCocycle):
        glue_torsor(site, G, bad)


def test_glue_extract_round_trip_on_seeded_cocycles():
    rng = random.Random(7)
    fixtures = []
    pc = pseudocircle_site()
    fixtures.append((pc, z2_local_system(pc), PC_WHOLE, (PC_UX, PC_UY)))
    ch = chain3_site()
    fixtures.append((ch, z2_local_system(ch), "{1,2,3}", ("{1,2}", "{1,2,3}")))
    for _ in range(20):
        site, G, target, cover = fixtures[rng.randrange(len(fixtures))]
        uij_label = None
        values = {}
        for i in range(len(cover)):
            for j in range(i + 1, len(cover)):
                from sheafkit.site import overlap

                uij_label = overlap(site, cover[i], cover[j])
                values[(i, j)] = rng.choice(G.sections.value[uij_label])
        c = cocycle(site, G, target, cover, values)
        assert check_cocycle(c).ok
        glued = glue_torsor(site, G, c)
        extracted = extract_cocycle(glued.torsor, glued.site, target, glued.canonical_sections)
        assert extracted.values == c.values
        assert cocycles_equivalent(extracted, c).equivalent


# -- cocycle equivalence ----------------------------------------------------------------------

def test_equivalence_is_reflexive_with_unit_witness():
    c = sign_cocycle()
    res = cocycles_equivalent(c, c)
    assert res.equivalent
    site = pseudocircle_site()
    G = c.group
    assert res.witness is not None


def test_unit_cocycle_is_equivalent_to_any_coboundary():
    rng = random.Random(11)
    site = pseudocircle_site()
    G = z2_local_system(site)
    unit = unit_cocycle(site, G, PC_WHOLE, (PC_UX, PC_UY))
    C = site.category
    for _ in range(5):
        h = {i: rng.choice(G.sections.value[u]) for i, u in enumerate((PC_UX, PC_UY))}
        values = {}
        for i, ui in enumerate((PC_UX, PC_UY)):
            for j, uj in enumerate((PC_UX, PC_UY)):
                from sheafkit.site import overlap

                uij = overlap(site, ui, uj)
                ri = C.hom(uij, ui)[0]
                rj = C.hom(uij, uj)[0]
                hi = G.sections.restrict[ri][h[i]]
                hj = G.sections.restrict[rj][h[j]]
                values[(i, j)] = G.mul(uij, G.inv(uij, hi), hj)
        cob = cocycle(site, G, PC_WHOLE, (PC_UX, PC_UY), values)
        assert check_cocycle(cob).ok
        assert cocycles_equivalent(unit, cob).equivalent


def test_sign_cocycle_is_not_a_coboundary():
    site = pseudocircle_site()
    G = z2_local_system(site)
    sign = sign_cocycle(site, G)
    unit = unit_cocycle(site, G, PC_WHOLE, (PC_UX, PC_UY))
    assert not cocycles_equivalent(sign, unit).equivalent
    assert not cocycles_equivalent(unit, sign).equivalent


def test_equivalence_requires_matching_covers():
    site = pseudocircle_site()
    G = z2_local_system(site)
    c1 = sign_cocycle(site, G)
    c2 = unit_cocycle(site, G, PC_UX, (PC_UX,))
    with pytest.raises(CoverMismatch):
        cocycles_equivalent(c1, c2)


def zn_local_system(site, n):
    """Locally constant Z/n-valued functions: one entry per connected
    component, added componentwise mod n."""
    C = site.category
    comps = {u: connected_components(site, u) for u in C.objects}
    value = {u: tuple(product(range(n), repeat=len(comps[u]))) for u in C.objects}
    restrict = {}
    for f in C.morphisms:
        u, v = C.tgt[f], C.src[f]
        place = [next(i for i, d in enumerate(comps[u]) if c <= d) for c in comps[v]]
        restrict[f] = {t: tuple(t[i] for i in place) for t in value[u]}
    G = presheaf(C, value, restrict)
    mult = {
        u: {(a, b): tuple((x + y) % n for x, y in zip(a, b)) for a in value[u] for b in value[u]}
        for u in C.objects
    }
    return group_sheaf(G, mult)


def assert_equivalence_matches_oracle(c1, c2):
    res = cocycles_equivalent(c1, c2)
    assert (res.equivalent, res.witness) == naive_cocycles_equivalent(c1, c2)
    return res.equivalent


def test_equivalence_matches_the_oracle_on_gallery_cocycles():
    ds = load_documents([])
    site = pseudocircle_site()
    G = z2_local_system(site)
    glued = pc_double_cover()
    families = [
        [ds.cocycle("pc-sign"), ds.cocycle("pc-unit")],
        [
            sign_cocycle(site, G),
            unit_cocycle(site, G, PC_WHOLE, (PC_UX, PC_UY)),
            extract_cocycle(glued.torsor, glued.site, PC_WHOLE, glued.canonical_sections),
        ],
    ]
    for cocycles in families:
        verdicts = [assert_equivalence_matches_oracle(a, b) for a in cocycles for b in cocycles]
        assert True in verdicts and False in verdicts


@pytest.mark.parametrize(
    "make_site, n, cover, target",
    [
        (discrete2_site, 3, ("{a}", "{b}"), "{a,b}"),
        (pseudocircle_site, 2, (PC_UX, PC_UY), PC_WHOLE),
        (pseudocircle_site, 3, (PC_UX, PC_UY), PC_WHOLE),
    ],
)
def test_equivalence_matches_the_oracle_on_cocycle_sweeps(make_site, n, cover, target):
    """Every choice of local sections of the trivial torsor, as the
    benchmark's cocycle sweep makes them, plus shape-checked cocycles with
    random values, which are mostly not cohomologous."""
    site = make_site()
    G = zn_local_system(site, n)
    T = trivial_torsor(G)
    cocycles = [
        extract_cocycle(T, site, target, LocalSections(cover, dict(enumerate(combo))))
        for combo in product(*(G.sections.value[u] for u in cover))
    ]
    rng = random.Random(n)
    for _ in range(6):
        values = {}
        for i, ui in enumerate(cover):
            for j, uj in enumerate(cover):
                uij = overlap(site, ui, uj)
                values[(i, j)] = rng.choice(G.sections.value[uij])
        cocycles.append(cocycle(site, G, target, cover, values))
    verdicts = [assert_equivalence_matches_oracle(a, b) for a in cocycles for b in cocycles]
    assert True in verdicts and False in verdicts


# -- Čech H¹ classifies torsors ----------------------------------------------------------------

def two_arc_cocycles(site, G):
    """Every cocycle on the pseudocircle's two-arc cover with values in G
    that passes ``check_cocycle``: one value per ordered pair (i, j), each
    drawn from G over U_i ∩ U_j."""
    cover = (PC_UX, PC_UY)
    pairs = list(product(range(2), repeat=2))
    choices = [G.sections.value[overlap(site, cover[i], cover[j])] for i, j in pairs]
    found = []
    for values in product(*choices):
        c = cocycle(site, G, PC_WHOLE, cover, dict(zip(pairs, values)))
        if check_cocycle(c).ok:
            found.append(c)
    return found


def torsors_isomorphic(T1, T2):
    """Is there a natural map T1 -> T2 that is bijective at every object
    and commutes with the action of G?  Both torsors live over the same
    slice; the maps are all natural transformations, filtered."""
    P1, P2 = T1.space, T2.space
    objects = P1.base.objects
    for eta in enumerate_naturals(P1, P2):
        comp = eta.components
        bijective = all(len(set(comp[u].values())) == len(P1.value[u]) == len(P2.value[u]) for u in objects)
        equivariant = all(
            comp[u][T1.act(u, p, g)] == T2.act(u, comp[u][p], g)
            for u in objects for p in P1.value[u] for g in T1.group.sections.value[u]
        )
        if bijective and equivariant:
            return True
    return False


def test_cohomologous_cocycles_are_exactly_those_that_glue_to_isomorphic_torsors():
    """The Čech H¹ of the two-arc cover classifies the torsors it splits:
    c1 and c2 are cohomologous exactly when their glued torsors are
    isomorphic G-torsors.  With Z/2 coefficients there are four cocycles
    in two classes, so both verdicts occur."""
    site = pseudocircle_site()
    G = z2_local_system(site)
    cocycles = two_arc_cocycles(site, G)
    glued = [glue_torsor(site, G, c).torsor for c in cocycles]
    verdicts = []
    for (c1, T1), (c2, T2) in product(zip(cocycles, glued), repeat=2):
        equivalent = cocycles_equivalent(c1, c2).equivalent
        assert equivalent == torsors_isomorphic(T1, T2)
        verdicts.append(equivalent)
    assert len(cocycles) == 4
    assert verdicts.count(True) == 8


def test_z3_cocycles_on_the_two_arcs_glue_and_extract_back_in_three_classes():
    """With Z/3 coefficients, where g_ji = g_ij^-1 differs from g_ij, the
    two-arc cover has nine cocycles: g_ii = 1 and any g_01 over the two
    components of the overlap, with g_10 its inverse.  Each glues to a
    torsor whose canonical sections extract back to it, and they fall in
    three classes of three, H¹ of the circle with Z/3 coefficients."""
    site = pseudocircle_site()
    G = zn_local_system(site, 3)
    cocycles = two_arc_cocycles(site, G)
    ab = overlap(site, PC_UX, PC_UY)
    assert sorted(c.values[0, 1] for c in cocycles) == sorted(G.sections.value[ab])
    for c in cocycles:
        assert c.values[1, 0] == G.inv(ab, c.values[0, 1])
        glued = glue_torsor(site, G, c)
        extracted = extract_cocycle(glued.torsor, glued.site, PC_WHOLE, glued.canonical_sections)
        assert extracted.values == c.values
    classes = {frozenset(i for i, c2 in enumerate(cocycles) if cocycles_equivalent(c1, c2).equivalent)
               for c1 in cocycles}
    assert sorted(map(len, classes)) == [3, 3, 3]
