"""Subobject classifier, characteristic maps, Heyting algebra."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafkit.classifier import (
    Subobject,
    characteristic,
    characteristic_square_is_pullback,
    classify_round_trip,
    enumerate_subobjects,
    heyting,
    heyting_report,
    is_closed,
    omega,
    omega_open_iso,
    pullback_of_truth,
    subobject,
)
from sheafkit.errors import NotClosedSubobject, NotRestrictionStable
from sheafkit.fincat import presheaf, validate_category, yoneda_presheaf
from sheafkit.gallery import (
    arrow_site,
    chain3_site,
    const2_presheaf,
    discrete2_site,
    discrete3_site,
    pc_double_cover,
    pseudocircle_site,
    sierpinski_site,
)
from sheafkit.sheaf import is_sheaf, product_presheaf, terminal_presheaf
from sheafkit.labels import label_key
from sheafkit.site import Site, Sieve, all_sieves, pullback_sieve, trivial_topology

from naive import (
    bottom_sub,
    closure,
    implies_sub,
    join_sub,
    locate,
    meet_sub,
    naive_closed_sieves,
    naive_is_closed,
    naive_sieves,
    naive_stable_subsets,
    neg_sub,
    section_rank,
    top_sub,
    under_bounds,
)
from randgen import (
    free_dag,
    isomorphism_pair,
    random_base,
    random_poset,
    random_presheaf,
    random_space_site,
    random_topology,
)


SIER_TOP = "{b,t}"
SIER_T = "{t}"
EMPTY = "{}"


def positivity_fixture():
    """Two parallel sections over the whole space; one is 'positive' on {t} only."""
    site = sierpinski_site()
    C = site.category
    F = presheaf(
        C,
        {SIER_TOP: ("n", "p"), SIER_T: ("n", "p"), EMPTY: ("*",)},
        {
            f"{SIER_T}<{SIER_TOP}": {"n": "n", "p": "p"},
            f"{EMPTY}<{SIER_TOP}": {"n": "*", "p": "*"},
            f"{EMPTY}<{SIER_T}": {"n": "*", "p": "*"},
        },
    )
    A = subobject(F, {SIER_T: {"p"}, EMPTY: {"*"}})
    return site, F, A


# -- omega ------------------------------------------------------------------------

def test_omega_counts_on_sierpinski():
    site = sierpinski_site()
    om = omega(site)
    assert len(om.presheaf.value[SIER_TOP]) == 3
    assert len(om.presheaf.value[SIER_T]) == 2
    assert len(om.presheaf.value[EMPTY]) == 1
    assert is_sheaf(om.presheaf, site.topology).ok
    iso = omega_open_iso(om)
    assert iso.ok, iso.detail


def test_omega_is_a_sheaf_on_every_open_cover_fixture():
    for make in (sierpinski_site, discrete2_site, pseudocircle_site):
        site = make()
        om = omega(site)
        assert is_sheaf(om.presheaf, site.topology).ok
        assert omega_open_iso(om).ok


def test_omega_on_arrow_category_counts_all_sieves():
    site = arrow_site()
    om = omega(site)
    assert len(om.presheaf.value["1"]) == 3   # empty, {arrow}, maximal
    assert len(om.presheaf.value["0"]) == 2   # empty, maximal


# -- subobjects and closure ----------------------------------------------------------

def test_subobject_requires_restriction_stability():
    site, F, _A = positivity_fixture()
    with pytest.raises(NotRestrictionStable):
        subobject(F, {SIER_TOP: {"p"}, SIER_T: set(), EMPTY: {"*"}})


def test_closed_subobjects_of_terminal_match_opens():
    # on an open-cover site the closed subobjects of 1 are the opens
    for make, count in ((sierpinski_site, 3), (discrete2_site, 4), (pseudocircle_site, 7)):
        site = make()
        one = terminal_presheaf(site.category)
        assert len(enumerate_subobjects(site.topology, one)) == count


def test_trivial_topology_keeps_every_stable_subset():
    site = arrow_site()
    F = presheaf(
        site.category,
        {"0": ("x", "y"), "1": ("z",)},
        {"0->1": {"z": "x"}},
    )
    subs = enumerate_subobjects(site.topology, F)
    assert len(subs) == len(naive_stable_subsets(F))


def test_closure_fills_the_empty_part_over_the_empty_open():
    site = sierpinski_site()
    one = terminal_presheaf(site.category)
    bot = bottom_sub(site.topology, one)
    assert bot.parts[EMPTY] == frozenset({()})
    assert bot.parts[SIER_T] == frozenset()
    assert bot.parts[SIER_TOP] == frozenset()
    assert is_closed(site.topology, bot)


# -- characteristic maps -----------------------------------------------------------------

def test_characteristic_of_top_is_constantly_true():
    site, F, _A = positivity_fixture()
    om = omega(site)
    chi = characteristic(om, top_sub(F))
    for u in site.category.objects:
        for x in F.value[u]:
            assert chi.components[u][x] == om.truth_label(u)


def test_characteristic_of_bottom_is_the_empty_open_truth_value():
    site = sierpinski_site()
    om = omega(site)
    one = terminal_presheaf(site.category)
    bot = bottom_sub(site.topology, one)
    chi = characteristic(om, bot)
    iso = dict(omega_open_iso(om).table[SIER_TOP])
    assert iso[chi.components[SIER_TOP][()]] == EMPTY


def test_characteristic_rejects_non_closed_subobjects():
    site = sierpinski_site()
    om = omega(site)
    one = terminal_presheaf(site.category)
    truly_empty = subobject(one, {})
    with pytest.raises(NotClosedSubobject):
        characteristic(om, truly_empty)


def test_positivity_predicate_returns_its_region_of_validity():
    site, F, A = positivity_fixture()
    om = omega(site)
    assert is_closed(site.topology, A)
    chi = characteristic(om, A)
    iso = dict(omega_open_iso(om).table[SIER_TOP])
    assert iso[chi.components[SIER_TOP]["p"]] == SIER_T
    assert iso[chi.components[SIER_TOP]["n"]] == EMPTY
    assert characteristic_square_is_pullback(om, A, chi)
    assert pullback_of_truth(om, chi).same(A)


# -- classification round trip ---------------------------------------------------------------

def test_terminal_classification_on_sierpinski():
    site = sierpinski_site()
    report = classify_round_trip(site, terminal_presheaf(site.category))
    assert report.ok, report.failures
    assert report.subobjects == report.arrows == 3


def test_empty_presheaf_has_one_subobject_and_one_arrow():
    site = arrow_site()
    X = presheaf(site.category, {"0": (), "1": ()}, {"0->1": {}})
    report = classify_round_trip(site, X)
    assert report.ok
    assert report.subobjects == report.arrows == 1


def test_classification_on_a_sheaf_with_larger_values():
    site, F, _A = positivity_fixture()
    report = classify_round_trip(site, F)
    assert report.ok, report.failures


# -- Heyting algebra -----------------------------------------------------------------------------

def test_implication_self_is_top_everywhere():
    site, F, A = positivity_fixture()
    top = top_sub(F)
    assert implies_sub(A, A).same(top)
    for B in enumerate_subobjects(site.topology, F):
        assert implies_sub(B, B).same(top)


def test_sierpinski_negation_is_not_complement():
    site = sierpinski_site()
    one = terminal_presheaf(site.category)
    subs = enumerate_subobjects(site.topology, one)
    # A = the truth value {t}: present over {t} and {}, absent at the top
    A = next(
        S for S in subs
        if S.parts[SIER_T] and S.parts[EMPTY] and not S.parts[SIER_TOP]
    )
    nA = neg_sub(site.topology, A)
    bot = bottom_sub(site.topology, one)
    assert nA.same(bot)  # largest open disjoint from {t} is the empty open
    assert not join_sub(site.topology, A, nA).same(top_sub(one))
    nnA = neg_sub(site.topology, nA)
    assert A.leq(nnA) and not nnA.same(A)  # strict double-negation inflation


def test_heyting_report_on_fixtures():
    site = sierpinski_site()
    one = terminal_presheaf(site.category)
    report = heyting_report(site, one)
    assert report.ok, report.checks
    assert report.excluded_middle_fails
    assert report.double_negation_strict

    d2 = discrete2_site()
    report2 = heyting_report(d2, terminal_presheaf(d2.category))
    assert report2.ok
    assert not report2.excluded_middle_fails  # the discrete lattice is Boolean

    site3, F, _ = positivity_fixture()
    report3 = heyting_report(site3, F)
    assert report3.ok, report3.checks


def assert_lattice_matches_subobject_operations(site, F):
    """Every entry of the mask lattice is where the oracle's Subobject operations land."""
    J = site.topology
    lat = heyting(site, F)
    subs = lat.elements
    for i, A in enumerate(subs):
        assert locate(lat, A) == i
        assert lat.neg(i) == locate(lat, neg_sub(J, A))
        for j, B in enumerate(subs):
            assert lat.meet(i, j) == locate(lat, meet_sub(A, B))
            assert lat.join(i, j) == locate(lat, join_sub(J, A, B))
            assert lat.implies(i, j) == locate(lat, implies_sub(A, B))
    assert lat.top == locate(lat, top_sub(F))
    assert lat.bottom == locate(lat, bottom_sub(J, F))
    # the algebra closes any restriction-stable mask, closed or not, as the oracle does
    alg = lat.algebra
    for parts in naive_stable_subsets(F) if F.size() <= 10 else ():
        A = subobject(F, parts)
        assert alg.parts(alg.closure(alg.mask(A))) == closure(J, A).parts


def test_lattice_meet_join_locate_consistently():
    site, F, _ = positivity_fixture()
    assert_lattice_matches_subobject_operations(site, F)
    for make in (sierpinski_site, discrete2_site, pseudocircle_site):
        site = make()
        assert_lattice_matches_subobject_operations(site, terminal_presheaf(site.category))
    d2 = discrete2_site()
    assert_lattice_matches_subobject_operations(d2, const2_presheaf(d2))
    assert_lattice_matches_subobject_operations(pseudocircle_site(), pc_double_cover().torsor.space)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_lattice_agrees_with_subobject_operations_on_random_presheaves(seed):
    rng = random.Random(seed)
    make = rng.choice((sierpinski_site, discrete2_site, discrete3_site, pseudocircle_site, None))
    if make is None:
        C = random_poset(rng, max_objs=4)
        site = Site(C, trivial_topology(C))
    else:
        site = make()
    assert_lattice_matches_subobject_operations(site, random_presheaf(rng, site.category))


# -- sieves and subobjects against the oracles ---------------------------------------

BASES = {
    "random base": random_base,  # a poset, a poset times Z/n, or the monoid Z/n
    "free dag": lambda rng: validate_category(*free_dag(rng, 4)),
    "isomorphism pair": lambda rng: validate_category(*isomorphism_pair()),
    "space": None,
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(BASES)), st.integers(0, 2**32 - 1))
def test_sieves_and_subobjects_are_what_the_oracles_find(kind, seed):
    """At every object ``all_sieves`` is the oracle's set of sieves, once
    each, sorted by key; ``is_closed`` is the oracle's closedness; the
    subobjects are the oracle's closed restriction-stable part families,
    once each, in section order."""
    rng = random.Random(seed)
    if kind == "space":
        site = random_space_site(rng)
    else:
        C = BASES[kind](rng)
        site = Site(C, rng.choice((trivial_topology(C), random_topology(rng, C))))
    C, J = site.category, site.topology
    for u in C.objects:
        found = all_sieves(C, u)
        want = naive_sieves(C, u)
        assert len(found) == len(want)
        assert {S.arrows for S in found} == set(want)
        assert list(found) == sorted(found, key=Sieve.key)
    F = random_presheaf(rng, C)
    if C.objects and rng.random() < 0.6:
        h = yoneda_presheaf(C, rng.choice(C.objects))  # Z/n acts freely
        F = h if rng.random() < 0.4 else product_presheaf(F, h)
    if F.size() > 12:  # the oracle filters all 2^size part families
        F = random_presheaf(rng, C, 2)
    subs = enumerate_subobjects(J, F)
    stable = naive_stable_subsets(F)
    assert [is_closed(J, Subobject(F, p)) for p in stable] == [naive_is_closed(J, Subobject(F, p)) for p in stable]
    closed = [parts for parts in stable if naive_is_closed(J, Subobject(F, parts))]
    got = [tuple(A.parts[u] for u in C.objects) for A in subs]
    assert len(got) == len(closed)
    assert set(got) == {tuple(parts[u] for u in C.objects) for parts in closed}
    rank = section_rank(F)
    order = [[sorted(rank[u][x] for x in part) for u, part in zip(C.objects, parts)] for parts in got]
    assert order == sorted(order)


# -- Omega against the sieve-set oracle ------------------------------------------------

def omega_tables(om):
    """Omega's values, non-identity restrictions, sieves (in order) and truth."""
    C = om.presheaf.base
    restrict = {f: om.presheaf.restrict[f] for f in C.morphisms if not C.is_identity(f)}
    sieves = {u: list(by_label.items()) for u, by_label in om.sieves.items()}
    return om.presheaf.value, restrict, sieves, om.truth.components


def naive_omega_tables(site, bound=None):
    """The same tables from ``naive_closed_sieves``, each sieve labelled by
    its arrows in label order."""
    C, J = site.category, site.topology

    def label(S):
        return tuple(sorted(S.arrows, key=label_key))

    sieves = {u: [(label(S), S) for S in naive_closed_sieves(J, u, bound)] for u in C.objects}
    value = {u: tuple(sorted((lbl for lbl, _ in sieves[u]), key=label_key)) for u in C.objects}
    restrict = {
        f: {lbl: label(pullback_sieve(C, f, S)) for lbl, S in sieves[C.tgt[f]]}
        for f in C.morphisms if not C.is_identity(f)
    }
    truth = {u: {(): tuple(sorted(C.into(u), key=label_key))} for u in C.objects}
    return value, restrict, sieves, truth


def assert_omega_is_the_oracle(site):
    """The same tables, and the same tables or ``IntractableSize`` at each
    bound from 0 up to the first that passes (``under_bounds``)."""
    assert omega_tables(omega(site)) == naive_omega_tables(site)
    assert under_bounds(lambda b: omega_tables(omega(site, b))) == under_bounds(
        lambda b: naive_omega_tables(site, b)
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_omega_matches_the_closed_sieve_oracle_on_random_bases(seed):
    rng = random.Random(seed)
    C = random_base(rng)
    assert_omega_is_the_oracle(Site(C, random_topology(rng, C)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_omega_matches_the_closed_sieve_oracle_on_random_spaces(seed):
    assert_omega_is_the_oracle(random_space_site(random.Random(seed)))


def test_omega_matches_the_closed_sieve_oracle_on_the_gallery():
    for make in (sierpinski_site, discrete2_site, discrete3_site, chain3_site, pseudocircle_site, arrow_site):
        assert_omega_is_the_oracle(make())
