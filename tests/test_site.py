"""Sieves, topologies, and open-cover sites."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafkit.classifier import MaskAlgebra
from sheafkit.errors import ApexMismatch, CodomainMismatch, DanglingReference, SemanticError
from sheafkit.fincat import yoneda_presheaf
from sheafkit.gallery import (
    arrow_site,
    chain3_site,
    const2_full_presheaf,
    discrete2_site,
    discrete3_site,
    pseudocircle_site,
    sierpinski_site,
)
from sheafkit.limits import pullback, set_fun
from sheafkit.sheaf import plus_construction
from sheafkit.site import (
    GrothendieckTopology,
    Sieve,
    Site,
    all_sieves,
    empty_sieve,
    generate_sieve,
    maximal_sieve,
    open_cover_topology,
    open_label,
    overlap,
    pullback_sieve,
    saturate_topology,
    sieve,
    trivial_topology,
    validate_topology,
)

from naive import (
    naive_is_sieve,
    naive_open_cover_covers,
    naive_saturate_topology,
    naive_sieves,
    under_bounds,
)
from randgen import random_base, random_families, random_site, random_space_site, random_topology


EMPTY = "{}"
TOP_S = "{b,t}"
OPEN_T = "{t}"


def test_identity_generates_maximal_sieve():
    site = sierpinski_site()
    C = site.category
    S = generate_sieve(C, TOP_S, [C.identity[TOP_S]])
    assert S == maximal_sieve(C, TOP_S)


def test_generated_sieve_on_sierpinski():
    site = sierpinski_site()
    C = site.category
    S = generate_sieve(C, TOP_S, [f"{OPEN_T}<{TOP_S}"])
    assert S.arrows == {f"{EMPTY}<{TOP_S}", f"{OPEN_T}<{TOP_S}"}


def test_empty_family_generates_empty_sieve():
    site = sierpinski_site()
    S = generate_sieve(site.category, TOP_S, [])
    assert S.arrows == frozenset()


def test_an_unknown_apex_is_a_dangling_reference():
    C = sierpinski_site().category
    for build in (lambda: generate_sieve(C, "nope", []), lambda: all_sieves(C, "nope", 0)):
        with pytest.raises(DanglingReference, match=r"^no object 'nope'$"):
            build()


def test_generate_rejects_wrong_codomain():
    site = sierpinski_site()
    with pytest.raises(CodomainMismatch):
        generate_sieve(site.category, OPEN_T, [f"{OPEN_T}<{TOP_S}"])


def test_sieve_closure_validated():
    site = sierpinski_site()
    with pytest.raises(SemanticError):
        sieve(site.category, TOP_S, [f"{OPEN_T}<{TOP_S}"])  # misses the precomposite


def test_sieve_rejects_unknown_morphism():
    site = sierpinski_site()
    with pytest.raises(DanglingReference, match=r"^sieve names unknown morphism 'nope'$"):
        sieve(site.category, TOP_S, [f"{OPEN_T}<{TOP_S}", "nope"])


def test_pullback_along_identity_is_same_sieve():
    site = sierpinski_site()
    C = site.category
    S = generate_sieve(C, TOP_S, [f"{OPEN_T}<{TOP_S}"])
    assert pullback_sieve(C, C.identity[TOP_S], S) == S


def test_pullback_along_member_is_maximal():
    site = sierpinski_site()
    C = site.category
    S = generate_sieve(C, TOP_S, [f"{OPEN_T}<{TOP_S}"])
    assert pullback_sieve(C, f"{OPEN_T}<{TOP_S}", S) == maximal_sieve(C, OPEN_T)
    assert pullback_sieve(C, f"{EMPTY}<{TOP_S}", S) == maximal_sieve(C, EMPTY)


def test_pullback_apex_mismatch():
    site = sierpinski_site()
    C = site.category
    S = maximal_sieve(C, OPEN_T)
    with pytest.raises(ApexMismatch):
        pullback_sieve(C, f"{OPEN_T}<{TOP_S}", S)


def test_trivial_topology_is_valid():
    site = sierpinski_site()
    J = trivial_topology(site.category)
    assert validate_topology(J).ok


@pytest.mark.parametrize(
    "make",
    [sierpinski_site, discrete2_site, chain3_site, pseudocircle_site, discrete3_site],
)
def test_open_cover_topology_is_valid(make):
    site = make()
    report = validate_topology(site.topology)
    assert report.ok, report.violations


def test_sierpinski_covering_sieves():
    site = sierpinski_site()
    J = site.topology
    # the only covering sieve on the whole space is the maximal one
    assert J.covers[TOP_S] == (maximal_sieve(site.category, TOP_S),)
    # the empty open is covered by the empty sieve
    assert empty_sieve(site.category, EMPTY) in set(J.covers[EMPTY])


def test_discrete2_pieces_cover_the_space():
    site = discrete2_site()
    C = site.category
    D = "{a,b}"
    S = generate_sieve(C, D, [f"{{a}}<{D}", f"{{b}}<{D}"])
    assert S in set(site.topology.covers[D])


def without_the_singles_cover():
    """discrete3 with the sieve that {a}, {b} and {c} generate on {a,b,c}
    taken out: the intersection of the other covering sieves there."""
    site = discrete3_site()
    C = site.category
    D = "{a,b,c}"
    singles = generate_sieve(C, D, [f"{{a}}<{D}", f"{{b}}<{D}", f"{{c}}<{D}"])
    mutated = {
        u: tuple(S for S in sieves if not (u == D and S == singles))
        for u, sieves in site.topology.covers.items()
    }
    return site, GrothendieckTopology(C, mutated)


def test_removing_a_transitivity_forced_sieve_is_reported():
    _, J = without_the_singles_cover()
    report = validate_topology(J)
    assert not report.ok
    assert any(v.axiom == "transitivity" and v.at == "{a,b,c}" for v in report.violations)


def test_a_topology_without_its_least_sieve_is_refused_where_it_is_used():
    site, J = without_the_singles_cover()
    F = const2_full_presheaf(site)
    named = re.escape("'{a,b,c}'")
    with pytest.raises(SemanticError, match=named):
        J.covers_with("{a}", frozenset())
    with pytest.raises(SemanticError, match=named):
        plus_construction(F, J)
    with pytest.raises(SemanticError, match=named):
        MaskAlgebra(J, F).closure(0)
    report = validate_topology(J)
    assert any(v.axiom == "transitivity" and v.at == "{a,b,c}" for v in report.violations)


@pytest.mark.parametrize("drop", ["empty entry", "missing entry"])
def test_an_object_with_no_covering_sieve_is_refused(drop):
    site = sierpinski_site()
    C = site.category
    covers = dict(site.topology.covers)
    if drop == "empty entry":
        covers[OPEN_T] = ()
    else:
        del covers[OPEN_T]
    J = GrothendieckTopology(C, covers)
    with pytest.raises(SemanticError, match=re.escape(repr(OPEN_T))):
        J.covers_with(TOP_S, frozenset(C.into(TOP_S)))
    report = validate_topology(J)
    assert any(v.axiom == "maximality" and v.at == OPEN_T for v in report.violations)


def covers_by_definition(J, u, arrows):
    return any(S.arrows <= arrows for S in J.covers[u])


def assert_covers_with_is_the_definition(site):
    C, J = site.category, site.topology
    for u in C.objects:
        for S in all_sieves(C, u):
            assert J.covers_with(u, S.arrows) == covers_by_definition(J, u, S.arrows) == (S in J.covers[u])


def test_covers_with_is_the_definition_on_the_gallery():
    for make in (sierpinski_site, discrete2_site, discrete3_site, chain3_site, pseudocircle_site, arrow_site):
        assert_covers_with_is_the_definition(make())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_covers_with_is_the_definition_on_random_sites(seed):
    assert_covers_with_is_the_definition(random_site(random.Random(seed)))


def test_generated_sieves_satisfy_closure_invariant():
    for site in (pseudocircle_site(), chain3_site(), arrow_site()):
        C = site.category
        for u in C.objects:
            found = [S.arrows for S in all_sieves(C, u)]
            for arrows in found:
                assert naive_is_sieve(C, arrows)
            # exactly the closed subsets of into(u), each once
            assert len(found) == len(set(found))
            assert set(found) == set(naive_sieves(C, u))


def test_pullback_of_maximal_is_maximal_everywhere():
    site = chain3_site()
    C = site.category
    for u in C.objects:
        M = maximal_sieve(C, u)
        for f in C.into(u):
            assert pullback_sieve(C, f, M) == maximal_sieve(C, C.src[f])


def test_poset_pullback_is_intersection_via_hom_functors():
    site = pseudocircle_site()
    C = site.category
    ux, uy, whole = "{a,b,x}", "{a,b,y}", "{a,b,x,y}"
    assert overlap(site, ux, uy) == "{a,b}"
    hx = yoneda_presheaf(C, ux)
    hy = yoneda_presheaf(C, uy)
    hu = yoneda_presheaf(C, whole)
    hmeet = yoneda_presheaf(C, overlap(site, ux, uy))
    for w in C.objects:
        f = set_fun(hx.value[w], hu.value[w], {m: f"{w}<{whole}" for m in hx.value[w]})
        g = set_fun(hy.value[w], hu.value[w], {m: f"{w}<{whole}" for m in hy.value[w]})
        P, _, _ = pullback(f, g)
        assert len(P) == len(hmeet.value[w])


def test_overlap_is_the_same_before_and_after_it_is_memoized():
    """A site built directly, with its own ``open_of`` under other labels:
    every overlap is the label of the intersection, on the first call and
    on every later one, and a label naming no open fails every time."""
    base = pseudocircle_site()
    open_of = {f"U{i}": o for i, o in enumerate(base.space.opens)}
    site = Site(base.category, base.topology, base.space, open_of)
    expected = {(a, b): open_label(open_of[a] & open_of[b]) for a in open_of for b in open_of}
    assert [overlap(site, a, b) for a, b in expected] == list(expected.values())
    assert [overlap(site, a, b) for a, b in reversed(expected)] == list(reversed(expected.values()))
    for _ in range(2):
        with pytest.raises(KeyError):
            overlap(site, "U0", "{a,b}")
    with pytest.raises(SemanticError, match="open-cover sites"):
        overlap(Site(base.category, base.topology), "{a,b}", "{a,b}")


def test_open_labels_are_canonical():
    site = discrete2_site()
    assert open_label(frozenset()) == "{}"
    assert set(site.category.objects) == {"{}", "{a}", "{b}", "{a,b}"}


# -- covering decided by the least covering sieves, against the sieve-set oracles --

GALLERY = (sierpinski_site, discrete2_site, discrete3_site, chain3_site, pseudocircle_site, arrow_site)


def listed(J):
    """The cover table in order, with the least covering sieves."""
    return list(J.covers.items()), J.least


def assert_saturation_is_the_oracle(C, families):
    """The same cover table, tuple for tuple, and the same least sieves;
    and the same result or ``IntractableSize`` at each bound from 0 up to
    the first that passes (``under_bounds``)."""
    assert listed(saturate_topology(C, families)) == listed(naive_saturate_topology(C, families))
    assert under_bounds(lambda b: listed(saturate_topology(C, families, b))) == under_bounds(
        lambda b: listed(naive_saturate_topology(C, families, b))
    )


def assert_open_cover_is_the_oracle(site):
    assert list(site.topology.covers.items()) == list(naive_open_cover_covers(site).items())
    assert under_bounds(lambda b: list(open_cover_topology(site.space, b).topology.covers.items())) == (
        under_bounds(lambda b: list(naive_open_cover_covers(site, b).items()))
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_saturation_matches_the_sieve_set_oracle_on_random_bases(seed):
    rng = random.Random(seed)
    C = random_base(rng)
    assert_saturation_is_the_oracle(C, random_families(rng, C))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_open_cover_sites_match_the_union_oracle_on_random_spaces(seed):
    assert_open_cover_is_the_oracle(random_space_site(random.Random(seed)))


def test_gallery_topologies_match_the_oracles():
    for make in GALLERY:
        site = make()
        if site.is_open_cover_site():
            assert_open_cover_is_the_oracle(site)
        assert_saturation_is_the_oracle(site.category, {})
    pc = pseudocircle_site().category
    assert_saturation_is_the_oracle(pc, {"{a,b,x,y}": [["{a,b,x}<{a,b,x,y}", "{a,b,y}<{a,b,x,y}"]]})


def test_random_topology_often_leaves_a_smaller_sieve_covering():
    """The share of seeded ``random_topology`` draws with a covering
    sieve other than the maximal one (129 of these 300)."""
    found = 0
    for seed in range(300):
        rng = random.Random(seed * 7919)
        J = random_topology(rng, random_base(rng))
        found += any(len(sieves) > 1 for sieves in J.covers.values())
    assert found >= 100
