"""Category, presheaf, and Yoneda machinery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafkit.errors import (
    AssociativityViolation,
    BaseMismatch,
    DanglingReference,
    IdentityViolation,
    MissingComposite,
    NotNatural,
    UnknownObject,
)
from sheafkit.fincat import (
    arrow_category,
    discrete_category,
    enumerate_naturals,
    identity_natural,
    natural_transformation,
    poset_category,
    presheaf,
    presheaves_isomorphic,
    validate_category,
    yoneda_from_element,
    yoneda_presheaf,
    yoneda_to_element,
)

from sheafkit.documents import load_documents

from naive import naive_hom, naive_into, naive_naturals
from randgen import random_poset


def chain3():
    """Three-element chain poset, the opens of the Sierpinski space."""
    return poset_category(["a", "b", "c"], lambda x, y: x <= y, name=lambda x, y: f"{x}<{y}")


def diamond4():
    order = {
        ("bot", "bot"), ("bot", "l"), ("bot", "r"), ("bot", "top"),
        ("l", "l"), ("l", "top"), ("r", "r"), ("r", "top"), ("top", "top"),
    }
    return poset_category(["bot", "l", "r", "top"], lambda x, y: (x, y) in order)


def arrow_presheaf():
    """F on the walking arrow with F(0) = {x, y}, F(1) = {z}, z|-> x."""
    C = arrow_category()
    return C, presheaf(C, {"0": ("x", "y"), "1": ("z",)}, {"0->1": {"z": "x"}})


# -- validate_category ---------------------------------------------------------

def test_chain_poset_is_valid():
    C = chain3()
    assert C.objects == ("a", "b", "c")
    assert C.compose("b<c", "a<b") == "a<c"


def test_associativity_violation_names_the_triple():
    # one object, morphisms id, s, t with a deliberately broken table
    mors = [("id", "u", "u"), ("s", "u", "u"), ("t", "u", "u")]
    comp = {
        ("id", "id"): "id", ("id", "s"): "s", ("id", "t"): "t",
        ("s", "id"): "s", ("t", "id"): "t",
        ("s", "s"): "t", ("s", "t"): "id", ("t", "s"): "id", ("t", "t"): "t",
    }
    with pytest.raises(AssociativityViolation) as err:
        validate_category(["u"], mors, {"u": "id"}, comp)
    assert "'s'" in str(err.value)


def test_missing_identity_entry():
    with pytest.raises(IdentityViolation):
        validate_category(["u"], [("id", "u", "u")], {}, {("id", "id"): "id"})


def test_missing_composite_entry():
    mors = [("id", "u", "u"), ("s", "u", "u")]
    comp = {("id", "id"): "id", ("id", "s"): "s", ("s", "id"): "s"}
    with pytest.raises(MissingComposite):
        validate_category(["u"], mors, {"u": "id"}, comp)


def test_dangling_morphism_endpoint():
    with pytest.raises(DanglingReference):
        validate_category(["u"], [("f", "u", "v")], {"u": "f"}, {})


# -- hom and into indexes ----------------------------------------------------------

def assert_indexes_match_scans(C):
    assert C.object_set == frozenset(C.objects)
    assert C.morphism_set == frozenset(C.morphisms)
    for a in C.objects:
        assert C.into(a) == naive_into(C, a)
        for b in C.objects:
            assert C.hom(a, b) == naive_hom(C, a, b)
    for unknown in ("no-such-object", 10**6, ("no", "such")):
        assert unknown not in C.object_set
        assert C.into(unknown) == ()
        assert C.hom(unknown, unknown) == ()
        for a in C.objects:
            assert C.hom(a, unknown) == () and C.hom(unknown, a) == ()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_indexes_match_linear_scans_on_random_posets(rng):
    assert_indexes_match_scans(random_poset(rng))


def test_indexes_match_linear_scans_on_gallery_categories():
    ds = load_documents([])
    names = ds.names("category") + ds.names("space") + ds.names("topology")
    assert names
    for name in names:
        assert_indexes_match_scans(ds.base_category(name))
    assert_indexes_match_scans(diamond4())
    assert_indexes_match_scans(discrete_category([]))


# -- presheaf validation ---------------------------------------------------------

def test_presheaf_functoriality_checked():
    C = chain3()
    good = presheaf(
        C,
        {"a": ("0",), "b": ("0", "1"), "c": ("0", "1")},
        {"a<b": {"0": "0", "1": "0"}, "b<c": {"0": "0", "1": "1"},
         "a<c": {"0": "0", "1": "0"}},
    )
    assert good.value["b"] == ("0", "1")
    with pytest.raises(NotNatural):
        presheaf(
            C,
            {"a": ("0", "1"), "b": ("0", "1"), "c": ("0", "1")},
            {"a<b": {"0": "0", "1": "1"}, "b<c": {"0": "0", "1": "1"},
             "a<c": {"0": "1", "1": "0"}},
        )


# -- enumerate_naturals ------------------------------------------------------------

def test_nat_from_representable_counts_sections():
    C, F = arrow_presheaf()
    h1 = yoneda_presheaf(C, "1")
    nats = enumerate_naturals(h1, F)
    oracle = naive_naturals(h1, F)
    assert len(nats) == len(oracle) == len(F.value["1"]) == 1


def test_nat_always_contains_identity():
    _, F = arrow_presheaf()
    nats = enumerate_naturals(F, F)
    ident = identity_natural(F)
    assert any(n.same(ident) for n in nats)
    assert len(nats) == len(naive_naturals(F, F))


def test_blocked_components_give_empty_result():
    C = arrow_category()
    F = presheaf(C, {"0": ("x",), "1": ()}, {"0->1": {}})
    with pytest.raises(DanglingReference):
        # not even a presheaf: the restriction must land in the empty set
        presheaf(C, {"0": (), "1": ("z",)}, {"0->1": {"z": None}})
    G = presheaf(C, {"0": ("w",), "1": ()}, {"0->1": {}})
    # F(1) empty, G(1) empty is fine; components exist here
    assert len(enumerate_naturals(F, G)) == len(naive_naturals(F, G)) == 1
    # but a source with sections where the target has none blocks everything
    H = presheaf(C, {"0": (), "1": ()}, {"0->1": {}})
    assert enumerate_naturals(F, H) == ()


def test_base_mismatch_rejected():
    _, F = arrow_presheaf()
    D = discrete_category(["0", "1"])
    G = presheaf(D, {"0": ("x",), "1": ("y",)}, {})
    with pytest.raises(BaseMismatch):
        enumerate_naturals(F, G)


def test_enumeration_matches_naive_oracle_on_chain():
    C = chain3()
    F = presheaf(
        C,
        {"a": ("0",), "b": ("0", "1"), "c": ("0", "1")},
        {"a<b": {"0": "0", "1": "0"}, "b<c": {"0": "0", "1": "1"},
         "a<c": {"0": "0", "1": "0"}},
    )
    G = presheaf(
        C,
        {"a": ("0", "1"), "b": ("0", "1"), "c": ("1",)},
        {"a<b": {"0": "0", "1": "1"}, "b<c": {"1": "1"},
         "a<c": {"1": "1"}},
    )
    nats = enumerate_naturals(F, G)
    assert len(nats) == len(naive_naturals(F, G))
    keys = [n.key() for n in nats]
    assert keys == sorted(keys)  # deterministic canonical order


# -- Yoneda ----------------------------------------------------------------------

def test_isomorphism_needs_a_natural_injective_at_every_object():
    C = arrow_category()
    value = {"0": ("a", "b"), "1": ("c", "d")}
    collapsing = presheaf(C, value, {"0->1": {"c": "a", "d": "a"}})
    bijective = presheaf(C, value, {"0->1": {"c": "a", "d": "b"}})
    # naturals exist both ways, but every one into `bijective` is constant at 1
    assert enumerate_naturals(collapsing, bijective)
    assert not presheaves_isomorphic(collapsing, bijective)
    assert presheaves_isomorphic(bijective, bijective)
    assert presheaves_isomorphic(collapsing, collapsing)


def test_yoneda_presheaf_on_chain_is_singleton_valued():
    C = chain3()
    h = yoneda_presheaf(C, "c")
    assert all(len(h.value[u]) == 1 for u in C.objects)


def test_yoneda_presheaf_on_arrow_reads_off_homs():
    C = arrow_category()
    h1 = yoneda_presheaf(C, "1")
    assert h1.value["0"] == ("0->1",)
    assert h1.value["1"] == ("1->1",)


def test_yoneda_presheaf_contravariant_on_diamond():
    # the presheaf validator re-checks contravariance by enumeration
    C = diamond4()
    for a in C.objects:
        yoneda_presheaf(C, a)


def test_yoneda_unknown_object():
    with pytest.raises(UnknownObject):
        yoneda_presheaf(arrow_category(), "2")


def test_yoneda_from_identity_is_identity_transformation():
    C = arrow_category()
    hA = yoneda_presheaf(C, "1")
    eta = yoneda_from_element(hA, "1", "1->1")
    assert eta.same(identity_natural(hA))


def test_yoneda_round_trips():
    C, F = arrow_presheaf()
    for at in C.objects:
        for x in F.value[at]:
            eta = yoneda_from_element(F, at, x)
            assert yoneda_to_element(eta, at) == x
        for eta in enumerate_naturals(yoneda_presheaf(C, at), F):
            x = yoneda_to_element(eta, at)
            assert yoneda_from_element(F, at, x).same(eta)


def test_yoneda_bijection_counts_on_fixtures():
    fixtures = []
    C, F = arrow_presheaf()
    fixtures.append((C, F))
    D = diamond4()
    hTop = yoneda_presheaf(D, "top")
    fixtures.append((D, hTop))
    for base, F in fixtures:
        for at in base.objects:
            nats = enumerate_naturals(yoneda_presheaf(base, at), F)
            assert len(nats) == len(F.value[at])


def test_yoneda_embedding_fully_faithful():
    for C in (arrow_category(), chain3(), diamond4()):
        for a in C.objects:
            ha = yoneda_presheaf(C, a)
            for b in C.objects:
                hb = yoneda_presheaf(C, b)
                assert len(enumerate_naturals(ha, hb)) == len(C.hom(a, b))


def test_not_natural_component_family_rejected():
    C, F = arrow_presheaf()
    with pytest.raises(NotNatural):
        natural_transformation(
            F, F, {"0": {"x": "y", "y": "x"}, "1": {"z": "z"}}
        )
