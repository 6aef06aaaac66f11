"""Limits, colimits, named special cases, and Kan extensions."""

import random

import pytest

from sheafkit.documents import load_documents
from sheafkit.errors import CodomainMismatch, ShapeMismatch, UsageError
from sheafkit.fincat import (
    arrow_category,
    discrete_category,
    fin_functor,
    poset_category,
    to_point_functor,
)
from sheafkit.limits import (
    Certificate,
    ConeResult,
    certify_colimit,
    certify_limit,
    coequalizer,
    colimit,
    diagram,
    equalizer,
    is_pullback,
    kan_certificate,
    kan_extension,
    kan_to_point,
    limit,
    pullback,
    set_fun,
)

from naive import naive_colimit_classes, naive_limit
from randgen import random_forest_diagram


def chain_shape(n):
    names = [f"s{i:02d}" for i in range(1, n + 1)]
    return poset_category(names, lambda a, b: a <= b)


def inverse_power_chain(n):
    """Truncated inverse system Z/2 <- Z/4 <- ... <- Z/2^n as a covariant diagram.

    Stage s0k carries the 2^k residues; the arrow s0k -> s0(k-1) is
    reduction, recorded covariantly from the deeper stage to the shallower
    one, i.e. the shape is the opposite chain.
    """
    names = [f"s{i:02d}" for i in range(1, n + 1)]
    shape = poset_category(names, lambda a, b: a >= b)
    value = {f"s{i:02d}": tuple(range(2 ** i)) for i in range(1, n + 1)}
    action = {}
    for m in shape.morphisms:
        a, b = shape.src[m], shape.tgt[m]
        if a == b:
            continue
        k = int(b[1:])
        action[m] = {x: x % 2 ** k for x in value[a]}
    return diagram(shape, value, action)


def inclusion_chain(n):
    shape = chain_shape(n)
    value = {f"s{i:02d}": tuple(range(1, i + 1)) for i in range(1, n + 1)}
    action = {}
    for m in shape.morphisms:
        a, b = shape.src[m], shape.tgt[m]
        if a != b:
            action[m] = {x: x for x in value[a]}
    return diagram(shape, value, action)


# -- limits -------------------------------------------------------------------

def test_empty_diagram_limit_is_singleton():
    D = diagram(discrete_category([]), {}, {})
    res = limit(D)
    assert res.apex == ((),)
    assert certify_limit(res).ok


def test_inverse_power_chain_counts():
    for n in range(1, 9):
        res = limit(inverse_power_chain(n))
        assert len(res.apex) == 2 ** n
    # independent oracle at small n: full product filtered by compatibility
    for n in range(1, 5):
        D = inverse_power_chain(n)
        assert sorted(limit(D).apex) == sorted(naive_limit(D))


def test_two_object_discrete_limit_is_product():
    shape = discrete_category(["p", "q"])
    D = diagram(shape, {"p": ("0", "1", "2"), "q": ("x", "y")}, {})
    res = limit(D)
    assert len(res.apex) == 6
    assert certify_limit(res).ok


def test_limit_and_certificates_on_seeded_diagrams():
    rng = random.Random(7)
    for _ in range(25):
        D = random_forest_diagram(rng)
        lim = limit(D)
        # the kernel emits compatible families in lexicographic order
        assert list(lim.apex) == naive_limit(D)
        lcert = certify_limit(lim, max_apex=2)
        assert lcert.ok
        # every cone over a test apex of size s is a function into the limit
        assert lcert.cones_checked == sum(len(lim.apex) ** s for s in range(3))
        colim = colimit(D)
        ccert = certify_colimit(colim, max_apex=2)
        assert ccert.ok
        assert ccert.cones_checked == sum(s ** len(colim.apex) for s in range(3))


def z2_tower4():
    return load_documents([]).diagram("z2-tower4")


def test_certify_limit_rejects_a_negative_apex_size():
    res = limit(z2_tower4())
    with pytest.raises(UsageError, match=r"^max_apex must be at least 0, got -1$"):
        certify_limit(res, max_apex=-1)
    # size 0 is the smallest test apex: the one empty cone
    cert = certify_limit(res, max_apex=0)
    assert cert.ok and cert.cones_checked == 1


def test_certify_colimit_rejects_a_negative_apex_size():
    res = colimit(z2_tower4())
    with pytest.raises(UsageError, match=r"^max_apex must be at least 0, got -1$"):
        certify_colimit(res, max_apex=-1)


def test_kan_certificate_rejects_a_negative_value_bound():
    D = z2_tower4()
    res = kan_extension("right", to_point_functor(D.shape), D)
    with pytest.raises(UsageError, match=r"^value_bound must be at least 0, got -1$"):
        kan_certificate(res, value_bound=-1)


def test_certify_limit_rejects_corrupted_apex():
    shape = discrete_category(["p", "q"])
    D = diagram(shape, {"p": ("0", "1"), "q": ("x",)}, {})
    res = limit(D)
    from sheafkit.limits import ConeResult
    broken = ConeResult(D, res.apex[1:], {j: {t: res.legs[j][t] for t in res.apex[1:]} for j in D.shape.objects})
    assert not certify_limit(broken).ok


def two_one():
    """The discrete diagram p: {0, 1}, q: {x}."""
    return diagram(discrete_category(["p", "q"]), {"p": ("0", "1"), "q": ("x",)}, {})


def test_certify_limit_rejects_an_apex_with_two_elements_of_the_same_legs():
    D = two_one()
    res = limit(D)
    first = res.apex[0]
    legs = {j: {**res.legs[j], "twin": res.legs[j][first]} for j in D.shape.objects}
    cert = certify_limit(ConeResult(D, (*res.apex, "twin"), legs), max_apex=2)
    # the cones that send some t to first's legs find two mediating images
    assert cert == Certificate(False, 1 + 2 + 4, (
        "test cone over apex size 1: 2 mediating images for 't0'",
        "test cone over apex size 2: 2 mediating images for 't0'",
        "test cone over apex size 2: 2 mediating images for 't0'",
        "test cone over apex size 2: 2 mediating images for 't1'",
    ))


def test_certify_colimit_rejects_a_class_that_no_element_reaches():
    D = two_one()
    res = colimit(D)
    cert = certify_colimit(ConeResult(D, (*res.apex, "ghost"), res.legs), max_apex=2)
    # every cocone factors, but the mediating map on "ghost" is not unique
    assert cert == Certificate(False, 0 + 1 + 8, (
        ("test cocone into apex size 1 has no unique factorization",)
        + ("test cocone into apex size 2 has no unique factorization",) * 8
    ))


def test_certify_colimit_rejects_two_classes_merged_into_one_label():
    D = two_one()
    res = colimit(D)
    assert res.apex == (("p", "0"), ("p", "1"), ("q", "x"))
    legs = {**res.legs, "q": {"x": ("p", "0")}}
    cert = certify_colimit(ConeResult(D, res.apex[:2], legs), max_apex=2)
    # the cocones into two points that separate p's 0 from q's x do not factor
    assert cert == Certificate(False, 0 + 1 + 8, ("test cocone into apex size 2 has no unique factorization",) * 4)


def a_to_b():
    """The walking arrow f: a -> b."""
    return poset_category(["a", "b"], lambda u, v: u <= v, name=lambda u, v: "f" if u != v else f"id_{u}")


def test_certify_colimit_rejects_legs_that_split_a_class():
    """On a -> b with x |-> y, labelling x and y apart gives the coproduct,
    not the colimit.  Each test cocone still factors uniquely through the
    two labels, so only the cocone check on the legs themselves fails."""
    D = diagram(a_to_b(), {"a": ("x",), "b": ("y",)}, {"f": {"x": "y"}})
    split = ConeResult(D, ("x", "y"), {"a": {"x": "x"}, "b": {"y": "y"}})
    cert = certify_colimit(split, max_apex=2)
    assert cert == Certificate(False, 0 + 1 + 2, ("the leg of 'x' differs from the leg of its image under 'f'",))
    assert certify_colimit(colimit(D), max_apex=2) == Certificate(True, 0 + 1 + 2, ())


def test_certify_limit_rejects_an_apex_element_whose_legs_are_no_cone():
    """On a -> b with x, z |-> y, an apex element with legs (x, w) is no
    cone, since f sends x to y, not w.  No test cone reaches it, so only
    the cone check on the legs themselves fails."""
    D = diagram(a_to_b(), {"a": ("x", "z"), "b": ("y", "w")}, {"f": {"x": "y", "z": "y"}})
    res = limit(D)
    legs = {"a": {**res.legs["a"], "extra": "x"}, "b": {**res.legs["b"], "extra": "w"}}
    cert = certify_limit(ConeResult(D, (*res.apex, "extra"), legs), max_apex=2)
    assert cert == Certificate(False, 1 + 2 + 2**2, ("the legs of 'extra' do not commute with 'f'",))
    assert certify_limit(res, max_apex=2) == Certificate(True, 1 + 2 + 2**2, ())


# -- colimits ------------------------------------------------------------------

def test_inclusion_chain_colimit_is_last_stage():
    for n in (1, 5, 50):
        res = colimit(inclusion_chain(n))
        assert len(res.apex) == n
        carried = {x for (_j, x) in res.apex}
        assert carried == set(range(1, n + 1))


def test_identity_action_colimit_is_disjoint_union():
    shape = discrete_category(["p", "q"])
    D = diagram(shape, {"p": ("0", "1"), "q": ("x",)}, {})
    res = colimit(D)
    assert len(res.apex) == 3
    assert certify_colimit(res).ok


def test_pushout_of_c2_span_is_b():
    # span  A <-id- A -h-> B  with h(1)=a, h(2)=b
    shape = poset_category(
        ["m", "l", "r"],
        lambda x, y: x == y or (x == "m" and y in ("l", "r")),
    )
    D = diagram(
        shape,
        {"m": ("1", "2"), "l": ("1", "2"), "r": ("a", "b")},
        {
            ("m", "l"): {"1": "1", "2": "2"},
            ("m", "r"): {"1": "a", "2": "b"},
        },
    )
    res = colimit(D)
    assert len(res.apex) == 2
    assert certify_colimit(res).ok
    assert naive_colimit_classes(D) == {
        frozenset({("m", "1"), ("l", "1"), ("r", "a")}),
        frozenset({("m", "2"), ("l", "2"), ("r", "b")}),
    }


# -- named special cases ----------------------------------------------------------

def test_pullback_c2_golden():
    f = set_fun(("1", "2"), ("*",), {"1": "*", "2": "*"})
    g = set_fun(("a", "b"), ("*",), {"a": "*", "b": "*"})
    P, pa, pb = pullback(f, g)
    assert set(P) == {("1", "a"), ("1", "b"), ("2", "a"), ("2", "b")}
    assert is_pullback(P, pa, pb, f, g)


def test_pullback_along_identity():
    A = ("x", "y", "z")
    C = ("0", "1")
    f = set_fun(A, C, {"x": "0", "y": "1", "z": "1"})
    g = set_fun(C, C, {c: c for c in C})
    P, pa, _pb = pullback(f, g)
    assert len(P) == len(A)
    assert {pa(t) for t in P} == set(A)


def test_pullback_of_injection_with_itself_is_diagonal():
    A = ("x", "y")
    C = ("0", "1", "2")
    f = set_fun(A, C, {"x": "0", "y": "2"})
    P, pa, pb = pullback(f, f)
    assert set(P) == {("x", "x"), ("y", "y")}
    assert is_pullback(P, pa, pb, f, f)


def test_pullback_codomain_mismatch():
    f = set_fun(("1",), ("*",), {"1": "*"})
    g = set_fun(("a",), ("#",), {"a": "#"})
    with pytest.raises(CodomainMismatch):
        pullback(f, g)


def test_equalizer_golden():
    A, B = ("1", "2", "3"), ("1", "2")
    f = set_fun(A, B, {"1": "1", "2": "1", "3": "2"})
    g = set_fun(A, B, {"1": "1", "2": "2", "3": "2"})
    E, inc = equalizer(f, g)
    assert E == ("1", "3")
    assert all(inc(e) == e for e in E)


def test_equal_maps_have_full_equalizer_and_plain_coequalizer():
    A, B = ("1", "2"), ("x", "y")
    f = set_fun(A, B, {"1": "x", "2": "y"})
    E, _ = equalizer(f, f)
    assert E == A
    Q, q = coequalizer(f, f)
    assert Q == B
    assert all(q(b) == b for b in B)


def test_coequalizer_collapses_constants():
    A, B = ("a",), ("1", "2")
    f = set_fun(A, B, {"a": "1"})
    g = set_fun(A, B, {"a": "2"})
    Q, q = coequalizer(f, g)
    assert len(Q) == 1
    assert q("1") == q("2")


def test_parallel_pair_required():
    f = set_fun(("1",), ("x",), {"1": "x"})
    g = set_fun(("2",), ("x",), {"2": "x"})
    with pytest.raises(ShapeMismatch):
        equalizer(f, g)


# -- Kan extensions -----------------------------------------------------------------

def test_kan_to_point_matches_direct_paths_on_seeded_diagrams():
    rng = random.Random(42)
    for _ in range(20):
        D = random_forest_diagram(rng)
        left = kan_to_point("left", D)
        direct = colimit(D)
        assert left.apex == direct.apex
        assert left.legs == direct.legs
        right = kan_to_point("right", D)
        directl = limit(D)
        assert set(right.apex) == set(directl.apex)
        assert {j: set(right.legs[j].items()) for j in D.shape.objects} == {
            j: set(directl.legs[j].items()) for j in D.shape.objects
        }


def test_kan_to_point_right_on_empty_diagram():
    D = diagram(discrete_category([]), {}, {})
    res = kan_to_point("right", D)
    assert len(res.apex) == 1


def test_kan_along_identity_is_isomorphism():
    C = arrow_category()
    K = fin_functor(C, C, {o: o for o in C.objects}, {m: m for m in C.morphisms})
    F = diagram(C, {"0": ("x", "y"), "1": ("u",)}, {"0->1": {"x": "u", "y": "u"}})
    for direction in ("left", "right"):
        res = kan_extension(direction, K, F)
        for b in C.objects:
            assert len(res.extension.value[b]) == len(F.value[b])
        comps = res.transform
        for a in C.objects:
            vals = set(comps[a].values()) if direction == "left" else set(comps[a].keys())
            assert len(vals) == len(F.value[a])


def test_kan_pointwise_with_certificate():
    # discrete two-object source into the walking arrow
    A = discrete_category(["a0", "a1"])
    B = arrow_category()
    K = fin_functor(
        A, B,
        {"a0": "0", "a1": "1"},
        {("a0", "id"): "0->0", ("a1", "id"): "1->1"},
    )
    F = diagram(A, {"a0": ("p", "q"), "a1": ("r",)}, {})
    for direction in ("left", "right"):
        res = kan_extension(direction, K, F)
        cert = kan_certificate(res, value_bound=2)
        assert cert.ok, cert.failures
        assert cert.cones_checked > 0


# -- named special cases against the generic limit -----------------------------------

def test_special_cases_agree_with_generic_limits():
    # product: two-object discrete diagram
    shape = discrete_category(["p", "q"])
    D = diagram(shape, {"p": ("0", "1", "2"), "q": ("x", "y")}, {})
    res = limit(D)
    assert len(res.apex) == 6  # |A|*|B|

    # pullback: cospan diagram against the direct construction
    cospan = poset_category(
        ["l", "m", "r"], lambda a, b: a == b or b == "m",
        name=lambda a, b: f"{a}<{b}",
    )
    f = set_fun(("1", "2"), ("*",), {"1": "*", "2": "*"})
    g = set_fun(("a", "b"), ("*",), {"a": "*", "b": "*"})
    D2 = diagram(
        cospan,
        {"l": f.dom, "m": f.cod, "r": g.dom},
        {"l<m": dict(f.table), "r<m": dict(g.table)},
    )
    res2 = limit(D2)
    P, _, _ = pullback(f, g)
    pos = {j: i for i, j in enumerate(cospan.objects)}
    via_limit = {(t[pos["l"]], t[pos["r"]]) for t in res2.apex}
    assert via_limit == set(P)

    # equalizer: the agreement subset of the parallel-pair limit
    pp_shape = poset_category(["a", "b"], lambda x, y: x <= y)
    A, B = ("1", "2", "3"), ("1", "2")
    fe = set_fun(A, B, {"1": "1", "2": "1", "3": "2"})
    ge = set_fun(A, B, {"1": "1", "2": "2", "3": "2"})
    E, _ = equalizer(fe, ge)
    # the walking parallel pair is not a poset; build it explicitly
    from sheafkit.fincat import validate_category

    pp = validate_category(
        ["a", "b"],
        [("ia", "a", "a"), ("ib", "b", "b"), ("f", "a", "b"), ("g", "a", "b")],
        {"a": "ia", "b": "ib"},
        {("ia", "ia"): "ia", ("ib", "ib"): "ib",
         ("f", "ia"): "f", ("ib", "f"): "f",
         ("g", "ia"): "g", ("ib", "g"): "g"},
    )
    D3 = diagram(pp, {"a": A, "b": B}, {"f": dict(fe.table), "g": dict(ge.table)})
    res3 = limit(D3)
    pos3 = {j: i for i, j in enumerate(pp.objects)}
    assert {t[pos3["a"]] for t in res3.apex} == set(E)
