"""Matching families, sheaf condition, sheafification, limits, exponentials."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafkit import sheaf
from sheafkit.documents import load_documents
from sheafkit.errors import DanglingReference, IncompatibleFamily, NoSuchFamily, NotASheafHere, SemanticError
from sheafkit.fincat import (
    arrow_category,
    enumerate_naturals,
    poset_category,
    presheaf,
    terminal_category,
    validate_category,
    yoneda_presheaf,
)
from sheafkit.gallery import (
    const2_full_presheaf,
    const2_presheaf,
    discrete2_site,
    discrete3_site,
    sierpinski_site,
)
from sheafkit.limits import pullback as set_pullback
from sheafkit.limits import set_fun
from sheafkit.sheaf import (
    exponential,
    family_from_cover,
    glue,
    induced_family,
    is_sheaf,
    matching_families,
    matching_family,
    plus_construction,
    product_presheaf,
    sheafify,
    terminal_presheaf,
)
from sheafkit.labels import label_key
from sheafkit.site import (
    GrothendieckTopology,
    all_sieves,
    empty_sieve,
    generate_sieve,
    maximal_sieve,
    trivial_topology,
)
from sheafkit.fincat import discrete_category

from naive import (
    naive_exponential,
    naive_is_sheaf,
    naive_matching_families,
    naive_naturals,
    naive_plus_construction,
    presheaf_diagram,
    presheaf_limit,
    presheaves_isomorphic,
    section_rank,
    sheafification_is_initial,
    under_bounds,
)
from randgen import random_poset, random_presheaf, random_site, renamed_arrows


D2 = "{a,b}"


def pieces_sieve(site):
    C = site.category
    return generate_sieve(C, D2, [f"{{a}}<{D2}", f"{{b}}<{D2}"])


# -- matching families ---------------------------------------------------------

def test_families_over_maximal_sieve_biject_with_sections():
    site = sierpinski_site()
    F = const2_presheaf(site)
    for u in site.category.objects:
        M = maximal_sieve(site.category, u)
        fams = matching_families(F, M)
        induced = {induced_family(F, M, x).key() for x in F.value[u]}
        assert len(fams) == len(F.value[u])
        assert {m.key() for m in fams} == induced


def test_const2_has_four_families_over_the_two_piece_cover():
    site = discrete2_site()
    F = const2_presheaf(site)
    S = pieces_sieve(site)
    fams = matching_families(F, S)
    assert len(fams) == 4
    oracle = naive_matching_families(F, S.arrows, site.category)
    assert len(oracle) == 4
    assert sorted(m.key() for m in fams) == sorted(
        tuple(sorted(m.items(), key=str)) for m in oracle
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_naturals_and_matching_families_come_in_oracle_order(seed):
    rng = random.Random(seed)
    C = random_poset(rng, max_objs=4)
    if rng.random() < 0.5:
        C = renamed_arrows(rng, C)
    F, G = random_presheaf(rng, C), random_presheaf(rng, C)
    oracle = naive_naturals(F, G)
    assert [eta.components for eta in enumerate_naturals(F, G)] == oracle
    injective = any(all(len(set(comp[u].values())) == len(F.value[u]) for u in C.objects) for comp in oracle)
    sizes_agree = all(len(F.value[u]) == len(G.value[u]) for u in C.objects)
    assert presheaves_isomorphic(F, G) == (sizes_agree and injective)
    rank = section_rank(F)
    for u in C.objects:
        for S in all_sieves(C, u):
            arrows = sorted(S.arrows, key=label_key)
            oracle = sorted(naive_matching_families(F, S.arrows, C),
                            key=lambda m: [rank[C.src[f]][m[f]] for f in arrows])
            assert [m.assignment for m in matching_families(F, S)] == oracle


def test_matching_families_follow_arrow_order_not_object_order():
    # l and r below t; the arrow from l is named after the one from r
    names = {("l", "t"): "z", ("r", "t"): "a"}
    C = poset_category(["l", "r", "t"], lambda x, y: x == y or y == "t",
                       name=lambda x, y: names.get((x, y), f"id_{x}"))
    F = presheaf(C, {"l": (0, "p"), "r": (1, "q"), "t": ((),)},
                 {"z": {(): 0}, "a": {(): 1}})
    S = generate_sieve(C, "t", ["z", "a"])
    got = [m.assignment for m in matching_families(F, S)]
    assert got == [{"a": a, "z": z} for a in (1, "q") for z in (0, "p")]
    assert got == sorted(naive_matching_families(F, S.arrows, C), key=lambda m: (str(m["a"]), str(m["z"])))


def slot_order(S):
    """The arrows of S by domain in object order, each domain's arrows in
    label order: the order of the kernel's slots."""
    C = S.category
    return [f for w in C.objects for f in sorted((f for f in S.arrows if C.src[f] == w), key=label_key)]


def assert_rank_order_and_slot_keys(F, S):
    """The families are the oracle's, sorted by the section ranks of their
    values in label order of the arrows, and every assignment lists its
    arrows in slot order (dict equality alone ignores key order)."""
    C = F.base
    rank = section_rank(F)
    arrows = sorted(S.arrows, key=label_key)
    oracle = sorted(naive_matching_families(F, S.arrows, C), key=lambda m: [rank[C.src[f]][m[f]] for f in arrows])
    got = [m.assignment for m in matching_families(F, S)]
    assert got == oracle
    assert all(list(a) == slot_order(S) for a in got)


def two_parallel_arrows(a="a"):
    """a: v -> t and two parallel arrows b, c: w -> t, with 2 sections at v
    and 3 at w: every assignment matches, so the last varying slot (w)
    holds two arrows and each prefix (the value at a) repeats 9 times.
    The arrow from v is named ``a``."""
    arrows = [(a, "v", "t"), ("b", "w", "t"), ("c", "w", "t")]
    ident = {u: f"id_{u}" for u in "tvw"}
    table = {(i, i): i for i in ident.values()}
    for f, s, t in arrows:
        table[(ident[t], f)] = table[(f, ident[s])] = f
    C = validate_category(list("tvw"), [(i, u, u) for u, i in ident.items()] + arrows, ident, table)
    F = presheaf(C, {"t": ((),), "v": (0, 1), "w": ("p", "q", "r")},
                 {a: {(): 0}, "b": {(): "p"}, "c": {(): "q"}})
    return F, generate_sieve(C, "t", [a, "b", "c"])


def test_a_slot_of_two_arrows_is_replaced_whole_in_slot_order():
    F, S = two_parallel_arrows()
    assert slot_order(S) == ["a", "b", "c"]
    assert len(matching_families(F, S)) == 2 * 3 * 3
    assert_rank_order_and_slot_keys(F, S)


def test_a_renamed_arrow_sorts_the_families_into_label_order():
    """Named z, the arrow from v comes last in label order but its slot
    comes first, so the kernel's order (z varying slowest) is not the
    label order (z varying fastest) and the families are sorted."""
    F, S = two_parallel_arrows("z")
    assert slot_order(S) == ["z", "b", "c"]
    assert_rank_order_and_slot_keys(F, S)
    got = [m.assignment for m in matching_families(F, S)]
    assert [a["z"] for a in got[:3]] == [0, 1, 0]


def test_renamed_arrows_are_sorted_into_rank_order_with_slot_keys():
    """Renamed arrows put the label order of many random sieves out of
    slot order."""
    sorted_after = 0
    for seed in range(40):
        rng = random.Random(seed)
        C = renamed_arrows(rng, random_poset(rng, max_objs=4))
        F = random_presheaf(rng, C)
        for u in C.objects:
            for S in all_sieves(C, u):
                sorted_after += slot_order(S) != sorted(S.arrows, key=label_key)
                assert_rank_order_and_slot_keys(F, S)
    assert sorted_after >= 20


def test_the_empty_sieve_has_one_empty_family_in_slot_order():
    F, _ = two_parallel_arrows()
    E = empty_sieve(F.base, "t")
    assert [m.assignment for m in matching_families(F, E)] == [{}]
    assert_rank_order_and_slot_keys(F, E)


def test_empty_sieve_on_empty_open_has_one_family():
    site = sierpinski_site()
    F = const2_presheaf(site)
    S = empty_sieve(site.category, "{}")
    fams = matching_families(F, S)
    assert len(fams) == 1
    assert fams[0].assignment == {}


def test_incompatible_assignment_rejected():
    site = discrete2_site()
    F = const2_presheaf(site)
    S = pieces_sieve(site)
    good = matching_families(F, S)[0]
    bad = dict(good.assignment)
    bad[f"{{}}<{D2}"] = "0"  # the empty open carries the point "*"
    with pytest.raises(IncompatibleFamily):
        matching_family(F, S, bad)


def test_sieve_presheaf_realizes_the_sieve():
    site = discrete2_site()
    S = pieces_sieve(site)
    sp = S.presheaf
    assert set(sp.value[D2]) == set()
    assert sp.value["{a}"] == (f"{{a}}<{D2}",)
    assert sp.value["{}"] == (f"{{}}<{D2}",)


# -- the sheaf condition -----------------------------------------------------------

def test_everything_is_a_sheaf_for_the_trivial_topology():
    site = discrete2_site()
    F = const2_full_presheaf(site)
    assert is_sheaf(F, trivial_topology(site.category)).ok


def test_const2_fails_gluing_on_discrete2():
    site = discrete2_site()
    F = const2_presheaf(site)
    report = is_sheaf(F, site.topology)
    assert not report.ok
    fail = [f for f in report.failures if f.at == D2]
    assert fail and fail[0].kind == "gluing"
    assert (fail[0].sections, fail[0].families) == (2, 4)


def test_representables_are_sheaves_on_open_cover_sites():
    for site in (sierpinski_site(), discrete2_site()):
        for u in site.category.objects:
            assert is_sheaf(yoneda_presheaf(site.category, u), site.topology).ok


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_is_sheaf_matches_the_walk_over_every_listed_sieve(seed):
    """The report read off the least covering sieves equals the walk over
    every listed sieve, field by field and failure by failure, for a
    random presheaf and its sheafification, and so does the refusal at
    each bound."""
    rng = random.Random(seed)
    site = random_site(rng)
    J = site.topology
    F = random_presheaf(rng, site.category)
    for G in (F, sheafify(F, J)[0]):
        assert is_sheaf(G, J) == naive_is_sheaf(G, J)
        assert under_bounds(lambda b: is_sheaf(G, J, b)) == under_bounds(lambda b: naive_is_sheaf(G, J, b))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_maximal_sieves_are_decided_without_a_search(seed):
    """Under the trivial topology every L(u) is the maximal sieve, which
    holds id_u: the report is the walk's, at every bound, and no matching
    family is searched for."""
    rng = random.Random(seed)
    C = random_poset(rng)
    F = random_presheaf(rng, C)
    J = trivial_topology(C)
    expected = naive_is_sheaf(F, J)
    refusals = under_bounds(lambda b: naive_is_sheaf(F, J, b))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sheaf, "natural_index_families", None)
        assert is_sheaf(F, J) == expected and expected.ok
        assert under_bounds(lambda b: is_sheaf(F, J, b)) == refusals


def test_a_failing_open_cover_site_walks_past_its_maximal_sieves():
    """const2 fails L({a,b}), which is not maximal, so every listed sieve is
    walked: the maximal ones are decided without a search, the sieve of
    {a} and {b} by one, and the report is the walk's."""
    site = discrete2_site()
    F, J = const2_presheaf(site), site.topology
    C = site.category
    assert J.least[D2] == pieces_sieve(site)
    assert all(maximal_sieve(C, u) in J.covers[u] for u in C.objects)
    report = is_sheaf(F, J)
    assert report == naive_is_sheaf(F, J)
    assert [(fail.at, fail.sieve, fail.kind) for fail in report.failures] == [(D2, pieces_sieve(site), "gluing")]


def test_a_table_failing_the_guard_is_walked():
    """w < v < u, arrows named ``a<b``.  At u the covers are the sieves
    that w<u and v<u generate and the maximal sieve; at v and w only the
    maximal one.  So L(u) = {w<u}, but v<u∘id_v is not in L(u): the
    table fails the guard (it is not pullback stable), and F, a sheaf
    for every L(x), fails gluing on {v<u, w<u}."""
    C = poset_category(["w", "v", "u"], lambda a, b: "wvu".index(a) <= "wvu".index(b),
                       name=lambda a, b: f"{a}<{b}")
    J = GrothendieckTopology(C, {
        "u": (generate_sieve(C, "u", ["w<u"]), generate_sieve(C, "u", ["v<u"]), maximal_sieve(C, "u")),
        "v": (maximal_sieve(C, "v"),),
        "w": (maximal_sieve(C, "w"),),
    })
    F = presheaf(C, {"u": (0,), "v": (0, 1), "w": (0,)},
                 {"v<u": {0: 0}, "w<u": {0: 0}, "w<v": {0: 0, 1: 0}})
    assert J.least["u"].arrows == {"w<u"}
    report = is_sheaf(F, J)
    assert report == naive_is_sheaf(F, J)
    (fail,) = report.failures
    assert (fail.at, fail.sieve.arrows, fail.kind) == ("u", {"v<u", "w<u"}, "gluing")
    assert (fail.sections, fail.families) == (1, 2)
    assert report.pairs_checked == 5


def test_a_table_not_closed_under_intersection_is_walked():
    """discrete3 without the sieve {a}, {b} and {c} generate on {a,b,c}:
    ``least`` refuses the table, and the report is the walk's."""
    site = discrete3_site()
    C = site.category
    D = "{a,b,c}"
    singles = generate_sieve(C, D, [f"{{a}}<{D}", f"{{b}}<{D}", f"{{c}}<{D}"])
    J = GrothendieckTopology(C, {
        u: tuple(S for S in sieves if not (u == D and S == singles))
        for u, sieves in site.topology.covers.items()
    })
    with pytest.raises(SemanticError):
        J.least
    for F in (const2_full_presheaf(site), terminal_presheaf(C), yoneda_presheaf(C, D)):
        assert is_sheaf(F, J) == naive_is_sheaf(F, J)
    assert not is_sheaf(const2_full_presheaf(site), J).ok


def test_a_sieve_listed_under_another_object_is_refused_as_by_the_walk():
    site = sierpinski_site()
    C = site.category
    covers = dict(site.topology.covers)
    covers["{b,t}"] += (maximal_sieve(C, "{t}"),)
    J = GrothendieckTopology(C, covers)
    F = yoneda_presheaf(C, "{b,t}")
    for check in (is_sheaf, naive_is_sheaf):
        with pytest.raises(DanglingReference, match=re.escape("'{b,t}<{b,t}' is not a section over '{t}'")):
            check(F, J)


# -- gluing -------------------------------------------------------------------------

def test_glue_round_trips_existing_sections():
    site = sierpinski_site()
    C = site.category
    F = yoneda_presheaf(C, "{t}")
    for u in C.objects:
        for S in site.topology.covers[u]:
            for x in F.value[u]:
                m = induced_family(F, S, x)
                assert glue(F, site.topology, S, m) == x


def test_glue_product_sheaf_on_discrete2():
    site = discrete2_site()
    # sections over D in the sheafified constant presheaf are pairs of
    # independent choices over the two pieces
    P, _ = sheafify(const2_presheaf(site), site.topology)
    assert is_sheaf(P, site.topology).ok
    assert len(P.value[D2]) == len(P.value["{a}"]) * len(P.value["{b}"])
    S = pieces_sieve(site)
    for sa in P.value["{a}"]:
        for sb in P.value["{b}"]:
            sieve_, fam = family_from_cover(site, P, D2, {"{a}": sa, "{b}": sb})
            assert sieve_ == S
            glued = glue(P, site.topology, S, fam)
            assert P.restrict[f"{{a}}<{D2}"][glued] == sa
            assert P.restrict[f"{{b}}<{D2}"][glued] == sb


def test_family_from_cover_names_the_first_disagreement_in_label_order():
    """The generated sieve is walked in label order, not in the iteration
    order of its frozenset, so the named arrow does not depend on string
    hashing; ``test_hash_stability`` runs the same case under two seeds."""
    site = discrete3_site()
    F = const2_full_presheaf(site)
    with pytest.raises(IncompatibleFamily) as err:
        family_from_cover(site, F, "{a,b,c}", {"{a,b}": "0", "{a,c}": "1"})
    assert str(err.value) == (
        "sections disagree on the overlap seen by '{a}<{a,b,c}': via '{a,b}': '0', via '{a,c}': '1'"
    )
    S, m = family_from_cover(site, F, "{a,b,c}", {"{a,b}": "1", "{a,c}": "1"})
    assert list(m.assignment) == list(S.ordered)


def test_matching_family_names_the_first_arrow_in_label_order():
    site = discrete3_site()
    F = const2_full_presheaf(site)
    S = generate_sieve(site.category, "{a,b,c}", ["{a,b}<{a,b,c}", "{a,c}<{a,b,c}"])
    with pytest.raises(IncompatibleFamily, match=r"^family misses the arrow '\{a,b\}<\{a,b,c\}'$"):
        matching_family(F, S, {})
    assignment = {f: "0" for f in S.arrows}
    assignment["{a}<{a,b,c}"] = assignment["{}<{a,b,c}"] = "1"
    with pytest.raises(IncompatibleFamily) as err:
        matching_family(F, S, assignment)
    assert str(err.value) == (
        "family disagrees along '{a}<{a,b}': m('{a,b}<{a,b,c}'∘'{a}<{a,b}') != m('{a,b}<{a,b,c}')|'{a}<{a,b}'"
    )


def test_glue_rejects_families_with_no_section():
    site = discrete2_site()
    F = const2_presheaf(site)
    S = pieces_sieve(site)
    mixed = [m for m in matching_families(F, S)
             if m.assignment[f"{{a}}<{D2}"] != m.assignment[f"{{b}}<{D2}"]]
    with pytest.raises(NoSuchFamily):
        glue(F, site.topology, S, mixed[0])


def test_glue_requires_covering_sieve():
    site = sierpinski_site()
    F = const2_presheaf(site)
    S = generate_sieve(site.category, "{b,t}", ["{t}<{b,t}"])
    m = induced_family(F, S, "0")
    with pytest.raises(NotASheafHere):
        glue(F, site.topology, S, m)


# -- sheafification --------------------------------------------------------------------

def test_plus_on_a_sheaf_is_an_isomorphism():
    site = sierpinski_site()
    F = yoneda_presheaf(site.category, "{t}")
    plus, unit = plus_construction(F, site.topology)
    for u in site.category.objects:
        comp = unit.components[u]
        assert len(set(comp.values())) == len(comp) == len(plus.value[u])


def test_sheafification_of_const2_on_discrete2():
    site = discrete2_site()
    F = const2_presheaf(site)
    sh, unit = sheafify(F, site.topology)
    assert is_sheaf(sh, site.topology).ok
    assert len(sh.value[D2]) == 4
    assert len(sh.value["{}"]) == 1
    # applying the construction again is an isomorphism
    again, unit2 = sheafify(sh, site.topology)
    for u in site.category.objects:
        comp = unit2.components[u]
        assert len(set(comp.values())) == len(comp) == len(again.value[u])


def test_sheafification_forces_singleton_over_the_empty_open():
    site = discrete2_site()
    F = const2_full_presheaf(site)
    assert len(F.value["{}"]) == 2
    sh, _unit = sheafify(F, site.topology)
    assert is_sheaf(sh, site.topology).ok
    assert len(sh.value["{}"]) == 1
    assert len(sh.value[D2]) == 4


def test_sheafification_unit_is_initial_among_maps_to_sheaves():
    site = sierpinski_site()
    F = const2_presheaf(site)
    target = yoneda_presheaf(site.category, "{t}")
    assert sheafification_is_initial(F, site.topology, target)
    site2 = discrete2_site()
    F2 = const2_presheaf(site2)
    target2, _ = sheafify(F2, site2.topology)
    assert sheafification_is_initial(F2, site2.topology, target2)


def assert_plus_matches_the_oracle(F, J):
    """plus_construction, applied once and twice, equals the colimit over
    every covering sieve: the same labels, restrictions and unit."""
    for _ in range(2):
        plus, unit = plus_construction(F, J)
        want, want_unit = naive_plus_construction(F, J)
        assert plus.value == want.value
        assert plus.restrict == want.restrict
        assert unit.components == want_unit.components
        F = plus


def test_plus_construction_matches_the_oracle_on_the_gallery():
    ds = load_documents([])
    for name in ds.names("space") + ds.names("topology"):
        site = ds.site(name)
        C = site.category
        own = [ds.presheaf(p) for p in ds.names("presheaf") if ds.presheaf(p).base.same(C)]
        for F in own + [terminal_presheaf(C), const2_full_presheaf(site)]:
            assert_plus_matches_the_oracle(F, site.topology)
        for u in C.objects:
            assert_plus_matches_the_oracle(yoneda_presheaf(C, u), site.topology)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_plus_construction_matches_the_oracle_on_random_sites(seed):
    rng = random.Random(seed)
    site = random_site(rng)
    C = site.category
    F = random_presheaf(rng, C)
    if C.objects and rng.random() < 0.4:
        F = yoneda_presheaf(C, rng.choice(C.objects))  # Z/n acts freely
    assert_plus_matches_the_oracle(F, site.topology)


# -- pointwise limits --------------------------------------------------------------------

def test_terminal_presheaf_is_all_singletons_and_a_sheaf():
    site = sierpinski_site()
    one = terminal_presheaf(site.category)
    assert all(len(one.value[u]) == 1 for u in site.category.objects)
    assert is_sheaf(one, site.topology).ok


def test_product_of_sheaves_is_a_sheaf_on_sierpinski():
    site = sierpinski_site()
    C = site.category
    F = yoneda_presheaf(C, "{t}")
    G = yoneda_presheaf(C, "{b,t}")
    shape = discrete_category(["l", "r"])
    P, legs = presheaf_limit(presheaf_diagram(shape, {"l": F, "r": G}, {}))
    assert is_sheaf(P, site.topology).ok
    for u in C.objects:
        assert len(P.value[u]) == len(F.value[u]) * len(G.value[u])
    assert set(legs) == {"l", "r"}


def test_presheaf_pullback_is_pointwise():
    site = discrete2_site()
    C = site.category
    F = const2_presheaf(site)
    one = terminal_presheaf(C)
    from sheafkit.fincat import natural_transformation

    bang = natural_transformation(F, one, {u: {x: () for x in F.value[u]} for u in C.objects})
    shape = poset_cospan()
    pd = presheaf_diagram(
        shape,
        {"l": F, "r": F, "m": one},
        {("l", "m"): bang, ("r", "m"): bang},
    )
    P, _legs = presheaf_limit(pd)
    for u in C.objects:
        f = set_fun(F.value[u], one.value[u], {x: () for x in F.value[u]})
        pts, _, _ = set_pullback(f, f)
        assert len(P.value[u]) == len(pts)


def poset_cospan():
    from sheafkit.fincat import poset_category

    return poset_category(
        ["l", "m", "r"],
        lambda x, y: x == y or y == "m",
    )


# -- exponentials -----------------------------------------------------------------------

def test_exponential_by_terminal_is_isomorphic():
    site = sierpinski_site()
    B = yoneda_presheaf(site.category, "{t}")
    one = terminal_presheaf(site.category)
    E = exponential(one, B)
    for u in site.category.objects:
        assert len(E.value[u]) == len(B.value[u])


def test_exponential_over_the_point_is_the_function_set():
    C = terminal_category()
    A = presheaf(C, {"pt": ("a0", "a1")}, {})
    B = presheaf(C, {"pt": ("b0", "b1", "b2")}, {})
    E = exponential(A, B)
    assert len(E.value["pt"]) == 3 ** 2


def test_exponential_adjunction_counts_on_sierpinski():
    site = sierpinski_site()
    C = site.category
    A = yoneda_presheaf(C, "{t}")
    B = const2_presheaf(site)
    E = exponential(A, B)
    for x_at in C.objects:
        X = yoneda_presheaf(C, x_at)
        lhs = len(enumerate_naturals(product_presheaf(X, A), B))
        rhs = len(enumerate_naturals(X, E))
        assert lhs == rhs


def test_sheafify_idempotent_up_to_isomorphism():
    site = discrete2_site()
    F = const2_presheaf(site)
    once, _ = sheafify(F, site.topology)
    twice, _ = sheafify(once, site.topology)
    assert presheaves_isomorphic(once, twice)
    assert not presheaves_isomorphic(F, once)  # genuinely new sections appear


def test_exponential_adjunction_across_a_fixture_family():
    site = sierpinski_site()
    C = site.category
    one = terminal_presheaf(C)
    family = [one, yoneda_presheaf(C, "{t}"), yoneda_presheaf(C, "{b,t}"), const2_presheaf(site)]
    for A in family[:3]:
        for B in family:
            E = exponential(A, B)
            for X in family:
                lhs = len(enumerate_naturals(product_presheaf(X, A), B))
                rhs = len(enumerate_naturals(X, E))
                assert lhs == rhs


def _chain2_pair():
    """Two 4-element presheaves on the 2-chain 0 -> 1 with different restrictions."""
    C = arrow_category()
    A = presheaf(C, {"0": ("a0", "a1", "a2", "a3"), "1": ("b0", "b1", "b2", "b3")},
                 {"0->1": {"b0": "a0", "b1": "a0", "b2": "a1", "b3": "a3"}})
    B = presheaf(C, {"0": ("c0", "c1", "c2", "c3"), "1": ("d0", "d1", "d2", "d3")},
                 {"0->1": {"d0": "c1", "d1": "c2", "d2": "c2", "d3": "c0"}})
    return [(A, B), (B, A)]


def _mixed_pair():
    """Sections mixing numbers and strings, whose label order is not raw order."""
    C = arrow_category()
    A = presheaf(C, {"0": (0, "x", 2), "1": ("y", 1, 3)}, {"0->1": {"y": 2, 1: 0, 3: "x"}})
    B = presheaf(C, {"0": ("b", 10, 9), "1": (7, "a")}, {"0->1": {7: 9, "a": "b"}})
    return [(A, B), (B, A), (A, A)]


def _fixture_pairs():
    site = sierpinski_site()
    C = site.category
    family = [terminal_presheaf(C), yoneda_presheaf(C, "{t}"), yoneda_presheaf(C, "{b,t}"), const2_presheaf(site)]
    return [(A, B) for A in family[:3] for B in family]


@pytest.mark.parametrize("pairs", [_fixture_pairs, _chain2_pair, _mixed_pair])
def test_exponential_tables_match_the_naive_construction(pairs):
    for A, B in pairs():
        E, N = exponential(A, B), naive_exponential(A, B)
        assert E.value == N.value
        assert E.restrict == N.restrict
