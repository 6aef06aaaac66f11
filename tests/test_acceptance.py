"""Acceptance criteria.

Each test realizes one numbered criterion at its stated tolerance (all
are exact) and prints one pass/fail line with its runtime.  Golden
values come from worked solutions: the C2 pullback/pushout sets, the
2^n inverse-limit counts, the truth-value counts over the Sierpinski
space; everything else is certified by exhaustive search.
"""

import itertools
import random
import time

from sheafkit.classifier import (
    classify_round_trip,
    enumerate_subobjects,
    heyting_report,
    omega,
    omega_open_iso,
)
from sheafkit.cli import run as cli_run
from sheafkit.fincat import (
    arrow_category,
    enumerate_naturals,
    poset_category,
    presheaf,
    yoneda_from_element,
    yoneda_presheaf,
    yoneda_to_element,
)
from sheafkit.gallery import (
    PC_UX,
    PC_UY,
    PC_WHOLE,
    chain3_site,
    const2_presheaf,
    discrete2_site,
    pc_double_cover,
    pseudocircle_site,
    sierpinski_site,
    sign_cocycle,
    trivial_torsor,
    unit_cocycle,
    z2_local_system,
)
from sheafkit.limits import colimit, diagram, kan_to_point, limit, pullback, set_fun
from sheafkit.logic import forces, interpret
from sheafkit.sheaf import is_sheaf, sheafify, terminal_presheaf
from sheafkit.torsor import (
    LocalSections,
    canonical_map_check,
    check_cocycle,
    cocycles_equivalent,
    extract_cocycle,
    glue_torsor,
    is_torsor,
)

from formula_corpus import CONTEXT, full_corpus, standard_model
from naive import naive_forces
from randgen import random_forest_diagram
from test_limits import inclusion_chain, inverse_power_chain


def criterion(number, label, limit_s):
    def wrap(fn):
        def inner():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number:>2} {label}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number:>2} {label}: PASS ({elapsed:.2f}s)")
            assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s"
        inner.__name__ = fn.__name__
        return inner
    return wrap


@criterion(1, "pullback and pushout of the two-point span", 1.0)
def test_acceptance_1_c2_pullback_and_pushout():
    f = set_fun(("1", "2"), ("*",), {"1": "*", "2": "*"})
    g = set_fun(("a", "b"), ("*",), {"a": "*", "b": "*"})
    P, _, _ = pullback(f, g)
    assert set(P) == {("1", "a"), ("1", "b"), ("2", "a"), ("2", "b")}
    shape = poset_category(
        ["m", "l", "r"], lambda x, y: x == y or (x == "m" and y in ("l", "r"))
    )
    span = diagram(
        shape,
        {"m": ("1", "2"), "l": ("1", "2"), "r": ("a", "b")},
        {("m", "l"): {"1": "1", "2": "2"}, ("m", "r"): {"1": "a", "2": "b"}},
    )
    res = colimit(span)
    assert len(res.apex) == 2
    # every class carries exactly one element of B
    carried = {res.legs["r"][x] for x in ("a", "b")}
    assert carried == set(res.apex)


def test_acceptance_2_limit_counts():
    # fixture construction (category validation for 58 chains) is test
    # scaffolding; the criterion times the (co)limit computations
    towers = [inverse_power_chain(n) for n in range(1, 9)]
    chains = [inclusion_chain(n) for n in range(1, 51)]
    start = time.perf_counter()
    try:
        for n, D in enumerate(towers, start=1):
            assert len(limit(D).apex) == 2 ** n
        for n, D in enumerate(chains, start=1):
            res = colimit(D)
            assert len(res.apex) == n
            assert {x for (_s, x) in res.apex} == set(range(1, n + 1))
    except BaseException:
        print("ACCEPTANCE  2 inverse and direct limit counts: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE  2 inverse and direct limit counts: PASS ({elapsed:.2f}s)")
    assert elapsed < 1.0


@criterion(3, "Kan extensions to the point against direct (co)limits", 5.0)
def test_acceptance_3_kan_to_point():
    rng = random.Random(2026)
    for _ in range(20):
        D = random_forest_diagram(rng, max_objs=4, max_elems=4)
        left = kan_to_point("left", D)
        direct_colim = colimit(D)
        assert left.apex == direct_colim.apex
        assert left.legs == direct_colim.legs
        right = kan_to_point("right", D)
        direct_lim = limit(D)
        assert set(right.apex) == set(direct_lim.apex)
        for j in D.shape.objects:
            assert right.legs[j] == direct_lim.legs[j]


def _all_presheaves(base, max_size):
    """Every presheaf over a poset base with value sets of size <= max_size."""
    objs = base.objects
    non_id = [f for f in base.morphisms if not base.is_identity(f)]
    for sizes in itertools.product(range(max_size + 1), repeat=len(objs)):
        value = {u: tuple(f"e{i}" for i in range(sizes[k])) for k, u in enumerate(objs)}
        per_arrow = []
        dead = False
        for f in non_id:
            u, v = base.tgt[f], base.src[f]
            if value[u] and not value[v]:
                dead = True
                break
            per_arrow.append((f, list(itertools.product(value[v], repeat=len(value[u])))))
        if dead:
            continue
        for combo in itertools.product(*(maps for _, maps in per_arrow)):
            restrict = {
                f: dict(zip(value[base.tgt[f]], choice))
                for (f, _), choice in zip(per_arrow, combo)
            }
            try:
                yield presheaf(base, value, restrict)
            except Exception:
                continue


@criterion(4, "Yoneda bijection and round trips, exhaustive", 10.0)
def test_acceptance_4_yoneda():
    sier_poset = sierpinski_site().category
    for base in (arrow_category(), sier_poset):
        count = 0
        for F in _all_presheaves(base, 3):
            count += 1
            for at in base.objects:
                h = yoneda_presheaf(base, at)
                nats = enumerate_naturals(h, F)
                assert len(nats) == len(F.value[at])
                for eta in nats:
                    x = yoneda_to_element(eta, at)
                    assert yoneda_from_element(F, at, x).same(eta)
                for x in F.value[at]:
                    assert yoneda_to_element(yoneda_from_element(F, at, x), at) == x
        assert count > 0


@criterion(5, "truth-value object of the Sierpinski site", 1.0)
def test_acceptance_5_omega():
    site = sierpinski_site()
    om = omega(site)
    sizes = {u: len(om.presheaf.value[u]) for u in site.category.objects}
    assert sizes == {"{b,t}": 3, "{t}": 2, "{}": 1}
    assert omega_open_iso(om).ok
    assert is_sheaf(om.presheaf, site.topology).ok


def _all_sierpinski_sheaves(max_size):
    site = sierpinski_site()
    base = site.category
    top, mid, bot = "{b,t}", "{t}", "{}"
    for vs in range(max_size + 1):
        for vt in range(max_size + 1):
            value = {
                top: tuple(f"s{i}" for i in range(vs)),
                mid: tuple(f"t{i}" for i in range(vt)),
                bot: ("*",),
            }
            if value[top] and not value[mid]:
                continue
            for choice in itertools.product(value[mid], repeat=vs):
                restrict = {
                    f"{mid}<{top}": dict(zip(value[top], choice)),
                    f"{bot}<{top}": {x: "*" for x in value[top]},
                    f"{bot}<{mid}": {x: "*" for x in value[mid]},
                }
                yield site, presheaf(base, value, restrict)


@criterion(6, "subobject classification on every small sheaf", 30.0)
def test_acceptance_6_classification():
    count = 0
    for site, X in _all_sierpinski_sheaves(3):
        assert is_sheaf(X, site.topology).ok
        report = classify_round_trip(site, X)
        assert report.ok, report.failures
        count += 1
    assert count == 60


@criterion(7, "Heyting axioms with an intuitionistic witness", 30.0)
def test_acceptance_7_heyting():
    witnesses = 0
    fixtures = []
    for make in (sierpinski_site, discrete2_site, chain3_site, pseudocircle_site):
        site = make()
        fixtures.append((site, terminal_presheaf(site.category)))
    site = sierpinski_site()
    two = presheaf(
        site.category,
        {"{b,t}": ("0", "1"), "{t}": ("0", "1"), "{}": ("*",)},
        {
            "{t}<{b,t}": {"0": "0", "1": "1"},
            "{}<{b,t}": {"0": "*", "1": "*"},
            "{}<{t}": {"0": "*", "1": "*"},
        },
    )
    fixtures.append((site, two))
    for s, F in fixtures:
        if len(enumerate_subobjects(s.topology, F)) > 256:
            continue
        report = heyting_report(s, F)
        assert report.ok, report.checks
        if report.excluded_middle_fails:
            assert report.double_negation_strict
            witnesses += 1
    assert witnesses >= 1


@criterion(8, "forcing: monotone, local, and equal to subobject semantics", 60.0)
def test_acceptance_8_kripke_joyal():
    for make in (sierpinski_site, discrete2_site, pseudocircle_site):
        site = make()
        model = standard_model(site)
        C = site.category
        sort = dict(CONTEXT)["x"]
        for phi in full_corpus():
            meaning = interpret(model, phi, CONTEXT)
            for u in C.objects:
                for x in model.sorts[sort].value[u]:
                    env = {"x": x}
                    forced = forces(model, u, phi, env, CONTEXT)
                    assert forced == naive_forces(model, u, phi, env, CONTEXT)
                    assert forced == ((x,) in meaning.parts[u])
                    if forced:
                        for f in C.into(u):
                            v = C.src[f]
                            env_v = {"x": model.sorts[sort].restrict[f][x]}
                            assert forces(model, v, phi, env_v, CONTEXT)
                    for S in site.topology.covers[u]:
                        locally = all(
                            forces(
                                model,
                                C.src[f],
                                phi,
                                {"x": model.sorts[sort].restrict[f][x]},
                                CONTEXT,
                            )
                            for f in S.arrows
                        )
                        if locally:
                            assert forces(model, u, phi, env, CONTEXT)


@criterion(9, "cocycle identities for every choice of local sections", 5.0)
def test_acceptance_9_cocycles_from_sections():
    runs = []
    d2 = discrete2_site()
    T2 = trivial_torsor(z2_local_system(d2))
    runs.append((d2, T2, "{a,b}", ("{a}", "{b}")))
    glued = pc_double_cover()
    runs.append((glued.site, glued.torsor, PC_WHOLE, (PC_UX, PC_UY)))
    for site, T, target, cover in runs:
        cocycles = []
        section_space = [T.space.value[u] for u in cover]
        for combo in itertools.product(*section_space):
            L = LocalSections(cover, dict(enumerate(combo)))
            c = extract_cocycle(T, site, target, L)
            report = check_cocycle(c)
            assert report.ok, report.failures
            cocycles.append(c)
        assert cocycles
        for c1 in cocycles:
            for c2 in cocycles:
                assert cocycles_equivalent(c1, c2).equivalent


@criterion(10, "descent for the twisted double cover", 5.0)
def test_acceptance_10_descent():
    site = pseudocircle_site()
    G = z2_local_system(site)
    sign = sign_cocycle(site, G)
    glued = glue_torsor(site, G, sign)
    assert glued.torsor.space.value[PC_WHOLE] == ()
    assert is_torsor(glued.torsor, glued.site).ok
    assert canonical_map_check(glued.torsor, glued.site).ok
    extracted = extract_cocycle(glued.torsor, glued.site, PC_WHOLE, glued.canonical_sections)
    assert cocycles_equivalent(extracted, sign).equivalent
    unit = unit_cocycle(site, G, PC_WHOLE, (PC_UX, PC_UY))
    assert not cocycles_equivalent(sign, unit).equivalent


@criterion(11, "sheaf condition and sheafification of the constant presheaf", 1.0)
def test_acceptance_11_sheafification():
    site = discrete2_site()
    F = const2_presheaf(site)
    report = is_sheaf(F, site.topology)
    assert not report.ok
    failure = [x for x in report.failures if x.at == "{a,b}"][0]
    assert (failure.sections, failure.families) == (2, 4)
    sh, _unit = sheafify(F, site.topology)
    assert is_sheaf(sh, site.topology).ok
    assert len(sh.value["{a,b}"]) == 4
    again, unit2 = sheafify(sh, site.topology)
    for u in site.category.objects:
        comp = unit2.components[u]
        assert len(set(comp.values())) == len(comp) == len(again.value[u])


@criterion(12, "byte-identical reports across consecutive runs", 60.0)
def test_acceptance_12_determinism():
    invocations = [
        ("check-sheaf", "--presheaf", "const2", "--site", "discrete2"),
        ("check-sheaf", "--presheaf", "const2", "--site", "discrete2", "--format", "json"),
        ("force", "--formula", "pc-exists-section", "--at", PC_WHOLE, "--format", "json"),
        ("pullback", "--fixture", "c2", "--format", "json"),
        ("omega", "--site", "sierpinski", "--seed", "7"),
        ("heyting", "--site", "sierpinski", "--presheaf", "sier-one", "--seed", "7"),
        ("classify", "--site", "sierpinski", "--presheaf", "sier-one"),
        ("sheafify", "--presheaf", "const2", "--site", "discrete2"),
        ("glue-torsor", "--cocycle", "pc-sign"),
        ("cocycle-equiv", "--left", "pc-sign", "--right", "pc-unit"),
        ("torsor-check", "--site", "pseudocircle", "--action", "pc-action"),
        ("limit", "--diagram", "z2-tower4", "--certify", "2", "--seed", "7"),
        ("kan", "--direction", "left", "--diagram", "c2-span"),
        ("yoneda", "--category", "arrow", "--at", "1"),
        ("validate-topology", "--site", "discrete3"),
        ("interpret", "--formula", "sier-implication", "--format", "json"),
    ]
    for argv in invocations:
        first = cli_run(list(argv))
        second = cli_run(list(argv))
        assert first[1].encode("utf-8") == second[1].encode("utf-8"), argv
        assert first[0] == second[0]
