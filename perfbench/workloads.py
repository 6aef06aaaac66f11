"""The four workloads: what one op runs and how its output is checked.

Each workload is a list of ops repeated in cycles.  An op's ``run``
builds its item from raw tables and calls sheafkit's public entry points
through their modules (``fincat.presheaf``, not a captured reference),
so the tracer's rebinding sees every call.  ``check`` runs outside the
op's timer and raises ``CheckFailed`` on a wrong output.

Sizes and the explicit ``bound=`` below are recorded in BENCHMARK.json;
change them only together with the baseline.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from sheafkit import classifier, cli, fincat, limits, logic, sheaf, site, torsor

import inputs as gen
import oracle
from oracle import expect

# Explicit enumeration bound for every search.  The largest candidate
# space at these sizes is 4^16 ≈ 4.3e9 (naturals on the 4-chain and the
# square); the default bound of 2e6 would refuse it.
BOUND = 10**10

POOL = 12  # distinct seeded items per kind; ops cycle through them


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


class Workload:
    """Ops in cycles; ``cycle(i)`` is the i-th full pass, one op per kind."""

    def __init__(self, name, kinds):
        self.name = name
        self.kinds = kinds  # list of (kind name, items, run(item), check(item, result))

    def cycle(self, i):
        ops = []
        for kind, items, run, check in self.kinds:
            item = items[i % len(items)]
            ops.append(Op(kind, _bind(run, item), _bind(check, item)))
        return ops

    def close(self):
        pass


def _bind(fn, item):
    return lambda *args: fn(item, *args)


def build(name, seed, root):
    """The named workload, with all raw inputs generated from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, Path(root))


# -- shared builders ---------------------------------------------------------------

SIER = gen.space_raw(*gen.SIERPINSKI)
D2 = gen.discrete_space("ab")
D3 = gen.discrete_space("abc")
PC = gen.space_raw(*gen.PSEUDOCIRCLE)


def category(raw):
    return fincat.validate_category(raw["objects"], raw["morphisms"], raw["identity"], raw["compose"])


def presheaf_on(C, raw):
    return fincat.presheaf(C, raw["value"], raw["restrict"])


def open_site(space):
    return site.open_cover_topology(site.finite_space(space["points"], space["opens"]))


def pool(rng, make):
    return [make(rng, i) for i in range(POOL)]


def verified(item, tables, full_check):
    """Run ``full_check`` the first time an item's output is seen; later
    outputs of the same item must repeat its tables exactly, so every
    family of every op is covered by one full check."""
    digest = hashlib.sha256(repr(tables).encode()).digest()
    if item.get("verified") != digest:
        full_check()
        item["verified"] = digest


# -- search_pruned -------------------------------------------------------------------
# Constraint-heavy searches.  The three naturals kinds are bench_kernel.py's
# chain, square and triangle cases lifted to presheaves on posets of that shape.

def presheaf_pair(cat, fsize, ffold, gsize, gfold):
    """Items of two relabelled presheaves F and G on ``cat``; a size is an
    int for every object or a dict per object."""

    def sizes(size):
        return size if isinstance(size, dict) else dict.fromkeys(cat["objects"], size)

    def make(rng, i):
        F, _ = gen.relabel(rng, gen.template_presheaf(cat, sizes(fsize), ffold))
        G, _ = gen.relabel(rng, gen.template_presheaf(cat, sizes(gsize), gfold))
        return {"cat": cat, "F": F, "G": G}

    return make


PRUNED_NATURALS = {
    "naturals-chain": presheaf_pair(gen.chain_raw(4), 4, gen.identity_fold, 4, gen.pair_fold),
    "naturals-square": presheaf_pair(gen.square_raw(), 4, gen.identity_fold, 4, gen.identity_fold),
    "naturals-triangle": presheaf_pair(gen.chain_raw(3, "t"), 4, gen.identity_fold, 4, gen.pair_fold),
}


def naturals_run(item):
    C = category(item["cat"])
    F, G = presheaf_on(C, item["F"]), presheaf_on(C, item["G"])
    return F, G, fincat.enumerate_naturals(F, G, bound=BOUND)


def naturals_check(item, result):
    F, G, fams = result

    def full_check():
        count = oracle.count_naturals(item["cat"], item["F"], item["G"])
        C = F.base
        oracle.check_families(C.objects, oracle.library_arrows(C), F, G, fams, count)

    verified(item, [eta.components for eta in fams], full_check)


CERTIFY_SHAPE = gen.chain_raw(4, "d")
CERTIFY_SIZE = 4
CERTIFY_APEX = 3


def certify_item(rng, i):
    sizes = {u: CERTIFY_SIZE for u in CERTIFY_SHAPE["objects"]}
    D, _ = gen.relabel(rng, gen.template_diagram(CERTIFY_SHAPE, sizes, gen.mod_fold), "action")
    return {"cat": CERTIFY_SHAPE, "D": D}


def certify_run(item):
    D = limits.diagram(category(item["cat"]), item["D"]["value"], item["D"]["action"])
    lim = limits.limit(D)
    colim = limits.colimit(D)
    return (
        lim,
        colim,
        limits.certify_limit(lim, max_apex=CERTIFY_APEX, bound=BOUND),
        limits.certify_colimit(colim, max_apex=CERTIFY_APEX, bound=BOUND),
    )


def certify_check(item, result):
    lim, colim, lcert, ccert = result
    if "sizes" not in item:
        item["sizes"] = (oracle.limit_size(item["cat"], item["D"]), oracle.colimit_size(item["cat"], item["D"]))
    expect((len(lim.apex), len(colim.apex)) == item["sizes"], "(co)limit apex size disagrees with the oracle")
    expect(lcert.ok and ccert.ok, "a universality certificate failed")
    # every cone over a test apex T of size s is a function T -> apex
    expect(lcert.cones_checked == sum(len(lim.apex) ** s for s in range(CERTIFY_APEX + 1)), "limit cone count")
    expect(ccert.cones_checked == sum(s ** len(colim.apex) for s in range(CERTIFY_APEX + 1)), "colimit cocone count")


MATCHING_VALUES = 6


def matching_item(rng, i):
    F, _ = gen.relabel(rng, gen.functions_on_opens(D3, MATCHING_VALUES))
    return {"F": F}


def largest_proper_cover(st):
    """The largest covering sieve of the whole space without its identity."""
    top = gen.open_label(st.space.points)
    ident = st.category.identity[top]
    proper = [S for S in st.topology.covers[top] if ident not in S.arrows]
    return max(proper, key=lambda S: (len(S.arrows), sorted(S.arrows)))


def matching_run(item):
    st = open_site(D3)
    F = presheaf_on(st.category, item["F"])
    S = largest_proper_cover(st)
    return S, sheaf.matching_families(F, S, bound=BOUND)


def matching_check(item, result):
    S, fams = result
    verified(item, [m.assignment for m in fams], lambda: full_matching_check(item, S, fams))


def full_matching_check(item, S, fams):
    below = gen.below_map(D3["cat"])
    members = sorted({f.split("<")[0] for f in S.arrows})
    if "count" not in item:
        item["count"] = oracle.count_matching(below, members, item["F"])
    expect(len(fams) == item["count"], f"{len(fams)} matching families, oracle says {item['count']}")
    restrict = item["F"]["restrict"]
    previous = None
    for m in fams:
        a = m.assignment
        expect(set(a) == set(S.arrows), "family is not defined on exactly the sieve")
        for f in S.arrows:
            w = f.split("<")[0]
            for g in S.arrows:
                v = g.split("<")[0]
                if (w, v) in below:
                    expect(restrict[below[(w, v)]][a[g]] == a[f], "family does not match")
        key = tuple(a[f] for f in sorted(S.arrows))
        expect(previous is None or previous < key, "matching families are not strictly ordered")
        previous = key


def search_pruned(rng, root):
    kinds = [(name, pool(rng, make), naturals_run, naturals_check) for name, make in PRUNED_NATURALS.items()]
    kinds.append(("certify", pool(rng, certify_item), certify_run, certify_check))
    kinds.append(("matching", pool(rng, matching_item), matching_run, matching_check))
    return Workload("search_pruned", kinds)


# -- search_dense ---------------------------------------------------------------------
# Output-dominated enumerations: pruning has little to cut, so the cost
# is building one NaturalTransformation per family.  naturals-discrete is
# bench_kernel.py's unconstrained free-product case lifted to presheaves.

DENSE_DISCRETE = presheaf_pair(gen.poset_raw(["p", "q"], lambda a, b: a == b), 3, gen.identity_fold, 5, gen.identity_fold)
# G is a point below and 10 values above, so every square commutes
DENSE_VEE = presheaf_pair(gen.vee_raw(), 2, gen.identity_fold, {"v0": 1, "v1": 10, "v2": 10}, gen.constant_fold)
DENSE_EXPONENTIAL = presheaf_pair(gen.chain_raw(2, "e"), 4, gen.identity_fold, 4, gen.identity_fold)
HOM_SIZES = {"{b,t}": 5, "{t}": 8, "{}": 1}
CONST_VALUES = 14


def exponential_run(item):
    C = category(item["cat"])
    return sheaf.exponential(presheaf_on(C, item["F"]), presheaf_on(C, item["G"]), bound=BOUND)


def exponential_check(item, result):
    """|G^F(u)| = |Nat(h_u × F, G)|, counted on tables built here."""
    cat, A, B = item["cat"], item["F"], item["G"]
    if "counts" not in item:
        below = gen.below_map(cat)
        item["counts"] = {}
        for u in cat["objects"]:
            value = {w: [(w, a) for a in A["value"][w]] if w == u or (w, u) in below else [] for w in cat["objects"]}
            restrict = {
                f: {(v, a): (w, A["restrict"][f][a]) for v, a in value[v]}
                for f, w, v in cat["morphisms"]
                if w != v
            }
            item["counts"][u] = oracle.count_naturals(cat, {"value": value, "restrict": restrict}, B)
    got = {u: len(result.value[u]) for u in cat["objects"]}
    expect(got == item["counts"], f"exponential sizes {got}, oracle says {item['counts']}")


def hom_omega_item(rng, i):
    cat = SIER["cat"]
    X, _ = gen.relabel(rng, gen.template_presheaf(cat, HOM_SIZES, gen.mod_fold))
    return {"X": X}


def hom_omega_run(item):
    st = open_site(SIER)
    X = presheaf_on(st.category, item["X"])
    om = classifier.omega(st, bound=BOUND)
    return X, om.presheaf, fincat.enumerate_naturals(X, om.presheaf, bound=BOUND)


def hom_omega_check(item, result):
    """Hom(X, Ω) is counted by the closed subpresheaves of X."""
    X, Om, fams = result

    def full_check():
        cat = SIER["cat"]
        count = len(oracle.closed_subpresheaves(cat["objects"], gen.below_map(cat), SIER["open_of"], item["X"]))
        C = X.base
        oracle.check_families(C.objects, oracle.library_arrows(C), X, Om, fams, count)

    verified(item, [eta.components for eta in fams], full_check)


def constant_matching_item(rng, i):
    F, _ = gen.relabel(rng, gen.constant_on_opens(D3, CONST_VALUES))
    return {"F": F}


def constant_matching_run(item):
    st = open_site(D3)
    F = presheaf_on(st.category, item["F"])
    top = gen.open_label(D3["points"])
    # the sieve generated by the points: families choose a value per point
    S = min(st.topology.covers[top], key=lambda S: (len(S.arrows), sorted(S.arrows)))
    return S, sheaf.matching_families(F, S, bound=BOUND)


def search_dense(rng, root):
    kinds = [
        ("naturals-discrete", pool(rng, DENSE_DISCRETE), naturals_run, naturals_check),
        ("naturals-vee", pool(rng, DENSE_VEE), naturals_run, naturals_check),
        ("exponential", pool(rng, DENSE_EXPONENTIAL), exponential_run, exponential_check),
        ("hom-omega", pool(rng, hom_omega_item), hom_omega_run, hom_omega_check),
        ("matching-constant", pool(rng, constant_matching_item), constant_matching_run, matching_check),
    ]
    return Workload("search_dense", kinds)


# -- topos_sweep ------------------------------------------------------------------------
# Exhaustive verification of seeded items; each op validates its raw tables.

YONEDA_BASES = [gen.chain_raw(3, "y"), gen.square_raw("y"), gen.vee_raw("y")]
YONEDA_SIZE = 4


def yoneda_item(rng, i):
    cat = YONEDA_BASES[i % len(YONEDA_BASES)]
    fold = (gen.identity_fold, gen.pair_fold)[i % 2]
    F, _ = gen.relabel(rng, gen.template_presheaf(cat, dict.fromkeys(cat["objects"], YONEDA_SIZE), fold))
    return {"cat": cat, "F": F}


def yoneda_run(item):
    C = category(item["cat"])
    F = presheaf_on(C, item["F"])
    out = {}
    for at in C.objects:
        h = fincat.yoneda_presheaf(C, at)
        nats = fincat.enumerate_naturals(h, F, bound=BOUND)
        elements = [fincat.yoneda_to_element(eta, at) for eta in nats]
        forth = all(fincat.yoneda_from_element(F, at, x).same(eta) for x, eta in zip(elements, nats))
        back = all(fincat.yoneda_to_element(fincat.yoneda_from_element(F, at, x), at) == x for x in F.value[at])
        out[at] = (elements, forth, back)
    return out


def yoneda_check(item, result):
    for at, (elements, forth, back) in result.items():
        expect(sorted(elements) == sorted(item["F"]["value"][at]), f"Yoneda is not a bijection at {at!r}")
        expect(forth and back, f"Yoneda round trip fails at {at!r}")


def sier_sheaf(rng):
    """Any presheaf with one point over the empty open is a Sierpinski sheaf."""
    cat = SIER["cat"]
    sizes = {"{b,t}": 2, "{t}": 2, "{}": 1}
    return gen.relabel(rng, gen.template_presheaf(cat, sizes, gen.mod_fold))[0]


def classify_item(rng, i):
    if i % 2:
        return {"space": D2, "X": gen.relabel(rng, gen.functions_on_opens(D2, 2))[0]}
    return {"space": SIER, "X": sier_sheaf(rng)}


def closed_subs(item, X_raw):
    space = item["space"]
    cat = space["cat"]
    return oracle.closed_subpresheaves(cat["objects"], gen.below_map(cat), space["open_of"], X_raw)


def classify_run(item):
    st = open_site(item["space"])
    X = presheaf_on(st.category, item["X"])
    return classifier.classify_round_trip(st, X, bound=BOUND), classifier.heyting_report(st, X, bound=BOUND)


def classify_check(item, result):
    report, heyting = result
    if "count" not in item:
        item["count"] = len(closed_subs(item, item["X"]))
    expect(report.ok and not report.failures, f"classification failed: {report.failures[:1]}")
    expect(report.subobjects == report.arrows == item["count"], "|Sub(X)|, |Hom(X, Ω)| and the oracle disagree")
    expect(heyting.ok and heyting.size == item["count"], "Heyting report failed")


CONTEXT = (("x", "F"),)
# Half on each site.  A forcing op then costs less than a cocycle sweep, so
# the workload's median falls inside the cocycle ops, whose cost does not
# depend on the seed, and not where random formulas set it.
FORMULAS_PER_OP = 4


def random_formula(rng, depth, scope, fresh):
    """A well-sorted formula of depth <= ``depth`` over predicates A and B."""
    if depth == 0 or rng.random() < 0.25:
        atoms = [logic.Top(), logic.Bottom()]
        atoms += [logic.Mem(v, p) for v in scope for p in ("A", "B")]
        atoms += [logic.Eq(a, b) for a in scope for b in scope if a < b]
        return rng.choice(atoms)
    kind = rng.choice(("and", "or", "implies", "not", "exists", "forall"))
    if kind == "not":
        return logic.Not(random_formula(rng, depth - 1, scope, fresh))
    if kind in ("exists", "forall") and fresh:
        var, rest = fresh[0], fresh[1:]
        body = random_formula(rng, depth - 1, scope + [var], rest)
        return (logic.Exists if kind == "exists" else logic.Forall)(var, "F", body)
    left = random_formula(rng, depth - 1, scope, fresh)
    right = random_formula(rng, depth - 1, scope, fresh)
    return {"and": logic.And, "or": logic.Or}.get(kind, logic.Implies)(left, right)


def forcing_item(rng, i):
    item = classify_item(rng, i)
    subs = closed_subs(item, item["X"])
    item["A"], item["B"] = (subs[j] for j in rng.sample(range(len(subs)), 2))
    item["phi"] = random_formula(rng, 3, ["x"], ["y", "z"])
    return item


def forcing_run(item):
    """Forcing against the subobject semantics at every object and section,
    with monotonicity and local character."""
    st = open_site(item["space"])
    C = st.category
    F = presheaf_on(C, item["X"])
    preds = {p: ("F", classifier.subobject(F, item[p])) for p in ("A", "B")}
    model = logic.logic_model(st, {"F": F}, preds)
    phi = item["phi"]
    meaning = logic.interpret(model, phi, CONTEXT)
    mismatches = checks = 0
    for u in C.objects:
        for x in F.value[u]:
            forced = logic.forces(model, u, phi, {"x": x}, CONTEXT)
            checks += 1
            mismatches += forced != ((x,) in meaning.parts[u])
            if forced:
                for f in C.into(u):
                    checks += 1
                    mismatches += not logic.forces(model, C.src[f], phi, {"x": F.restrict[f][x]}, CONTEXT)
            for S in st.topology.covers[u]:
                locally = all(
                    logic.forces(model, C.src[f], phi, {"x": F.restrict[f][x]}, CONTEXT) for f in sorted(S.arrows)
                )
                checks += 1
                mismatches += locally and not forced
    return mismatches, checks


def forcing_check(item, result):
    mismatches, checks = result
    expect(checks > 0 and mismatches == 0, f"{mismatches} forcing checks of {checks} failed")


SHEAFIFY_CASES = [(D2, 3), (D3, 2)]


def sheafify_item(rng, i):
    space, k = SHEAFIFY_CASES[i % len(SHEAFIFY_CASES)]
    return {"space": space, "k": k, "F": gen.relabel(rng, gen.constant_on_opens(space, k))[0]}


def sheafify_run(item):
    st = open_site(item["space"])
    F = presheaf_on(st.category, item["F"])
    before = sheaf.is_sheaf(F, st.topology, bound=BOUND)
    sh, unit = sheaf.sheafify(F, st.topology, bound=BOUND)
    return before, sh, sheaf.is_sheaf(sh, st.topology, bound=BOUND)


def sheafify_check(item, result):
    """The sheafified constant presheaf is the sheaf of locally constant
    functions: k^|U| sections over a discrete open U."""
    before, sh, after = result
    expect(not before.ok and after.ok, "sheaf condition verdicts are wrong")
    sizes = {u: len(sh.value[u]) for u in sh.base.objects}
    want = {u: item["k"] ** len(o) for u, o in item["space"]["open_of"].items()}
    expect(sizes == want, f"sheafification sizes {sizes}, expected {want}")


COCYCLE_CASES = [(D2, 3, ("{a}", "{b}")), (PC, 2, ("{a,b,x}", "{a,b,y}")), (PC, 3, ("{a,b,x}", "{a,b,y}"))]


def cocycle_item(rng, i):
    space, n, cover = COCYCLE_CASES[i % len(COCYCLE_CASES)]
    G, mult = gen.locally_constant_group(space, gen.components_of(space), n)
    G, names = gen.relabel(rng, G)
    mult = {u: [[names[u][a], names[u][b], names[u][c]] for a, b, c in tab] for u, tab in mult.items()}
    return {"space": space, "cover": cover, "G": G, "mult": mult}


def cocycle_run(item):
    """Every choice of local sections of the trivial torsor gives a valid
    cocycle, and all of them are cohomologous."""
    st = open_site(item["space"])
    P = presheaf_on(st.category, item["G"])
    mult = {u: {(a, b): c for a, b, c in tab} for u, tab in item["mult"].items()}
    G = torsor.group_sheaf(P, mult)
    T = torsor.torsor_candidate(P, G, mult)
    target = gen.open_label(set().union(*(item["space"]["open_of"][u] for u in item["cover"])))
    report = torsor.is_torsor(T, st)
    cocycles, valid = [], 0
    for combo in itertools.product(*(P.value[u] for u in item["cover"])):
        sections = torsor.LocalSections(item["cover"], dict(enumerate(combo)))
        c = torsor.extract_cocycle(T, st, target, sections)
        valid += torsor.check_cocycle(c).ok
        cocycles.append(c)
    equivalent = sum(torsor.cocycles_equivalent(a, b, bound=BOUND).equivalent for a in cocycles for b in cocycles)
    return report.ok, len(cocycles), valid, equivalent


def cocycle_check(item, result):
    ok, count, valid, equivalent = result
    want = 1
    for u in item["cover"]:
        want *= len(item["G"]["value"][u])
    expect(ok, "the trivial torsor is not a torsor")
    expect(count == valid == want and equivalent == want * want, f"cocycle sweep gave {result}")


def batch(make, count):
    """One item made of ``count`` sub-items, one per rotation index.

    Every op of a kind then does the same mix of cases, so the kind's
    cost does not depend on which item a cycle lands on.
    """
    return lambda rng, i: [make(rng, j) for j in range(count)]


def run_all(run):
    return lambda items: [run(item) for item in items]


def check_all(check):
    def checked(items, results):
        for item, result in zip(items, results):
            check(item, result)

    return checked


def topos_sweep(rng, root):
    kinds = [
        ("yoneda", batch(yoneda_item, len(YONEDA_BASES)), yoneda_run, yoneda_check),
        ("classify", batch(classify_item, 2), classify_run, classify_check),
        ("forcing", batch(forcing_item, FORMULAS_PER_OP), forcing_run, forcing_check),
        ("sheafify", batch(sheafify_item, len(SHEAFIFY_CASES)), sheafify_run, sheafify_check),
        ("cocycles", batch(cocycle_item, len(COCYCLE_CASES)), cocycle_run, cocycle_check),
    ]
    kinds = [(name, pool(rng, make), run_all(run), check_all(check)) for name, make, run, check in kinds]
    return Workload("topos_sweep", kinds)


# -- cli_gallery ---------------------------------------------------------------------------
# Every README example and the sixteen invocations of acceptance criterion
# 12, each in text and JSON, plus the same subcommands over seeded
# documents passed with --docs.  Expectations are README and acceptance
# goldens, checked field by field so that new report fields do not break them.

PC_WHOLE = "{a,b,x,y}"

GALLERY = [
    ("check-sheaf --presheaf const2 --site discrete2", 1, {
        "details.failures[0].at": "{a,b}", "details.failures[0].sections": "2",
        "details.failures[0].families": "4", "details.failures[0].kind": "gluing"}),
    ("sheafify --presheaf const2 --site discrete2", 0, {
        "details.sections_after.{a,b}": "4", "details.result_is_sheaf": "True"}),
    ("omega --site sierpinski", 0, {
        "details.truth_values.{b,t}": "3", "details.truth_values.{t}": "2",
        "details.truth_values.{}": "1", "details.is_sheaf": "True"}),
    ("omega --site sierpinski --seed 7", 0, {
        "details.truth_values.{b,t}": "3", "options.seed": "7"}),
    ("classify --site sierpinski --presheaf sier-one", 0, {
        "details.subobjects": "3", "details.arrows_into_omega": "3", "details.failures": "[]"}),
    ("heyting --site sierpinski --presheaf sier-one", 0, {
        "details.excluded_middle_fails": "True", "details.double_negation_strict": "True"}),
    ("heyting --site sierpinski --presheaf sier-one --seed 7", 0, {
        "details.excluded_middle_fails": "True", "options.seed": "7"}),
    ("force --formula pc-exists-section --at " + PC_WHOLE, 0, {"details.forced": "True"}),
    ("interpret --formula sier-implication", 0, {"details.formula": "(forall y F (implies (in y A) (in y B)))"}),
    ("glue --presheaf pc-double --site pseudocircle --at {a,b} --section {a}=((0),(0)) --section {b}=((0),(1))",
     0, {"details.at": "{a,b}"}),
    ("torsor-check --site pseudocircle --action pc-action", 0, {
        "details.sections." + PC_WHOLE: "0", "details.uniquely_transitive": "True"}),
    ("glue-torsor --cocycle pc-sign", 0, {
        "details.sections." + PC_WHOLE: "0", "details.is_torsor": "True",
        "details.extracted_equivalent": "True"}),
    ("cocycle-equiv --left pc-sign --right pc-unit", 1, {"details.equivalent": "False"}),
    ("pullback --fixture c2", 0, {"details.size": "4"}),
    ("limit --diagram z2-tower4 --certify 2", 0, {"details.apex_size": "16", "details.certificate.ok": "True"}),
    ("limit --diagram z2-tower4 --certify 2 --seed 7", 0, {"details.apex_size": "16", "options.seed": "7"}),
    ("kan --direction left --diagram c2-span", 0, {
        "details.apex_size": "2", "details.agrees_with_direct_path": "True"}),
    ("yoneda --category arrow --at 1", 0, {
        "details.embedding.0.naturals": "0", "details.embedding.1.naturals": "1"}),
    ("validate-topology --site discrete3", 0, {"details.violations": "[]"}),
]

FORMATS = ("text", "json")


def flatten(value, prefix="", out=None):
    """Report fields as ``path: rendered value``, the way the text format prints them."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for k in value:
            flatten(value[k], f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(value, list) and value:
        for i, v in enumerate(value):
            flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix] = str(value)
    return out


def parse_report(fmt, text):
    if fmt == "json":
        return flatten(json.loads(text))
    fields = {}
    for line in text.splitlines():
        key, sep, val = line.partition(": ")
        if sep:
            fields[key] = val
    return fields


def cli_op(argv, fmt, code, expected):
    argv = argv + ["--format", fmt]

    def run():
        return cli.run(list(argv))

    def check(result):
        got_code, text = result
        expect(got_code == code, f"{' '.join(argv)}: exit {got_code}, expected {code}")
        fields = parse_report(fmt, text)
        want = {"verdict": "pass" if code == 0 else "fail", "options.format": fmt, **expected}
        for key, val in want.items():
            expect(fields.get(key) == val, f"{' '.join(argv)}: {key} = {fields.get(key)!r}, expected {val!r}")

    return Op(argv[0], run, check)


def category_doc(name, raw):
    return {
        "schema": 1, "kind": "category", "name": name,
        "objects": raw["objects"],
        "morphisms": [{"name": f, "src": a, "tgt": b} for f, a, b in raw["morphisms"]],
        "identities": raw["identity"],
        "compose": sorted([g, f, gf] for (g, f), gf in raw["compose"].items()),
    }


def relabelled_poset(rng, cat):
    """The same poset with random object names, so its canonical order moves."""
    name = dict(zip(cat["objects"], gen.fresh_labels(rng, len(cat["objects"]), set())))
    leq = {(name[a], name[b]) for _, a, b in cat["morphisms"]}
    return gen.poset_raw(list(name.values()), lambda a, b: (a, b) in leq), name


# Larger user documents.  Validation and document loading dominate the
# calls on the 64-object lattice; each call passes only the files it needs.
BIG_LATTICE = gen.discrete_space("abcdef")["cat"]  # 64 objects, 729 arrows
BIG_PRESHEAF_SIZE = 4
SMALL_LATTICE = gen.discrete_space("abcd")["cat"]  # 16 objects, 81 arrows
SMALL_PRESHEAF_SIZE = 3
DOC_SETS = 3  # seeded document sets per cycle, each with every command below
# The glue calls are the slowest; with three per set they are about a
# sixth of all calls, so the 90th percentile falls inside them.
GLUES_PER_SET = 3


def lattice_docs(rng, tag, lattice_raw, size):
    """A relabelled lattice category, its trivial topology and a presheaf on it."""
    lattice, name = relabelled_poset(rng, lattice_raw)
    psh, _ = gen.relabel(rng, gen.template_presheaf(lattice, dict.fromkeys(lattice["objects"], size), gen.pair_fold))
    docs = [
        category_doc(f"lattice{tag}", lattice),
        {"schema": 1, "kind": "topology", "name": f"trivial{tag}", "category": f"lattice{tag}", "covers": "trivial"},
        {"schema": 1, "kind": "presheaf", "name": f"psh{tag}", "base": f"lattice{tag}",
         "values": psh["value"], "restrictions": psh["restrict"]},
    ]
    return docs, lattice, name, psh


def document_set(rng):
    """Seeded documents, and commands over them as (line, doc names, exit code, expected fields)."""
    docs, ops = [], []
    big_docs, big, big_name, big_psh = lattice_docs(rng, "6", BIG_LATTICE, BIG_PRESHEAF_SIZE)
    docs += big_docs
    ops.append(("validate-category --category lattice6", ["lattice6"], 0,
                {"details.objects": str(len(big["objects"])), "details.morphisms": str(len(big["morphisms"]))}))
    # under the trivial topology a section glues to itself; loading dominates
    for pts in rng.sample(["abcdef", "abcde", "bcdef", "acdef"], GLUES_PER_SET):
        at = big_name[gen.open_label(pts)]
        x = rng.choice(big_psh["value"][at])
        ops.append((f"glue --presheaf psh6 --site trivial6 --at {at} --section {at}={x}",
                    ["lattice6", "trivial6", "psh6"], 0, {"details.at": at, "details.section": x}))

    small_docs, small, _, _ = lattice_docs(rng, "4", SMALL_LATTICE, SMALL_PRESHEAF_SIZE)
    docs += small_docs
    at = rng.choice(small["objects"])
    below = gen.below_map(small)
    ops.append((f"yoneda --category lattice4 --at {at}", ["lattice4"], 0, {
        f"details.embedding.{b}.naturals": str(int(b == at or (at, b) in below)) for b in small["objects"]}))
    # 3^16 candidate families on the largest sieve: above the default bound
    ops.append(("check-sheaf --presheaf psh4 --site trivial4 --bound 100000000", ["lattice4", "trivial4", "psh4"],
                0, {"details.pairs_checked": str(len(small["objects"])), "details.failures": "[]"}))

    d3, name = relabelled_poset(rng, D3["cat"])
    top = name["{a,b,c}"]
    # {a,b} and {a,c} generate a covering sieve of the whole space
    family = [f"{name[v]}<{top}" for v in ("{a,b}", "{a,c}")]
    docs.append(category_doc("d3", d3))
    docs.append({"schema": 1, "kind": "topology", "name": "dense3", "category": "d3", "covers": {top: [family]}})
    ops.append(("validate-topology --site dense3", ["d3", "dense3"], 0, {"details.violations": "[]"}))

    expected = {}
    for name, shape, dsizes in (
        ("tower", gen.chain_raw(6, "w"), dict(zip([f"w{i}" for i in range(6)], (32, 32, 16, 16, 8, 8)))),
        ("square", gen.square_raw("q"), dict.fromkeys(("q0", "q1", "q2", "q3"), 4)),
    ):
        D, _ = gen.relabel(rng, gen.template_diagram(shape, dsizes, gen.mod_fold), "action")
        docs.append(category_doc(f"{name}-shape", shape))
        docs.append({"schema": 1, "kind": "diagram", "name": name, "shape": f"{name}-shape",
                     "values": D["value"], "actions": D["action"]})
        expected[name] = (oracle.limit_size(shape, D), oracle.colimit_size(shape, D))
    tower, square = ["tower-shape", "tower"], ["square-shape", "square"]
    ops.append(("limit --diagram tower", tower, 0, {"details.apex_size": str(expected["tower"][0])}))
    ops.append(("colimit --diagram square", square, 0, {"details.apex_size": str(expected["square"][1])}))
    ops.append(("kan --direction right --diagram square", square, 0, {
        "details.apex_size": str(expected["square"][0]), "details.agrees_with_direct_path": "True"}))
    ops.append(("kan --direction left --diagram tower", tower, 0, {
        "details.apex_size": str(expected["tower"][1]), "details.agrees_with_direct_path": "True"}))
    return docs, ops


class CliWorkload(Workload):
    """The same list of CLI invocations every cycle, over documents in ``workdir``."""

    def __init__(self, ops, workdir):
        super().__init__("cli_gallery", [])
        self.ops = ops
        self.workdir = workdir

    def cycle(self, i):
        return self.ops

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def cli_gallery(rng, root):
    ops = []
    for line, code, expected in GALLERY:
        for fmt in FORMATS:
            ops.append(cli_op(line.split(" "), fmt, code, expected))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    for j in range(DOC_SETS):
        set_dir = workdir / f"set{j}"
        set_dir.mkdir()
        docs, doc_ops = document_set(rng)
        for doc in docs:
            (set_dir / f"{doc['name']}.json").write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
        for line, names, code, expected in doc_ops:
            paths = [arg for n in names for arg in ("--docs", str(set_dir / f"{n}.json"))]
            for fmt in FORMATS:
                ops.append(cli_op(line.split(" ") + paths, fmt, code, expected))
    return CliWorkload(ops, workdir)


BUILDERS = {
    "cli_gallery": cli_gallery,
    "topos_sweep": topos_sweep,
    "search_pruned": search_pruned,
    "search_dense": search_dense,
}
