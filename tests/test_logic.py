"""Kripke-Joyal forcing and compositional subobject semantics."""

import gc
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafkit import logic
from sheafkit.classifier import enumerate_subobjects, subobject
from sheafkit.errors import (
    IllSorted,
    IntractableSize,
    ParseError,
    UnknownObject,
    UnknownSubobject,
    UsageError,
    WorkbenchError,
)
from sheafkit.fincat import presheaf, yoneda_presheaf
from sheafkit.gallery import discrete2_site, discrete3_site, pseudocircle_site, sierpinski_site
from sheafkit.logic import (
    And,
    Bottom,
    Eq,
    Exists,
    Forall,
    Implies,
    LogicModel,
    Mem,
    Not,
    Or,
    Top,
    check_sorting,
    forces,
    format_formula,
    interpret,
    logic_model,
    parse_formula,
)
from sheafkit.sheaf import terminal_presheaf
from sheafkit.site import Site, trivial_topology

from formula_corpus import (
    CONTEXT,
    excluded_middle,
    full_corpus,
    standard_model,
    tautology_list,
)
from naive import implies_sub, naive_forces, naive_interpret
import randgen
from randgen import random_base, random_presheaf, random_space_site


def all_environments(model, context, u):
    envs = [{}]
    for v, s in context:
        envs = [{**e, v: x} for e in envs for x in model.sorts[s].value[u]]
    return envs


# -- parsing ------------------------------------------------------------------

def test_parse_round_trip():
    texts = [
        "(forall x F (implies (in x A) (in x B)))",
        "(or (in x A) (not (in x A)))",
        "(exists y F (and (eq x y) true))",
        "(true)",
        "false",
    ]
    for text in texts:
        phi = parse_formula(text)
        assert parse_formula(format_formula(phi)) == phi


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError, match="column"):
        parse_formula("(and (in x A)")
    with pytest.raises(ParseError):
        parse_formula("(frob x)")
    with pytest.raises(ParseError):
        parse_formula("(true) (true)")


# -- sorting ------------------------------------------------------------------------

def test_sorting_discipline():
    model = standard_model(sierpinski_site())
    with pytest.raises(IllSorted):
        check_sorting(model, Mem("z", "A"), CONTEXT)
    with pytest.raises(UnknownSubobject):
        check_sorting(model, Mem("x", "Z"), CONTEXT)
    with pytest.raises(IllSorted):
        check_sorting(model, Exists("x", "F", Mem("x", "A")), CONTEXT)  # rebinding
    with pytest.raises(IllSorted):
        check_sorting(model, Exists("y", "G", Top()), CONTEXT)  # unknown sort


def test_check_sorting_measures_depth():
    """Every connective and quantifier adds one level."""
    model = standard_model(sierpinski_site())
    phi = And(Exists("y", "F", Forall("z", "F", Eq("y", "z"))), Or(Top(), Exists("w", "F", Mem("w", "A"))))
    with mock.patch.object(logic, "DEFAULT_FORMULA_DEPTH", 3):
        check_sorting(model, phi, CONTEXT)
    with mock.patch.object(logic, "DEFAULT_FORMULA_DEPTH", 2):
        with pytest.raises(IntractableSize, match="formula depth"):
            check_sorting(model, phi, CONTEXT)


# -- base clauses ----------------------------------------------------------------------

def test_top_is_forced_everywhere_and_bottom_only_over_the_empty_open():
    site = sierpinski_site()
    model = standard_model(site)
    for u in site.category.objects:
        for env in all_environments(model, CONTEXT, u):
            assert forces(model, u, Top(), env, CONTEXT)
            expected = not site.open_of[u]  # empty sieve covers exactly the empty open
            assert forces(model, u, Bottom(), env, CONTEXT) == expected


def test_local_equality_of_distinct_sections():
    # a non-separated presheaf: two sections over D that agree on the cover
    site = discrete2_site()
    C = site.category
    D2 = "{a,b}"
    P = presheaf(
        C,
        {D2: ("u", "v"), "{a}": ("s",), "{b}": ("t",), "{}": ("*",)},
        {
            f"{{a}}<{D2}": {"u": "s", "v": "s"},
            f"{{b}}<{D2}": {"u": "t", "v": "t"},
            f"{{}}<{D2}": {"u": "*", "v": "*"},
            "{}<{a}": {"s": "*"},
            "{}<{b}": {"t": "*"},
        },
    )
    model = logic_model(site, {"P": P}, {})
    ctx = (("x", "P"), ("y", "P"))
    phi = Eq("x", "y")
    assert forces(model, D2, phi, {"x": "u", "y": "v"}, ctx)
    assert naive_forces(model, D2, phi, {"x": "u", "y": "v"}, ctx)


def test_existence_forced_locally_without_a_global_section():
    site = discrete2_site()
    C = site.category
    D2 = "{a,b}"
    Q = presheaf(
        C,
        {D2: (), "{a}": ("s",), "{b}": ("t",), "{}": ("*",)},
        {
            f"{{a}}<{D2}": {}, f"{{b}}<{D2}": {}, f"{{}}<{D2}": {},
            "{}<{a}": {"s": "*"}, "{}<{b}": {"t": "*"},
        },
    )
    one = terminal_presheaf(C)
    model = logic_model(site, {"Q": Q, "F": one}, {})
    phi = Exists("y", "Q", Top())
    assert len(Q.value[D2]) == 0
    assert forces(model, D2, phi, {}, ())
    assert naive_forces(model, D2, phi, {}, ())


# -- the three headline properties -----------------------------------------------------

@pytest.mark.parametrize("make_site", [sierpinski_site, discrete2_site])
def test_monotonicity_on_the_corpus(make_site):
    site = make_site()
    model = standard_model(site)
    C = site.category
    for phi in full_corpus():
        for u in C.objects:
            for env in all_environments(model, CONTEXT, u):
                if not forces(model, u, phi, env, CONTEXT):
                    continue
                for f in C.into(u):
                    v = C.src[f]
                    env_v = {
                        w: model.sorts[dict(CONTEXT)[w]].restrict[f][x]
                        for w, x in env.items()
                    }
                    assert forces(model, v, phi, env_v, CONTEXT), format_formula(phi)


@pytest.mark.parametrize("make_site", [sierpinski_site, discrete2_site])
def test_local_character_on_the_corpus(make_site):
    site = make_site()
    model = standard_model(site)
    C = site.category
    for phi in full_corpus():
        for u in C.objects:
            for env in all_environments(model, CONTEXT, u):
                for S in site.topology.covers[u]:
                    locally = all(
                        forces(
                            model,
                            C.src[f],
                            phi,
                            {
                                w: model.sorts[dict(CONTEXT)[w]].restrict[f][x]
                                for w, x in env.items()
                            },
                            CONTEXT,
                        )
                        for f in S.arrows
                    )
                    if locally:
                        assert forces(model, u, phi, env, CONTEXT), format_formula(phi)


@pytest.mark.parametrize("make_site", [sierpinski_site, discrete2_site, pseudocircle_site])
def test_engine_equivalence_on_the_corpus(make_site):
    """The Kripke-Joyal clauses, run recursively, agree with ``forces`` and
    with membership in ``interpret`` at every object and environment."""
    site = make_site()
    model = standard_model(site)
    C = site.category
    for phi in full_corpus():
        meaning = interpret(model, phi, CONTEXT)
        for u in C.objects:
            for env in all_environments(model, CONTEXT, u):
                expected = naive_forces(model, u, phi, env, CONTEXT)
                assert forces(model, u, phi, env, CONTEXT) == expected, format_formula(phi)
                assert ((env["x"],) in meaning.parts[u]) == expected, format_formula(phi)


# -- intuitionistic soundness -----------------------------------------------------------

def valuations(site):
    one = terminal_presheaf(site.category)
    subs = enumerate_subobjects(site.topology, one)
    for P in subs:
        for Q in subs:
            for R in subs:
                yield logic_model(
                    site, {"F": one},
                    {"P": ("F", P), "Q": ("F", Q), "R": ("F", R)},
                )


@pytest.mark.parametrize("make_site", [sierpinski_site, discrete2_site])
def test_intuitionistic_tautologies_forced_everywhere(make_site):
    site = make_site()
    for model in valuations(site):
        for phi in tautology_list():
            for u in site.category.objects:
                for env in all_environments(model, CONTEXT, u):
                    assert forces(model, u, phi, env, CONTEXT), format_formula(phi)


def test_excluded_middle_fails_on_sierpinski():
    site = sierpinski_site()
    one = terminal_presheaf(site.category)
    subs = enumerate_subobjects(site.topology, one)
    top_open = "{b,t}"
    failures = 0
    for P in subs:
        model = logic_model(site, {"F": one}, {"P": ("F", P)})
        if not forces(model, top_open, excluded_middle(), {"x": ()}, CONTEXT):
            failures += 1
    assert failures > 0


def test_interpretation_of_atoms_and_connectives_is_definitional():
    site = sierpinski_site()
    model = standard_model(site)
    A = model.predicates["A"][1]
    B = model.predicates["B"][1]
    mem = interpret(model, Mem("x", "A"), CONTEXT)
    assert {u: {t[0] for t in mem.parts[u]} for u in site.category.objects} == {
        u: set(A.parts[u]) for u in site.category.objects
    }
    imp = interpret(model, Implies(Mem("x", "A"), Mem("x", "B")), CONTEXT)
    direct = implies_sub(A, B)
    assert {u: {t[0] for t in imp.parts[u]} for u in site.category.objects} == {
        u: set(direct.parts[u]) for u in site.category.objects
    }
    top = interpret(model, Top(), CONTEXT)
    assert all(len(top.parts[u]) == len(model.sorts["F"].value[u]) for u in site.category.objects)


def test_interpret_checks_every_context_product_against_the_bound():
    # three nested quantifiers over a two-section sort: 2**3 tuples at each object
    site = discrete2_site()
    two = presheaf(site.category, {u: ("p", "q") for u in site.category.objects},
                   {f: {"p": "p", "q": "q"} for f in site.category.morphisms})
    model = logic_model(site, {"S": two}, {})
    phi = Exists("v0", "S", Exists("v1", "S", Exists("v2", "S", Top())))
    assert interpret(model, phi, (), bound=8).parts == interpret(model, phi, ()).parts
    with pytest.raises(IntractableSize) as info:
        interpret(model, phi, (), bound=7)
    assert (info.value.search, info.value.size, info.value.bound) == ("context product", 8, 7)


def refusal(engine, *args):
    """The search, size and bound of the IntractableSize ``engine`` raises, if any."""
    try:
        engine(*args)
    except IntractableSize as err:
        return err.search, err.size, err.bound
    return None


def test_forcing_refuses_exactly_where_interpret_does():
    # S shrinks and R grows toward the empty open, so which context crosses
    # the bound first, and the size it reports, depend on the order the
    # contexts are checked in
    site = discrete2_site()
    C = site.category

    def sort(size):
        return presheaf(C, {u: tuple(range(size[u])) for u in C.objects},
                        {f: {i: min(i, size[C.src[f]] - 1) for i in range(size[C.tgt[f]])} for f in C.morphisms})

    S = sort({"{a,b}": 3, "{a}": 2, "{b}": 2, "{}": 1})
    R = sort({"{a,b}": 1, "{a}": 2, "{b}": 2, "{}": 4})
    model = logic_model(site, {"S": S, "R": R}, {})
    formulas = [
        Top(),
        Exists("v0", "S", Top()),
        Or(Exists("v0", "S", Top()), Exists("v1", "R", Top())),
        Or(Exists("v1", "R", Top()), Exists("v0", "S", Top())),
        And(Forall("v0", "S", Exists("v1", "R", Top())), Exists("v2", "S", Top())),
        Or(Exists("v0", "R", Top()), Forall("v1", "S", Forall("v2", "S", Eq("v1", "v2")))),
        Not(Implies(Forall("v0", "R", Top()), Exists("v1", "S", Exists("v2", "S", Exists("v3", "S", Top()))))),
    ]
    refused = set()
    for phi in formulas:
        for context in ((), (("x", "S"),), (("x", "R"),)):
            env = {v: 0 for v, _ in context}
            for bound in range(30):
                expected = refusal(interpret, model, phi, context, bound)
                assert refusal(forces, model, "{}", phi, env, context, bound) == expected
                refused.add(expected and expected[1])
    assert {None, 3, 4} <= refused


# -- interpret against the oracle on Subobject parts -------------------------------------

def assert_same_meaning(meaning, expected):
    assert meaning.parts == expected.parts
    assert list(meaning.parts) == list(expected.parts)
    assert meaning.key() == expected.key()


@pytest.mark.parametrize("make_site", [sierpinski_site, discrete2_site])
def test_interpret_matches_the_oracle_on_the_corpus(make_site):
    model = standard_model(make_site())
    for phi in full_corpus():
        assert_same_meaning(interpret(model, phi, CONTEXT), naive_interpret(model, phi, CONTEXT))


def random_formula(rng, depth, scope, fresh):
    """A well-sorted formula of depth <= ``depth`` over sorts F and G;
    ``scope`` maps each bound variable to its sort and ``fresh`` lists the
    variables left to bind."""
    if depth == 0 or rng.random() < 0.25:
        atoms = [Top(), Bottom()]
        atoms += [Mem(v, p) for v, s in scope.items() for p, ps in PREDICATE_SORTS.items() if ps == s]
        atoms += [Eq(a, b) for a in scope for b in scope if a < b and scope[a] == scope[b]]
        return rng.choice(atoms)
    kind = rng.choice(("and", "or", "implies", "not", "exists", "forall"))
    if kind == "not":
        return Not(random_formula(rng, depth - 1, scope, fresh))
    if kind in ("exists", "forall") and fresh:
        var, sort = fresh[0], rng.choice(("F", "G"))
        body = random_formula(rng, depth - 1, {**scope, var: sort}, fresh[1:])
        return (Exists if kind == "exists" else Forall)(var, sort, body)
    left = random_formula(rng, depth - 1, scope, fresh)
    right = random_formula(rng, depth - 1, scope, fresh)
    return {"and": And, "or": Or}.get(kind, Implies)(left, right)


# predicates A and B live on sort F, predicate P on sort G
PREDICATE_SORTS = {"A": "F", "B": "F", "P": "G"}


def random_site(rng):
    """A random base with the trivial topology, a site from
    ``randgen.random_site`` (often a topology where a sieve other than the
    maximal one covers), or the open-cover site of a random or a gallery
    space, where the empty sieve covers the empty open and an open may be
    covered by smaller ones."""
    kind = rng.choice(("trivial", "random", "space", "gallery"))
    if kind == "space":
        return random_space_site(rng)
    if kind == "gallery":
        return rng.choice((discrete2_site, discrete3_site, pseudocircle_site))()
    if kind == "random":
        return randgen.random_site(rng)
    C = random_base(rng)
    return Site(C, trivial_topology(C))


def random_subpresheaf(rng, F):
    """The presheaf of sections generated by a random set of sections of F.
    It is seldom closed, so it may have sections on a cover of an object
    but none on the object itself."""
    C = F.base
    keep = {u: set() for u in C.objects}
    for u in C.objects:
        for x in F.value[u]:
            if rng.random() < 0.5:
                for f in C.into(u):
                    keep[C.src[f]].add(F.restrict[f][x])
    return presheaf(C, keep, {f: {x: F.restrict[f][x] for x in keep[C.tgt[f]]} for f in C.morphisms})


def random_model(rng):
    """Sorts F and G on a random site, with random closed predicates."""
    site = random_site(rng)
    C, J = site.category, site.topology
    F = random_presheaf(rng, C)
    G = rng.choice((
        random_presheaf(rng, C, 2),
        yoneda_presheaf(C, rng.choice(C.objects)) if C.objects else F,
        random_subpresheaf(rng, random_presheaf(rng, C)),
    ))
    sorts = {"F": F, "G": G}
    preds = {}
    for name, sort in PREDICATE_SORTS.items():
        closed = enumerate_subobjects(J, sorts[sort])
        preds[name] = (sort, rng.choice(closed))
    return logic_model(site, sorts, preds)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=True))
def test_interpret_matches_the_oracle_on_random_formulas(rng):
    """The mask engine and the oracle on parts give the same subobject, key
    order included, and refuse the same formulas at the same bounds.  The
    random draws are uniform (a derandomized seed), since Hypothesis's own
    draws lean so far toward 0 that most formulas would be single atoms."""
    model = random_model(rng)
    for _ in range(4):
        context = rng.choice(((), (("x", "F"),), (("x", "F"), ("y", "G"))))
        phi = random_formula(rng, 3, dict(context), ["v0", "v1"])
        assert_same_meaning(interpret(model, phi, context), naive_interpret(model, phi, context))
        bound = rng.randrange(30)
        assert refusal(interpret, model, phi, context, bound) == refusal(naive_interpret, model, phi, context, bound)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_forcing_matches_the_kripke_joyal_oracle_on_random_formulas(seed):
    """At every object and environment, ``forces`` and membership in
    ``interpret`` are what the recursive Kripke-Joyal clauses decide."""
    rng = random.Random(seed)
    model = random_model(rng)
    for _ in range(3):
        context = rng.choice(((), (("x", "F"),), (("x", "F"), ("y", "G"))))
        phi = random_formula(rng, 3, dict(context), ["v0", "v1"])
        meaning = interpret(model, phi, context)
        for u in model.site.category.objects:
            for env in all_environments(model, context, u):
                expected = naive_forces(model, u, phi, env, context)
                assert forces(model, u, phi, env, context) == expected, format_formula(phi)
                assert (tuple(env[v] for v, _ in context) in meaning.parts[u]) == expected, format_formula(phi)


QUANTIFIED_SHARE = 0.5
NESTED_SHARE = 0.15


def quantifier_depth(phi):
    """The largest number of quantifiers on one branch of phi."""
    if isinstance(phi, (Exists, Forall)):
        return 1 + quantifier_depth(phi.body)
    if isinstance(phi, Not):
        return quantifier_depth(phi.body)
    if isinstance(phi, (And, Or, Implies)):
        return max(quantifier_depth(phi.left), quantifier_depth(phi.right))
    return 0


def test_random_formulas_are_often_quantified():
    """Over 400 fixed seeds, 53% of the generator's formulas carry a
    quantifier and 19.25% a nested one.  The floors, just under those
    shares, keep the oracle comparisons on quantified formulas."""
    depths = []
    for seed in range(400):
        rng = random.Random(seed)
        context = rng.choice(((), (("x", "F"),), (("x", "F"), ("y", "G"))))
        depths.append(quantifier_depth(random_formula(rng, 3, dict(context), ["v0", "v1"])))
    assert sum(d >= 1 for d in depths) / len(depths) >= QUANTIFIED_SHARE
    assert sum(d >= 2 for d in depths) / len(depths) >= NESTED_SHARE


def test_a_context_of_lists_means_the_same_as_a_context_of_pairs():
    model = standard_model(sierpinski_site())
    phi = Or(Mem("x", "A"), Exists("y", "F", And(Eq("x", "y"), Mem("y", "B"))))
    listed = [["x", "F"]]
    assert_same_meaning(interpret(model, phi, listed), interpret(model, phi, CONTEXT))
    for u in model.site.category.objects:
        for env in all_environments(model, CONTEXT, u):
            assert forces(model, u, phi, env, listed) == forces(model, u, phi, env, CONTEXT)


# -- one forcing memo per model ---------------------------------------------------------

def fresh(model):
    """The same model with an empty memo: a query on it is sorted, checked
    and interpreted afresh."""
    return LogicModel(model.site, model.sorts, model.predicates)


def outcome(model, *query):
    """What ``forces`` returns for the query, or the class and message it raises."""
    try:
        return forces(model, *query)
    except WorkbenchError as err:
        return type(err), str(err)


@pytest.mark.parametrize("make_site", [sierpinski_site, discrete2_site])
def test_a_shared_model_answers_as_a_fresh_one_in_any_order_on_the_corpus(make_site):
    model = standard_model(make_site())
    C = model.site.category
    queries = [
        (u, phi, env)
        for phi in full_corpus()
        for u in C.objects
        for env in all_environments(model, CONTEXT, u)
    ]
    random.Random(7).shuffle(queries)
    for u, phi, env in queries:
        shared, alone = forces(model, u, phi, env, CONTEXT), forces(fresh(model), u, phi, env, CONTEXT)
        assert shared == alone, format_formula(phi)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=True))
def test_a_shared_model_answers_as_a_fresh_one_on_random_models(rng):
    """Answers and refusals of one model asked a shuffled mix of queries,
    at random bounds, against a fresh model per query.  Wherever forcing
    answers at the default bound, it agrees with ``interpret``."""
    model = random_model(rng)
    C = model.site.category
    queries, meanings = [], {}
    for _ in range(3):
        context = rng.choice(((), (("x", "F"),), (("x", "F"), ("y", "G"))))
        phi = random_formula(rng, 3, dict(context), ["v0", "v1"])
        meanings[phi, context] = interpret(model, phi, context)
        for u in C.objects:
            for env in all_environments(model, context, u):
                queries.append((u, phi, env, context, rng.choice((None, rng.randrange(30)))))
    rng.shuffle(queries)
    for u, phi, env, context, bound in queries:
        got = outcome(model, u, phi, env, context, bound)
        assert got == outcome(fresh(model), u, phi, env, context, bound)
        if bound is None:
            assert got == (tuple(env[v] for v, _ in context) in meanings[phi, context].parts[u])


def test_an_equal_formula_object_is_the_same_query():
    """An equal but distinct formula object is answered from the memo, also
    after the first objects were freed and collected, when new formulas
    may take over their addresses; every answer is a fresh model's."""
    model = standard_model(discrete2_site())
    C = model.site.category
    texts = [format_formula(phi) for phi in full_corpus()]
    with mock.patch.object(logic, "check_sorting", wraps=check_sorting) as sorting:
        for _ in range(2):
            formulas = [parse_formula(text) for text in texts]
            for phi in formulas:
                for u in C.objects:
                    query = (u, phi, {"x": ()}, CONTEXT)
                    assert forces(model, *query) == forces(fresh(model), *query)
            del formulas, phi, query
            gc.collect()
    # one sorting per distinct formula on the shared model, one per query on the fresh ones
    assert sorting.call_count == len(set(texts)) + 2 * len(texts) * len(C.objects)


def test_sibling_quantifiers_may_bind_one_variable_in_two_sorts():
    """Scope is per branch, so v and w are Fs in one conjunct and Gs in
    the other; forcing restricts each along its own sort, as interpret does."""
    site = sierpinski_site()
    C = site.category
    G = yoneda_presheaf(C, "{b,t}")
    model = logic_model(site, {"F": terminal_presheaf(C), "G": G}, {})
    phi = And(Forall("v", "F", Forall("w", "F", Eq("v", "w"))), Exists("v", "G", Forall("w", "G", Eq("v", "w"))))
    for u in C.objects:
        assert forces(model, u, phi, {}, ()) == naive_forces(model, u, phi, {}, ())


def test_a_failing_query_raises_the_same_error_every_time_on_one_model():
    """Errors come in a fixed order: scope, the depth bound, the object, the
    environment, the bound's value, then the context products.  Asked
    between successful queries, each is the error a fresh model raises."""
    model = standard_model(sierpinski_site())
    good = ("{t}", Exists("y", "F", Mem("y", "A")), {"x": ()}, CONTEXT)
    deep = Top()
    for _ in range(40):
        deep = Not(deep)
    bad = [
        (("{t}", Mem("z", "A"), {"x": ()}, CONTEXT), IllSorted),
        (("nowhere", Mem("z", "A"), {"y": ()}, CONTEXT), IllSorted),
        (("nowhere", deep, {"y": ()}, CONTEXT), IntractableSize),
        (("nowhere", Mem("x", "A"), {"y": ()}, CONTEXT), UnknownObject),
        (("{t}", Mem("x", "A"), {"y": ()}, CONTEXT, -1), IllSorted),
        (("{t}", Mem("x", "A"), {"x": "no section"}, CONTEXT), IllSorted),
        (("{t}", Mem("x", "A"), {"x": ()}, CONTEXT, -1), UsageError),
        ((*good, 0), IntractableSize),
    ]
    expected = [outcome(fresh(model), *query) for query, _ in bad]
    assert [err for err, _ in expected] == [kind for _, kind in bad]
    for _ in range(2):
        for (query, _), want in zip(bad, expected):
            assert outcome(model, *good) is True
            assert outcome(model, *query) == want


def test_a_passed_bound_excuses_no_smaller_bound(monkeypatch):
    """After a query passes at one bound, a smaller bound, explicit or from
    WORKBENCH_BOUND, is checked again and refused."""
    site = discrete2_site()
    two = presheaf(site.category, {u: ("p", "q") for u in site.category.objects},
                   {f: {"p": "p", "q": "q"} for f in site.category.morphisms})
    model = logic_model(site, {"S": two}, {})
    phi = Exists("v0", "S", Exists("v1", "S", Exists("v2", "S", Top())))
    query = (model, "{a}", phi, {}, ())
    assert refusal(forces, *query, 1000) is None
    assert refusal(forces, *query, 7) == ("context product", 8, 7)
    assert refusal(forces, *query, 8) is None
    monkeypatch.setenv("WORKBENCH_BOUND", "7")
    assert refusal(forces, *query) == ("context product", 8, 7)
    monkeypatch.setenv("WORKBENCH_BOUND", "-3")
    with pytest.raises(UsageError, match="WORKBENCH_BOUND"):
        forces(*query)
    monkeypatch.delenv("WORKBENCH_BOUND")
    assert forces(*query)
