"""Composite checks on generating arrows against their exhaustive oracles.

When a category has no non-identity endomorphism and no cycle of arrows,
``FinCategory.generators`` lists its irreducible arrows, and the library
checks the laws of presheaves, diagrams, naturals and matching families
on generator pairs only, through ``fincat.check_pairs``, as
``presheaf_diagram`` in naive.py does for diagrams of presheaves.  The oracles in naive.py
check every composable pair and every arrow.  Each example builds valid
tables on one of six kinds of category, applies at most one mutation,
and requires the library and the oracle to agree on the verdict, the
error class and the message.  The mutation that matters most changes
the table of an arrow that is no generator: only the proof catches it
there, through a generator pair whose composite it is.

The searches (naturals of presheaves and of diagrams, the test (co)cones
of the certificates, matching families) give the kernel one constraint
per generating arrow.  They are compared with the kernel on every arrow
and, where the candidate space is small, with the full-product oracles,
which check every arrow.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from sheafkit.errors import (
    AssociativityViolation,
    BaseMismatch,
    IncompatibleFamily,
    IntractableSize,
    MissingComposite,
    NotNatural,
    WorkbenchError,
)
from sheafkit.fincat import (
    discrete_category,
    enumerate_naturals,
    fin_functor,
    natural_index_families,
    natural_transformation,
    poset_category,
    presheaf,
    terminal_category,
    validate_category,
    yoneda_presheaf,
)
from sheafkit.kernel import encode, natural_families
from sheafkit.labels import label_key
from sheafkit.limits import certify_colimit, certify_limit, colimit, diagram, diagram_naturals, limit
from sheafkit.sheaf import induced_family, matching_families, matching_family, product_presheaf
from sheafkit.site import all_sieves, maximal_sieve

from naive import (
    naive_diagram,
    naive_diagram_naturals,
    naive_fin_functor,
    naive_matching_families,
    naive_matching_family,
    naive_natural_transformation,
    naive_naturals,
    naive_presheaf,
    naive_presheaf_diagram_commutes,
    naive_validate_category,
    presheaf_diagram,
)
from randgen import (
    cyclic_product,
    free_dag,
    isomorphism_pair,
    opposite_tables,
    random_poset,
    random_presheaf,
    raw_tables,
    renamed_arrows,
)

BASES = {
    "poset": lambda rng: raw_tables(random_poset(rng, 5)),
    # arrows in random label order, so that a pair of two composites can
    # come before every generator pair in the full check's order
    "renamed poset": lambda rng: raw_tables(renamed_arrows(rng, random_poset(rng, 5))),
    "poset x Z/n": lambda rng: cyclic_product(random_poset(rng, 3), rng.choice([2, 3])),
    "monoid Z/n": lambda rng: cyclic_product(terminal_category(), rng.choice([2, 3, 4])),
    "isomorphism pair": lambda rng: isomorphism_pair(),
    "free dag": free_dag,
}


def outcome(build, *args):
    """What ``build`` returns, or the class and message of the error it raises."""
    try:
        return build(*args)
    except WorkbenchError as err:
        return type(err), str(err)


def generator_set(C):
    return {g for gs in (C.generators or {}).values() for g in gs}


def non_generators(C):
    """The non-identity arrows that are no generator; all of them when C
    has no generators."""
    gens = generator_set(C)
    return [m for m in C.morphisms if not C.is_identity(m) and m not in gens]


def random_tables(rng, C):
    """The (value, restrict) tables of a random presheaf on C: a random
    one, a representable, or their product, on which Z/n acts freely;
    half of the time times the constant presheaf {0, 1}, so that most
    arrows have a table that can be changed."""
    F = random_presheaf(rng, C)
    if C.objects and rng.random() < 0.6:
        h = yoneda_presheaf(C, rng.choice(C.objects))
        F = h if rng.random() < 0.4 else product_presheaf(F, h)
    if rng.random() < 0.5:
        two = presheaf(C, dict.fromkeys(C.objects, (0, 1)), dict.fromkeys(C.morphisms, {0: 0, 1: 1}))
        F = product_presheaf(F, two)
    return {u: list(xs) for u, xs in F.value.items()}, {f: dict(t) for f, t in F.restrict.items()}


def remap(rng, arrows, table, choices):
    """Send one input of one arrow's table to another allowed value; the
    arrow is drawn from ``arrows`` among those where that is possible."""
    movable = [
        (f, x) for f in arrows for x in sorted(table[f], key=label_key)
        if len(choices(f)) > 1
    ]
    if movable:
        f, x = rng.choice(movable)
        table[f][x] = rng.choice([y for y in choices(f) if y != table[f][x]])


ARROWS = {
    "none": lambda C: [],
    "non-generator": non_generators,
    "any arrow": lambda C: list(C.morphisms),
}


def test_generators_are_the_hasse_edges_of_a_poset():
    for seed in range(30):
        P = random_poset(random.Random(seed), 6)
        hasse = {
            m for m in P.morphisms
            if P.src[m] != P.tgt[m] and not any(
                P.hom(P.src[m], w) and P.hom(w, P.tgt[m]) for w in P.objects if w not in (P.src[m], P.tgt[m])
            )
        }
        assert generator_set(P) == hasse
        assert set(P.generators) == set(P.objects)
        assert all(P.generators[u] == tuple(m for m in P.into(u) if m in hasse) for u in P.objects)


def test_generators_of_a_free_category_are_its_edges():
    for seed in range(30):
        C = validate_category(*free_dag(random.Random(seed)))
        assert generator_set(C) == {m for m in C.morphisms if not C.is_identity(m) and "." not in m}


def test_no_generators_with_an_endomorphism_or_a_cycle():
    rng = random.Random(0)
    for kind in ("poset x Z/n", "monoid Z/n", "isomorphism pair"):
        assert validate_category(*BASES[kind](rng)).generators is None
    # the isomorphism pair is thin: only the cycle rules it out
    assert validate_category(*isomorphism_pair()).is_thin
    assert discrete_category(["a", "b"]).generators == {"a": (), "b": ()}


# Each case builds one example and returns what the library and the
# oracle make of it: their results, or the class and message of the error.

def presheaf_case(rng, base, arrows):
    C = validate_category(*BASES[base](rng))
    value, restrict = random_tables(rng, C)
    remap(rng, ARROWS[arrows](C), restrict, lambda f: value[C.src[f]])

    def library(*args):
        F = presheaf(*args)
        return F.value, F.restrict

    args = (C, value, restrict)
    return outcome(library, *args), outcome(naive_presheaf, *args)


def diagram_case(rng, base, arrows):
    # a presheaf on C is a covariant diagram on the opposite of C
    tables = BASES[base](rng)
    C = validate_category(*tables)
    shape = validate_category(*opposite_tables(*tables))
    value, action = random_tables(rng, C)
    remap(rng, ARROWS[arrows](shape), action, lambda f: value[shape.tgt[f]])

    def library(*args):
        D = diagram(*args)
        return D.value, D.action

    args = (shape, value, action)
    return outcome(library, *args), outcome(naive_diagram, *args)


def natural_case(rng, base, arrows):
    """A natural map F => G, or the identity of F when there is none to
    hand, with one component entry changed unless ``arrows`` is "none"."""
    C = validate_category(*BASES[base](rng))
    F = presheaf(C, *random_tables(rng, C))
    G = presheaf(C, *random_tables(rng, C))
    try:
        naturals = enumerate_naturals(F, G, 10**4)
    except IntractableSize:
        naturals = ()
    if naturals:
        comp = {u: dict(t) for u, t in rng.choice(naturals).components.items()}
    else:
        G = F
        comp = {u: {x: x for x in xs} for u, xs in F.value.items()}
    if arrows != "none":
        remap(rng, list(C.objects), comp, lambda u: G.value[u])

    def library(*args):
        return natural_transformation(*args).components

    args = (F, G, comp)
    return outcome(library, *args), outcome(naive_natural_transformation, *args)


def matching_case(rng, base, arrows):
    """The family induced by a section over the apex of a random sieve,
    with its value at one arrow changed; the sieve is one that holds such
    an arrow, where there is one."""
    C = validate_category(*BASES[base](rng))
    F = presheaf(C, *random_tables(rng, C))
    changeable = {f for f in ARROWS[arrows](C) if len(F.value[C.src[f]]) > 1}
    sieves = [S for u in C.objects if F.value[u] for S in all_sieves(C, u, 10**5)]
    if not sieves:
        return None, None
    S = rng.choice([S for S in sieves if S.arrows & changeable] or sieves)
    assignment = dict(induced_family(F, S, rng.choice(F.value[S.apex])).assignment)
    movable = sorted(S.arrows & changeable, key=label_key)
    if movable:
        f = rng.choice(movable)
        assignment[f] = rng.choice([y for y in F.value[C.src[f]] if y != assignment[f]])

    def library(*args):
        return matching_family(*args).assignment

    args = (F, S, assignment)
    return outcome(library, *args), outcome(naive_matching_family, *args)


def two_point_swap():
    """A presheaf with two sections on a point, its identity and its swap."""
    B = discrete_category(["p"])
    H = presheaf(B, {"p": [0, 1]}, {})
    ident = natural_transformation(H, H, {"p": {0: 0, 1: 1}})
    swap = natural_transformation(H, H, {"p": {0: 1, 1: 0}})
    return H, ident, swap


def presheaf_diagram_case(rng, base, arrows):
    """A functor from the shape into {identity, swap} = Z/2, with the map
    along one arrow flipped: the parity of the odd generators on a path
    of a free category, the trivial functor elsewhere."""
    shape = validate_category(*BASES[base](rng))
    H, ident, swap = two_point_swap()
    odd = {g for g in generator_set(shape) if base == "free dag" and rng.random() < 0.5}
    edge = {
        f: swap if sum(e in odd for e in str(f).split(".")) % 2 else ident
        for f in shape.morphisms if not shape.is_identity(f)
    }
    movable = [f for f in ARROWS[arrows](shape) if f in edge]
    if movable:
        f = rng.choice(movable)
        edge[f] = ident if edge[f] is swap else swap
    node = dict.fromkeys(shape.objects, H)

    def library(*args):
        presheaf_diagram(*args)
        return "valid"

    def oracle(*args):
        naive_presheaf_diagram_commutes(*args)
        return "valid"

    args = (shape, node, edge)
    return outcome(library, *args), outcome(oracle, *args)


def category_case(rng, base, arrows):
    """The base's tables, with one compose entry dropped unless ``arrows`` is "none"."""
    tables = BASES[base](rng)
    comp = tables[3]
    if arrows != "none" and comp:
        del comp[rng.choice(sorted(comp, key=repr))]

    def library(*args):
        C = validate_category(*args)
        return C.objects, C.morphisms, C.src, C.tgt, C.identity, C.table

    return outcome(library, *tables, 64), outcome(naive_validate_category, *tables, 64)


CASES = {
    "presheaf": presheaf_case,
    "diagram": diagram_case,
    "natural transformation": natural_case,
    "matching family": matching_case,
    "presheaf diagram": presheaf_diagram_case,
    "category": category_case,
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(CASES)),
    st.sampled_from(sorted(BASES)),
    st.sampled_from(sorted(ARROWS)),
)
def test_validators_agree_with_their_exhaustive_oracles(seed, case, base, arrows):
    library, oracle = CASES[case](random.Random(seed), base, arrows)
    assert library == oracle


def verdict(result):
    return result[0] if isinstance(result, tuple) and len(result) == 2 and isinstance(result[0], type) else "valid"


def test_the_mutations_provoke_each_verdict():
    # the property test is only as strong as the failures its examples reach
    seen = set()
    for seed in range(60):
        for case in CASES:
            for base in BASES:
                library, _ = CASES[case](random.Random(seed), base, "none")
                seen.add((case, base, "none", verdict(library)))
                library, _ = CASES[case](random.Random(seed), base, "non-generator")
                seen.add((case, base, "changed", verdict(library)))
    for base in BASES:
        for case in CASES:
            assert (case, base, "none", "valid") in seen
        assert ("category", base, "changed", MissingComposite) in seen
    # a wrong table on an arrow that is no generator is caught through a generator pair
    for base in ("poset", "renamed poset", "free dag"):
        for case in ("presheaf", "diagram", "natural transformation"):
            assert (case, base, "changed", NotNatural) in seen
        assert ("matching family", base, "changed", IncompatibleFamily) in seen
    assert ("presheaf diagram", "free dag", "changed", BaseMismatch) in seen


# -- searches on generating arrows --------------------------------------------------

# candidate families the full-product oracles enumerate at most
ORACLE_SPACE = 3000
# test apexes of the certificates have at most this many elements
MAX_APEX = 2
# no search here is refused
BOUND = 10**12


def search_presheaf(rng, C, max_sections):
    """A small random presheaf on C, or a representable one, on which Z/n acts freely."""
    if C.objects and rng.random() < 0.4:
        return yoneda_presheaf(C, rng.choice(C.objects))
    return random_presheaf(rng, C, max_sections)


def space(F_value, G_value, objects):
    return math.prod(len(G_value[u]) ** len(F_value[u]) for u in objects)


def every_arrow(C):
    return [f for f in C.morphisms if not C.is_identity(f)]


def all_arrow_index_families(F, G):
    """The kernel's families F => G with one constraint per non-identity arrow."""
    C = F.base
    arrows = [(C.tgt[f], C.src[f], F.restrict[f], G.restrict[f]) for f in every_arrow(C)]
    return natural_families(*encode(C.objects, F.value, G.value, arrows))


def all_arrow_cone_count(F, G):
    """How many naturals F => G of diagrams the kernel finds on every arrow."""
    shape = F.shape
    arrows = [(shape.src[f], shape.tgt[f], F.action[f], G.action[f]) for f in every_arrow(shape)]
    return len(natural_families(*encode(shape.objects, F.value, G.value, arrows)))


def as_diagram(shape, F):
    """A presheaf on C as the covariant diagram on the opposite of C."""
    return diagram(shape, F.value, F.restrict)


def constant(shape, T):
    return diagram(shape, dict.fromkeys(shape.objects, T), dict.fromkeys(shape.morphisms, {t: t for t in T}))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(BASES)))
def test_searches_on_generating_arrows_lose_nothing(seed, base):
    """Each search finds what the kernel finds with a constraint on every
    non-identity arrow, in the same order, and on small candidate spaces
    what the full-product oracle finds; bases without generators (poset x
    Z/n, Z/n, the isomorphism pair) run on every arrow as before."""
    rng = random.Random(seed)
    tables = BASES[base](rng)
    C = validate_category(*tables)
    shape = validate_category(*opposite_tables(*tables))
    F, G = search_presheaf(rng, C, 2), search_presheaf(rng, C, 3)
    if rng.random() < 0.5:
        two = presheaf(C, dict.fromkeys(C.objects, (0, 1)), dict.fromkeys(C.morphisms, {0: 0, 1: 1}))
        G = product_presheaf(G, two)
    small = space(F.value, G.value, C.objects) <= ORACLE_SPACE

    # naturals of presheaves, as index families, in order
    fams = natural_index_families(F, G, BOUND)
    assert fams == all_arrow_index_families(F, G)
    if small:
        assert fams == [
            tuple(tuple(G.value[u].index(comp[u][x]) for x in F.value[u]) for u in C.objects)
            for comp in naive_naturals(F, G)
        ]

    # naturals of diagrams, as component dicts, in order
    DF, DG = as_diagram(shape, F), as_diagram(shape, G)
    nats = diagram_naturals(DF, DG, BOUND)
    assert len(nats) == all_arrow_cone_count(DF, DG)
    if small:
        assert nats == naive_diagram_naturals(DF, DG)

    # the test (co)cones of the certificates
    apexes = [tuple(f"t{i}" for i in range(s)) for s in range(MAX_APEX + 1)]
    constants = [constant(shape, T) for T in apexes]
    for D in (DF, DG):
        lcert = certify_limit(limit(D), max_apex=MAX_APEX, bound=BOUND)
        assert lcert.ok
        assert lcert.cones_checked == sum(all_arrow_cone_count(K, D) for K in constants)
        if space(dict.fromkeys(C.objects, apexes[-1]), D.value, C.objects) <= ORACLE_SPACE:
            assert lcert.cones_checked == sum(len(naive_diagram_naturals(K, D)) for K in constants)
    ccert = certify_colimit(colimit(DF), max_apex=MAX_APEX, bound=BOUND)
    assert ccert.ok
    assert ccert.cones_checked == sum(all_arrow_cone_count(DF, K) for K in constants)
    if space(F.value, dict.fromkeys(C.objects, apexes[-1]), C.objects) <= ORACLE_SPACE:
        assert ccert.cones_checked == sum(len(naive_diagram_naturals(DF, K)) for K in constants)

    # matching families over every sieve on one object
    if C.objects:
        for S in all_sieves(C, rng.choice(C.objects), 10**5):
            found = matching_families(G, S, BOUND)
            assert len(found) == len(all_arrow_index_families(S.presheaf, G))
            if math.prod(len(G.value[C.src[f]]) for f in S.arrows) <= ORACLE_SPACE:
                oracle = naive_matching_families(G, S.arrows, C)
                assert len(found) == len(oracle)
                assert {frozenset(m.assignment.items()) for m in found} == {frozenset(m.items()) for m in oracle}


# -- the first failure, in the order of the full check --------------------------------
# On the chain 0 < 1 < 2 < 3 with the arrow a -> b named (b, -a), the arrow
# 2 -> 3 comes before 1 -> 3.  Breaking the table of 0 -> 3 fails at the
# pair (2 -> 3, 0 -> 2) first, whose inner arrow is no generator, and at
# (1 -> 3, 0 -> 1) among generator pairs.  Every validator must name the first.

def reversed_chain(name=lambda a, b: (b, -a)):
    return poset_category(range(4), lambda a, b: a <= b, name=name)


def two_sections(C):
    return dict.fromkeys(C.objects, (0, 1)), {f: {0: 0, 1: 1} for f in C.morphisms}


SWAP = {0: 1, 1: 0}


def test_a_cycle_keeps_the_full_check():
    # the irreducible arrows i, j and k reach no pair (k, f): twisting kf
    # and kg alike passes every pair with a generator inside, but breaks
    # restrict(k∘f) = restrict(f)∘restrict(k)
    C = validate_category(*isomorphism_pair())
    value, tables = two_sections(C)
    tables["kf"] = tables["kg"] = SWAP
    message = "contravariance fails: restrict('k'∘'f') != restrict('f')∘restrict('k') at 0"
    assert outcome(presheaf, C, value, tables) == (NotNatural, message)
    assert outcome(naive_presheaf, C, value, tables) == (NotNatural, message)


def test_presheaf_and_diagram_name_the_first_pair_in_full_order():
    C = reversed_chain()
    value, tables = two_sections(C)
    tables[(3, 0)] = SWAP
    message = "contravariance fails: restrict((3, -2)∘(2, 0)) != restrict((2, 0))∘restrict((3, -2)) at 0"
    assert outcome(presheaf, C, value, tables) == (NotNatural, message)
    assert outcome(naive_presheaf, C, value, tables) == (NotNatural, message)
    assert (2, 0) not in generator_set(C)
    message = "functoriality fails along ((3, -2), (2, 0)) at 0"
    assert outcome(diagram, C, value, tables) == (NotNatural, message)
    assert outcome(naive_diagram, C, value, tables) == (NotNatural, message)


def test_functor_into_a_category_that_is_not_thin_names_the_first_pair_in_full_order():
    C = reversed_chain()
    T = validate_category(*cyclic_product(C, 2))
    images = {m: (m, 0) for m in C.morphisms}
    images[(3, 0)] = ((3, 0), 1)
    args = (C, T, {u: u for u in C.objects}, images)
    message = "functor breaks composition at ((3, -2), (2, 0))"
    assert outcome(fin_functor, *args) == (AssociativityViolation, message)
    assert outcome(naive_fin_functor, *args) == (AssociativityViolation, message)


def test_presheaf_diagram_names_the_first_pair_in_full_order():
    shape = reversed_chain()
    H, ident, swap = two_point_swap()
    edge = {f: ident for f in shape.morphisms if not shape.is_identity(f)}
    edge[(3, 0)] = swap
    args = (shape, dict.fromkeys(shape.objects, H), edge)
    message = "diagram does not commute along ((3, -2), (2, 0))"
    assert outcome(presheaf_diagram, *args) == (BaseMismatch, message)
    assert outcome(naive_presheaf_diagram_commutes, *args) == (BaseMismatch, message)


def test_natural_transformation_names_the_first_square_in_full_order():
    # longest arrows first: the square along 0 -> 3 fails before 0 -> 1
    C = reversed_chain(lambda a, b: (a - b, a))
    F = presheaf(C, *two_sections(C))
    comp = {u: {0: 0, 1: 1} for u in C.objects}
    comp[0] = SWAP
    message = "naturality square fails along (-3, 0) at 0"
    assert outcome(natural_transformation, F, F, comp) == (NotNatural, message)
    assert outcome(naive_natural_transformation, F, F, comp) == (NotNatural, message)
    assert (-3, 0) not in generator_set(C)


def test_matching_family_names_the_first_pair_in_full_order():
    C = reversed_chain()
    F = presheaf(C, *two_sections(C))
    S = maximal_sieve(C, 3)
    assignment = dict.fromkeys(S.arrows, 0)
    assignment[(3, 0)] = 1
    # the pairs (f, g) with f∘g = 0 -> 3 fail; the first f in the sieve's
    # order is not 1 -> 3, the only one whose g is a generator
    first = next(f for f in S.arrows if f in ((3, -3), (3, -2), (3, -1)))
    assert first != (3, -1)
    g = {(3, -3): (3, 0), (3, -2): (2, 0)}[first]
    message = f"family disagrees along {g!r}: m({first!r}∘{g!r}) != m({first!r})|{g!r}"
    assert outcome(matching_family, F, S, assignment) == (IncompatibleFamily, message)
    assert outcome(naive_matching_family, F, S, assignment) == (IncompatibleFamily, message)
