"""The enumeration kernel against the slot-level reference enumerator,
and the down-set enumerator against a filter of every subset.

``naive.naive_natural_families`` has the kernel's contract and output
order but never narrows single elements, so the two agree only if the
kernel's pruning pass and forward checking lose no family and keep the
order.
``naive.naive_decode`` builds each family's outer dict from all of its
slots, so ``decode`` agrees with it only if sharing prefixes between
neighbouring families loses no slot and keeps every key order.
"""

import ast
import gc
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sheafkit
from sheafkit import kernel
from sheafkit.fincat import (
    discrete_category,
    enumerate_naturals,
    natural_index_families,
    natural_transformation,
    presheaf,
    terminal_category,
    validate_category,
    yoneda_presheaf,
)
from sheafkit.gallery import const2_presheaf, discrete2_site
from sheafkit.kernel import decode, down_sets, encode, natural_families
from sheafkit.sheaf import matching_families, product_presheaf
from sheafkit.site import all_sieves, generate_sieve

from naive import naive_decode, naive_natural_families, naive_naturals
from randgen import cyclic_product, random_poset, random_presheaf


CASES = [
    # (f_sizes, g_sizes, morphisms)
    ([], [], []),
    ([0], [0], []),
    ([2], [3], []),
    ([2, 1], [2, 1], [(1, 0, [0], [0, 0])]),
    ([3, 0, 2], [2, 2, 2], [(0, 2, [0, 1, 1], [1, 0])]),
    ([1], [0], []),
    # p == q: an endomorphism filters the slot's own candidates
    ([2], [2], [(0, 0, [1, 0], [1, 0])]),
    # two elements of slot 0 force one element of slot 1: they conflict
    # unless gtab agrees on both
    ([2, 1], [2, 2], [(0, 1, [0, 0], [0, 1])]),
    # a forced value outside the preimage narrowing of a later constraint
    ([1, 1, 1], [2, 2, 2], [(0, 2, [0], [1, 1]), (2, 1, [0], [0, 0])]),
    # slots 0 and 2 both force element 0 of slot 3, with a free slot
    # between them: the early check at slot 2 keeps the pairs that agree
    ([1, 2, 1, 1], [2, 2, 2, 2], [(0, 3, [0], [0, 1]), (2, 3, [0], [1, 0])]),
    # ... and rejects every pair when they never agree
    ([1, 2, 1, 1], [2, 2, 2, 2], [(0, 3, [0], [0, 0]), (2, 3, [0], [1, 1])]),
    # three forcers of one element, two of them in one slot
    ([2, 1, 1, 2], [3, 2, 2, 2], [(0, 3, [1, 1], [0, 1, 1]), (1, 3, [1], [1, 0]), (2, 3, [1], [0, 1])]),
    # single-function slots (no source values, or one target value) first,
    # in the middle and last, with constraints running through them
    ([0, 2, 1, 2, 0], [3, 2, 1, 2, 4], [(1, 2, [0, 0], [0, 0]), (3, 2, [0, 0], [0, 0]), (1, 3, [1, 0], [1, 0])]),
    ([2, 0, 1, 2, 1], [1, 2, 1, 3, 1], [(3, 0, [1, 0], [0, 0, 0]), (3, 4, [0, 0], [0, 0, 0]), (3, 2, [0, 0], [0, 0, 0])]),
    ([0, 0, 1, 0], [3, 1, 2, 1], [(1, 2, [], [1]), (3, 2, [], [0])]),
    # every slot has one function
    ([1, 1], [1, 1], [(0, 1, [0], [0])]),
    # a slot with one target value that narrows an earlier slot is searched:
    # here slot 1 forces slot 0's second element to 2
    ([2, 1], [3, 1], [(1, 0, [1], [2])]),
    # ... and so is one that an early forcer check lands on
    ([1, 1, 1], [2, 1, 2], [(0, 2, [0], [0, 1]), (1, 2, [0], [1])]),
    # p == q on single-function slots
    ([2, 2], [2, 1], [(1, 1, [1, 0], [0])]),
    ([0, 2], [2, 2], [(0, 0, [], [1, 0]), (1, 1, [0, 0], [0, 1])]),
    # a slot with source values and no target values: no family at all
    ([0, 1, 2], [1, 0, 2], []),
    # the pass cuts slot 0 to one value per element, (1, 1): slot 0 is still
    # searched, and its swap filter rejects that one candidate
    ([2, 2], [2, 1], [(1, 0, [0, 1], [1]), (0, 0, [1, 0], [1, 0])]),
    # slot 1 cuts slot 0 to value 1 in the pass, and the diagonal filter,
    # which asks for 0, rejects it
    ([1, 1], [2, 1], [(1, 0, [0], [1]), (0, 0, [0], [0, 0])]),
    # the pass cuts slot 1 to value 1 by slot 2's table, then carries it back
    # through slot 0's forcing of slot 1, which here empties slot 0 ...
    ([1, 1, 1], [2, 2, 1], [(2, 1, [0], [1]), (0, 1, [0], [0, 0])]),
    # ... and here leaves slot 0 one value, from which slot 1 is forced
    ([1, 1, 1], [2, 2, 1], [(2, 1, [0], [1]), (0, 1, [0], [0, 1])]),
    # the pair-fold chain of perfbench's naturals-chain: every restriction
    # halves the image, so the pass leaves 16 of slot 0's 256 candidates
    ([4] * 4, [4] * 4, [(k + 1, k, [0, 1, 2, 3], [0, 0, 2, 2]) for k in range(3)]),
    # slot 2's table misses value 1, so the pass runs and cuts slot 1 to
    # {0, 2}; then slot 0's forcing of slot 1 cuts both elements of slot 0
    # to {0, 2} before the search, which still has two values per element
    ([2, 1, 1], [3, 3, 2], [(0, 1, [0, 0], [2, 1, 0]), (2, 1, [0], [0, 2])]),
    # slots 0 and 1 force element 0 of slot 2 to 0 and to 1: the early
    # forcer check at slot 1 empties slot 0's mask inside the pass (which
    # slot 3 sets off), so the call returns [] before any search
    ([1, 1, 1, 1], [2, 2, 2, 1], [(0, 2, [0], [0, 0]), (1, 2, [0], [1, 1]), (3, 0, [0], [0])]),
    # no narrowing reaches slot 1, the last searched slot, so its candidates
    # are built once and filtered once by its swap constraint; they follow
    # every prefix of slot 0, then the fixed slots 2 and 3
    ([2, 2, 1, 0], [2, 3, 1, 2], [(1, 1, [1, 0], [1, 0, 2]), (1, 2, [0, 0], [0, 0, 0]), (0, 2, [0, 0], [0, 0])]),
    # slot 2 has one value: a q < p, two p < q forcers of its element 0
    # (an early-forcer pair) and a p == q constraint into it always hold,
    # beside constraints that narrow, one of them out of slot 2
    (
        [2, 1, 2, 2],
        [3, 3, 1, 2],
        [
            (0, 2, [0, 1], [0, 0, 0]), (1, 2, [0], [0, 0, 0]), (3, 2, [1, 0], [0, 0]), (2, 2, [1, 0], [0]),
            (1, 0, [1], [2, 0, 1]), (0, 3, [0, 1], [0, 1, 1]), (3, 3, [1, 0], [0, 1]), (2, 0, [1, 1], [2]),
        ],
    ),
    # slot 0 forces slot 1's element to 0 and to 1 at once, so every prefix
    # dies at slot 1 and the last slot is never reached
    ([1, 1, 2], [2, 2, 2], [(0, 1, [0], [0, 1]), (0, 1, [0], [1, 0])]),
    # forced slots, computed inside the candidate loop of the slot before
    # them: a p < q table onto slot 1, where elements 0 and 2 of slot 0
    # both force element 1 and so must agree ...
    ([3, 2], [2, 3], [(0, 1, [1, 0, 1], [2, 0])]),
    # ... a one-to-one q < p table back into slot 0, onto its targets and
    # not onto them (then the pass cuts slot 0 to {0, 2} first)
    ([2, 2], [3, 3], [(1, 0, [1, 0], [2, 0, 1])]),
    ([2, 2], [3, 2], [(1, 0, [1, 0], [2, 0])]),
    # ... a forced value that the p == q filter rejects: slot 0 forces
    # slot 1 to its own values, and slot 1's diagonal keeps only the fixed
    # points 0 and 1, so every candidate of slot 0 with a 2 dies there
    ([2, 2], [3, 3], [(0, 1, [0, 1], [0, 1, 2]), (1, 1, [0, 1], [0, 1, 1])]),
    # ... two forcers of slot 2 that disagree unless slot 1 is the
    # opposite of slot 0
    ([1, 1, 1], [2, 2, 2], [(0, 2, [0], [0, 1]), (2, 1, [0], [1, 0])]),
    # ... a forced slot whose p == q swap keeps half of its functions
    ([2, 2], [2, 2], [(0, 1, [0, 1], [0, 1]), (1, 1, [1, 0], [1, 0])]),
    # ... a forced last slot, with fixed slots after it
    ([2, 2, 0, 1], [2, 2, 2, 1], [(0, 1, [1, 0], [1, 0]), (1, 3, [0, 0], [0, 0])]),
    # ... a run of three forced slots after slot 0, a searched slot 4 and
    # a forced slot 5 that slots 3 and 4 both reach
    (
        [2, 2, 2, 2, 1, 1],
        [2, 2, 2, 2, 2, 2],
        [(0, 1, [1, 0], [1, 0]), (1, 2, [0, 1], [1, 0]), (2, 3, [1, 0], [0, 1]), (4, 5, [0], [1, 0]),
         (3, 5, [0, 0], [0, 0]), (3, 3, [1, 0], [1, 0])],
    ),
    # ... a slot forced only by a fixed one-function slot, so searched
    # like any other, before the searched slot 2 ...
    ([2, 2, 2], [1, 3, 2], [(0, 1, [1, 0], [2])]),
    # ... where two fixed forcers that disagree leave no family
    ([2, 2, 1], [1, 1, 3], [(0, 2, [0, 0], [1]), (1, 2, [0, 0], [2])]),
    # a q < p table that is not one-to-one does not force: slot 1 keeps
    # both values of the preimage of slot 0's value
    ([1, 1], [2, 2], [(1, 0, [0], [0, 0])]),
    # a p < q table that misses an element of slot 1 does not force it
    ([1, 2], [2, 2], [(0, 1, [1], [1, 0])]),
]


@pytest.mark.parametrize("case", CASES)
def test_backends_agree_on_fixed_cases(case):
    fs, gs, mors = case
    assert natural_families(fs, gs, mors) == naive_natural_families(fs, gs, mors)


def random_case(rng):
    n = rng.randint(1, 4)
    fs = [rng.randint(0, 3) for _ in range(n)]
    gs = [rng.randint(0, 3) for _ in range(n)]
    mors = []
    for _ in range(rng.randint(0, 4)):
        p = rng.randrange(n)
        q = rng.randrange(n)
        if (fs[p] and not fs[q]) or (gs[p] and not gs[q]):
            continue  # no table can exist
        ftab = [rng.randrange(fs[q]) for _ in range(fs[p])]
        gtab = [rng.randrange(gs[q]) for _ in range(gs[p])]
        mors.append((p, q, ftab, gtab))
    return fs, gs, mors


def test_backends_agree_on_random_cases():
    rng = random.Random(20260810)
    for _ in range(40):
        fs, gs, mors = random_case(rng)
        assert natural_families(fs, gs, mors) == naive_natural_families(fs, gs, mors), (fs, gs, mors)


# candidate families an instance may have at most, so that the reference
# enumerator stays fast on six slots
INSTANCE_SPACE = 4096


@st.composite
def kernel_instances(draw, forcing=False):
    """Valid kernel inputs: empty slots, slots with one target value, p ==
    q and p > q constraints, tables that force one element to clashing
    values, and elements that several slots force all occur.

    With ``forcing``, there are at least two slots and as many tables as
    slots, slots have source values and two or more target values while
    the space allows it, and each table is drawn onto every element of
    its target slot and one-to-one on values where the sizes allow it, so
    that whole slots are forced; about half of such draws force a slot
    that the search then computes instead of branching on it."""
    n = draw(st.integers(2 if forcing else 0, 6))
    fs, gs = [], []
    room = INSTANCE_SPACE
    for _ in range(n):
        sizes = [(f, g) for f in range(4) for g in range(4) if g**f <= room]
        if forcing:
            sizes = [(f, g) for f, g in sizes if f and g > 1] or sizes
        f, g = draw(st.sampled_from(sizes))
        fs.append(f)
        gs.append(g)
        room //= max(g**f, 1)
    mors = []
    if n:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=forcing * n, max_size=8))
        for p, q in pairs:
            if (fs[p] and not fs[q]) or (gs[p] and not gs[q]):
                continue  # no table can exist
            ftab = draw(st.lists(st.integers(0, max(fs[q] - 1, 0)), min_size=fs[p], max_size=fs[p]))
            gtab = draw(st.lists(st.integers(0, max(gs[q] - 1, 0)), min_size=gs[p], max_size=gs[p]))
            if forcing and fs[p] >= fs[q]:  # onto: every element of slot q is hit
                ftab = draw(st.permutations([*range(fs[q]), *ftab[fs[q]:]]))
            if forcing and gs[p] <= gs[q]:  # one-to-one
                gtab = draw(st.permutations(range(gs[q])))[:gs[p]]
            mors.append((p, q, ftab, gtab))
    return fs, gs, mors


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(kernel_instances())
@example(([3, 2], [0, 2], []))
@example(([2, 2], [3, 3], [(1, 1, [1, 0], [2, 0, 1]), (0, 1, [0, 0], [0, 1, 1])]))
def test_kernel_matches_reference_in_order(case):
    fs, gs, mors = case
    assert natural_families(fs, gs, mors) == naive_natural_families(fs, gs, mors)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(kernel_instances(forcing=True))
def test_kernel_matches_reference_with_forced_slots(case):
    fs, gs, mors = case
    assert natural_families(fs, gs, mors) == naive_natural_families(fs, gs, mors)


def chain_case(size, length):
    # an identity-restriction chain: heavy pruning, large candidate space
    ident = list(range(size))
    return [size] * length, [size] * length, [(k + 1, k, ident, ident) for k in range(length - 1)]


def triangle_case(size):
    # three slots in a row of constraints
    shift = [(i + 1) % size for i in range(size)]
    swap = [size - 1 - i for i in range(size)]
    return [size] * 3, [size] * 3, [(0, 1, shift, swap), (1, 2, swap, shift)]


@pytest.mark.parametrize("case", [chain_case(4, 8), triangle_case(4)], ids=["chain-4^8", "triangle-4^12"])
def test_kernel_matches_reference_on_pruned_cases(case):
    fams = natural_families(*case)
    assert fams and fams == naive_natural_families(*case)


def test_output_is_lexicographically_sorted():
    fams = natural_families([2, 1], [2, 2], [])
    flat = [sum(fam, ()) for fam in fams]
    assert flat == sorted(flat)
    assert len(fams) == 2 ** 2 * 2


def test_a_search_leaves_no_cyclic_garbage():
    """Every object a search makes is freed when its last reference goes,
    not left in a reference cycle for the cyclic collector."""
    rng = random.Random(5)
    C = random_poset(rng, 4)
    F, G = random_presheaf(rng, C, 2), random_presheaf(rng, C, 3)
    objects, f_value, g_value = labelled([2, 1, 2], [2, 3, 2], rng)
    arrows = [(objects[0], objects[1], {x: f_value[objects[1]][0] for x in f_value[objects[0]]},
               dict(zip(g_value[objects[0]], g_value[objects[1]])))]
    sieves = all_sieves(C, C.objects[-1])
    assert decode(objects, f_value, g_value, natural_families(*encode(objects, f_value, g_value, arrows)))
    # both forms of decode, each with prefixes that repeat
    P = presheaf(discrete_category(["p", "q"]), {"p": (0, 1), "q": (0, 1, 2)}, {})
    assert len(enumerate_naturals(P, P)) == 2 ** 2 * 3 ** 3
    site = discrete2_site()
    H = const2_presheaf(site)
    pieces = generate_sieve(site.category, "{a,b}", ["{a}<{a,b}", "{b}<{a,b}"])
    assert len(matching_families(H, pieces)) == 4
    gc.collect()
    gc.disable()
    try:
        for case in CASES + [chain_case(3, 5), triangle_case(3)]:
            natural_families(*case)
        natural_index_families(F, G)
        enumerate_naturals(F, G)
        enumerate_naturals(P, P)
        decode(objects, f_value, g_value, natural_families(*encode(objects, f_value, g_value, arrows)))
        for S in sieves:
            matching_families(G, S)
        matching_families(H, pieces)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_empty_slot_semantics():
    # empty source set: exactly one (empty) function even into an empty set
    assert natural_families([0], [0], []) == [((),)]
    # nonempty source into empty target: nothing
    assert natural_families([1], [0], []) == []
    # no slots at all: one empty family
    assert natural_families([], [], []) == [()]


# -- decode ---------------------------------------------------------------------------

# object and value labels of mixed kinds, so that no key order is the label order
LABELS = ["m", 3, ("t", 1), "a", 0, "z", ("s",), 7]


def labelled(fs, gs, rng):
    """Objects, source values and target values for slot sizes ``fs``, ``gs``."""
    objects = rng.sample(LABELS, len(fs))
    f_value = {j: tuple(rng.sample(LABELS, n)) for j, n in zip(objects, fs)}
    g_value = {j: tuple(rng.sample(LABELS, n)) for j, n in zip(objects, gs)}
    return objects, f_value, g_value


def assert_same_decoding(got, want):
    """Equal values, and equal key order in the outer and the inner dicts."""
    assert got == want
    assert [list(comp) for comp in got] == [list(comp) for comp in want]
    assert [[list(tab) for tab in comp.values()] for comp in got] == [
        [list(tab) for tab in comp.values()] for comp in want
    ]
    # every family has its own outer dict
    assert len({id(comp) for comp in got}) == len(got)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(kernel_instances(), st.integers(0, 2**32 - 1))
@example(([], [], []), 0)  # no objects: one empty family
@example(([3], [2], []), 0)  # one object
@example(([0, 2, 0], [1, 2, 3], []), 0)  # slots with no source values
@example(([1, 2], [0, 2], []), 0)  # no families
@example(([2, 1, 1], [2, 2, 1], [(1, 2, [0], [0, 0])]), 0)  # constant last slot
def test_decode_matches_the_reference(case, seed):
    fs, gs, mors = case
    fams = natural_families(fs, gs, mors)
    objects, f_value, g_value = labelled(fs, gs, random.Random(seed))
    assert_same_decoding(decode(objects, f_value, g_value, fams), naive_decode(objects, f_value, g_value, fams))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 2), max_size=4), st.data())
def test_decode_does_not_need_the_kernel_order(fs, data):
    """Any list of families, with repeats and in any order, decodes as the
    reference decodes it; the kernel's lexicographic order only makes the
    shared prefixes long."""
    gs = [data.draw(st.integers(1, 3)) for _ in fs]
    family = st.tuples(*[st.tuples(*[st.integers(0, g - 1)] * f) for f, g in zip(fs, gs)])
    fams = data.draw(st.lists(family, max_size=12))
    objects, f_value, g_value = labelled(fs, gs, random.Random(data.draw(st.integers(0, 2**32 - 1))))
    assert_same_decoding(decode(objects, f_value, g_value, fams), naive_decode(objects, f_value, g_value, fams))


def assert_flat_decoding(objects, f_value, g_value, fams):
    """The flat form is the reference's nested records with every slot's
    {x: y} pairs joined in ``objects`` order, keys in that order too.
    Source values are tagged with their object, so keys are distinct
    across slots, as the flat form needs."""
    f_value = {j: tuple((j, x) for x in f_value[j]) for j in objects}
    got = decode(objects, f_value, g_value, fams, flat=True)
    want = [{x: y for j in objects for x, y in comp[j].items()}
            for comp in naive_decode(objects, f_value, g_value, fams)]
    assert got == want
    assert [list(comp) for comp in got] == [list(comp) for comp in want]
    assert len({id(comp) for comp in got}) == len(got)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(kernel_instances(), st.integers(0, 2**32 - 1))
@example(([], [], []), 0)  # no objects: one empty family
@example(([0, 2, 0], [1, 2, 3], []), 0)  # slots with no source values
@example(([1, 2], [0, 2], []), 0)  # no families
@example(([1, 2, 1], [2, 2, 1], []), 0)  # a last varying slot of two values
def test_flat_decode_matches_the_reference(case, seed):
    fs, gs, mors = case
    fams = natural_families(fs, gs, mors)
    assert_flat_decoding(*labelled(fs, gs, random.Random(seed)), fams)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 2), max_size=4), st.data())
def test_flat_decode_does_not_need_the_kernel_order(fs, data):
    gs = [data.draw(st.integers(1, 3)) for _ in fs]
    family = st.tuples(*[st.tuples(*[st.integers(0, g - 1)] * f) for f, g in zip(fs, gs)])
    fams = data.draw(st.lists(family, max_size=12))
    assert_flat_decoding(*labelled(fs, gs, random.Random(data.draw(st.integers(0, 2**32 - 1)))), fams)


def test_decode_edge_cases():
    assert decode([], {}, {}, [()]) == [{}]
    assert decode([], {}, {}, []) == []
    assert decode(["u"], {"u": ("x",)}, {"u": ()}, []) == []
    assert decode(["u"], {"u": ()}, {"u": ()}, [((),)]) == [{"u": {}}]


# -- who decodes ---------------------------------------------------------------------

class DecodeReferences(ast.NodeVisitor):
    """The (module, innermost function) of every reference to ``kernel.decode``."""

    def __init__(self, module):
        self.module, self.where, self.found = module, "<module>", set()

    def visit_FunctionDef(self, node):
        outer, self.where = self.where, node.name
        self.generic_visit(node)
        self.where = outer

    def visit_ImportFrom(self, node):
        for alias in node.names:
            assert alias.name != "decode" or alias.asname is None, f"{self.module} renames decode"

    def visit_Name(self, node):
        if node.id == "decode":
            self.found.add((self.module, self.where))

    def visit_Attribute(self, node):
        if node.attr == "decode" and ast.unparse(node.value) == "kernel":
            self.found.add((self.module, self.where))
        self.generic_visit(node)


def test_only_the_three_record_builders_decode():
    """Callers that count families or test them slot by slot stay on the
    index families: in ``src/sheafkit`` only the functions that build
    label records reach ``kernel.decode``, and the kernel keeps no
    encode-search-decode wrapper."""
    found = set()
    for path in sorted(Path(sheafkit.__file__).parent.glob("*.py")):
        refs = DecodeReferences(path.stem)
        refs.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= refs.found
    assert found == {("fincat", "enumerate_naturals"), ("limits", "diagram_naturals"), ("sheaf", "matching_families")}
    assert not hasattr(kernel, "label_families")


# -- down_sets ----------------------------------------------------------------------

def brute_down_sets(below):
    """Every mask that holds, with each node, everything below it."""
    return [
        m for m in range(1 << len(below))
        if all(not m >> i & 1 or below[i] & ~m == 0 for i in range(len(below)))
    ]


@pytest.mark.parametrize("n", range(6))
def test_down_sets_of_a_chain_and_an_antichain(n):
    chain = [(1 << (i + 1)) - 1 for i in range(n)]  # node i lies above nodes 0..i-1
    assert sorted(down_sets(chain)) == [(1 << k) - 1 for k in range(n + 1)]
    antichain = [1 << i for i in range(n)]
    assert sorted(down_sets(antichain)) == list(range(1 << n))


def test_down_sets_of_a_two_node_cycle_take_both_or_neither():
    assert sorted(down_sets([0b11, 0b11])) == [0b00, 0b11]
    # the cycle above a third node, numbered first and last
    assert sorted(down_sets([0b001, 0b111, 0b111])) == [0b000, 0b001, 0b111]
    assert sorted(down_sets([0b111, 0b111, 0b100])) == [0b000, 0b100, 0b111]


@st.composite
def preorders(draw):
    """``below`` tables of random reflexive, transitive relations; the
    random edges go both ways, so cycles are common."""
    n = draw(st.integers(0, 8))
    below = [1 << i for i in range(n)]
    if n:
        node = st.sampled_from(range(n))
        for lower, upper in draw(st.lists(st.tuples(node, node), max_size=2 * n)):
            below[upper] |= 1 << lower
    for k in range(n):  # transitive closure through node k
        for i in range(n):
            if below[i] >> k & 1:
                below[i] |= below[k]
    return below


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(preorders())
def test_down_sets_are_the_closed_subsets_once_each(below):
    found = down_sets(below)
    assert len(found) == len(set(found))
    assert set(found) == set(brute_down_sets(below))


# -- enumerate_naturals on random bases ---------------------------------------------

BASES = {
    "poset": lambda rng: random_poset(rng, 4),
    "poset x Z/n": lambda rng: validate_category(*cyclic_product(random_poset(rng, 3), rng.choice([2, 3]))),
    "monoid Z/n": lambda rng: validate_category(*cyclic_product(terminal_category(), rng.choice([2, 3, 4]))),
}

# candidate families the full-product oracle enumerates at most
ORACLE_SPACE = 5000


def candidate_space(F, G):
    return math.prod(len(G.value[u]) ** len(F.value[u]) for u in F.base.objects)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(BASES)), st.integers(0, 2**32 - 1))
def test_enumerated_naturals_are_the_validated_ones_in_order(kind, seed):
    """Each enumerated transformation is what ``natural_transformation``
    builds from its components, with the same key orders; they come in
    lexicographic order of their index tuples, and on small candidate
    spaces they are exactly the full-product oracle's, in its order."""
    rng = random.Random(seed)
    C = BASES[kind](rng)
    F = random_presheaf(rng, C, 2)
    if C.objects and rng.random() < 0.5:
        F = yoneda_presheaf(C, rng.choice(C.objects))  # Z/n acts freely
    G = random_presheaf(rng, C, 3)
    if rng.random() < 0.5:
        two = presheaf(C, dict.fromkeys(C.objects, (0, 1)), dict.fromkeys(C.morphisms, {0: 0, 1: 1}))
        G = product_presheaf(G, two)
    if candidate_space(F, G) > 10**5:
        G = random_presheaf(rng, C, 1)
    nats = enumerate_naturals(F, G)
    for eta in nats:
        checked = natural_transformation(F, G, eta.components)
        assert_same_decoding([eta.components], [checked.components])
    indices = [
        tuple(G.value[u].index(eta.components[u][x]) for u in C.objects for x in F.value[u])
        for eta in nats
    ]
    assert indices == sorted(set(indices))
    if candidate_space(F, G) <= ORACLE_SPACE:
        assert [eta.components for eta in nats] == naive_naturals(F, G)
