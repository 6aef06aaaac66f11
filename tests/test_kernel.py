"""The enumeration kernel against the slot-level reference enumerator.

``naive.naive_natural_families`` has the kernel's contract and output
order but never narrows single elements, so the two agree only if the
kernel's forward checking loses no family and keeps the order.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sheafkit.kernel import natural_families

from naive import naive_natural_families


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


@st.composite
def kernel_instances(draw):
    """Valid kernel inputs: empty slots, p == q and p > q constraints, and
    tables that force one element to clashing values all occur."""
    n = draw(st.integers(0, 4))
    fs = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    gs = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    mors = []
    if n:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=5))
        for p, q in pairs:
            if (fs[p] and not fs[q]) or (gs[p] and not gs[q]):
                continue  # no table can exist
            ftab = draw(st.lists(st.integers(0, max(fs[q] - 1, 0)), min_size=fs[p], max_size=fs[p]))
            gtab = draw(st.lists(st.integers(0, max(gs[q] - 1, 0)), min_size=gs[p], max_size=gs[p]))
            mors.append((p, q, ftab, gtab))
    return fs, gs, mors


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(kernel_instances())
@example(([3, 2], [0, 2], []))
@example(([2, 2], [3, 3], [(1, 1, [1, 0], [2, 0, 1]), (0, 1, [0, 0], [0, 1, 1])]))
def test_kernel_matches_reference_in_order(case):
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


def test_empty_slot_semantics():
    # empty source set: exactly one (empty) function even into an empty set
    assert natural_families([0], [0], []) == [((),)]
    # nonempty source into empty target: nothing
    assert natural_families([1], [0], []) == []
    # no slots at all: one empty family
    assert natural_families([], [], []) == [()]
