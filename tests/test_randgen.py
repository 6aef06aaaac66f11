"""The shapes of ``randgen``'s random fixtures.

The random tests are only as strong as the cases their generators draw.
Over seeds 0-299, 8% of ``random_base``'s categories have four objects
and 55.7% are not thin, 42.3% of ``random_topology``'s topologies on
them have a covering sieve other than the maximal one, and 9.3% of
``random_presheaf``'s presheaves on a ``random_poset`` of at most four
objects have an empty value set.  The floors, just under those shares,
make a generator edit that collapses one of these cases fail here at
once."""

import random

from randgen import random_base, random_poset, random_presheaf, random_topology

SEEDS = range(300)


def test_generators_keep_their_shapes():
    four = not_thin = refined = empty = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        C = random_base(rng)
        J = random_topology(rng, C)
        four += len(C.objects) == 4
        not_thin += not C.is_thin
        refined += any(len(sieves) > 1 for sieves in J.covers.values())
        rng = random.Random(seed)
        F = random_presheaf(rng, random_poset(rng, 4))
        empty += any(not F.value[u] for u in F.base.objects)
    n = len(SEEDS)
    assert four / n >= 0.05, f"{four} of {n} bases have four objects"
    assert not_thin / n >= 0.40, f"{not_thin} of {n} bases are not thin"
    assert refined / n >= 0.30, f"{refined} of {n} topologies let a smaller sieve cover"
    assert empty / n >= 0.05, f"{empty} of {n} presheaves have an empty value set"
