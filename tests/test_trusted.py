"""Trusted constructions survive the validating constructors.

The library builds some presheaves and subobjects without re-validating
them, because their inputs were validated and the construction preserves
the axioms.  Each test here builds them on random inputs and feeds the
result back through ``presheaf`` or ``subobject``: the validated copy
must have the same tables, in the same order.  So a construction that
breaks an axiom, or leaves a value set out of label order, fails here
even though the library never checks it.
"""

import random
from itertools import product
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from sheafkit import sheaf
from sheafkit.classifier import (
    MaskAlgebra,
    Subobject,
    characteristic,
    characteristic_square_is_pullback,
    enumerate_subobjects,
    omega,
    subobject,
)
from sheafkit.fincat import presheaf, yoneda_presheaf
from sheafkit.labels import label_key
from sheafkit.limits import set_fun
from sheafkit.logic import context_product, logic_model
from sheafkit.sheaf import (
    MatchingFamily,
    induced_family,
    is_sheaf,
    matching_families,
    product_presheaf,
    sheafify,
    terminal_presheaf,
)
from sheafkit.site import (
    Site,
    all_sieves,
    slice_site,
    trivial_topology,
)
from sheafkit.gallery import z2_local_system
from sheafkit.torsor import group_sheaf, restrict_group

from naive import closure, implies_sub, join_sub, meet_sub
from randgen import random_base, random_poset, random_presheaf, random_space_site, random_topology

RANDOM = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def random_presheaves(rng, C):
    """Random, representable and product presheaves on C; Z/n acts freely
    on the representables of the non-thin bases."""
    found = [random_presheaf(rng, C), terminal_presheaf(C)]
    if C.objects:
        found.append(yoneda_presheaf(C, rng.choice(C.objects)))
        found.append(product_presheaf(found[0], found[-1]))
    return found


def assert_presheaf_round_trip(P):
    checked = presheaf(P.base, P.value, P.restrict)
    assert checked.value == P.value
    assert checked.restrict == P.restrict
    assert list(P.value) == list(checked.value)
    assert list(P.restrict) == list(checked.restrict)


def assert_subobject_round_trip(A):
    checked = subobject(A.ambient, A.parts)
    assert checked.parts == A.parts
    assert list(A.parts) == list(checked.parts)


def generated_part(rng, F):
    """The smallest restriction-stable subobject of F holding a random
    set of sections; usually not closed."""
    base = F.base
    parts = {u: set() for u in base.objects}
    for u in base.objects:
        for x in F.value[u]:
            if rng.random() < 0.3:
                for f in base.into(u):
                    parts[base.src[f]].add(F.restrict[f][x])
    return subobject(F, parts)


@RANDOM
@given(st.integers(0, 2**32 - 1))
def test_trusted_presheaves_pass_validation(seed):
    rng = random.Random(seed)
    C = random_base(rng)
    for a in C.objects:
        assert_presheaf_round_trip(yoneda_presheaf(C, a))
        for S in all_sieves(C, a):
            assert_presheaf_round_trip(S.presheaf)
    assert_presheaf_round_trip(terminal_presheaf(C))
    sorts = random_presheaves(rng, C)
    for F in sorts:
        assert_presheaf_round_trip(F)
    small = {f"s{i}": F for i, F in enumerate(sorts) if all(len(xs) <= 4 for xs in F.value.values())}
    model = logic_model(Site(C, trivial_topology(C)), small, {})
    names = sorted(small)
    for length in range(4):
        context = [(f"x{i}", rng.choice(names)) for i in range(length)]
        assert_presheaf_round_trip(context_product(model, context))


@RANDOM
@given(st.integers(0, 2**32 - 1))
def test_trusted_subobjects_pass_validation(seed):
    rng = random.Random(seed)
    C = random_base(rng)
    J = rng.choice((trivial_topology(C), random_topology(rng, C)))
    F = rng.choice([F for F in random_presheaves(rng, C) if F.size() <= 8])
    alg = MaskAlgebra(J, F)
    subs = enumerate_subobjects(J, F)

    def assert_mask_round_trip(m, oracle):
        result = Subobject(F, alg.parts(m))
        assert_subobject_round_trip(result)
        assert result.parts == oracle.parts

    for A, B in product(rng.sample(subs, min(4, len(subs))), repeat=2):
        a, b = alg.mask(A), alg.mask(B)
        assert_mask_round_trip(a & b, meet_sub(A, B))
        assert_mask_round_trip(alg.closure(a | b), join_sub(J, A, B))
        assert_mask_round_trip(alg.implies(a, b), implies_sub(A, B))
    for _ in range(3):
        A = generated_part(rng, F)
        assert_mask_round_trip(alg.closure(alg.mask(A)), closure(J, A))


def constant_group(site, n):
    C = site.category
    elems = tuple(range(n))
    G = presheaf(C, {u: elems for u in C.objects}, {f: {x: x for x in elems} for f in C.morphisms})
    return group_sheaf(G, {u: {(a, b): (a + b) % n for a in elems for b in elems} for u in C.objects})


@RANDOM
@given(st.integers(0, 2**32 - 1))
def test_restricted_group_passes_validation(seed):
    rng = random.Random(seed)
    site = random_space_site(rng)
    G = rng.choice((z2_local_system(site), constant_group(site, rng.choice([2, 3]))))
    u = rng.choice(site.category.objects)
    Gs = restrict_group(G, slice_site(site, u))
    assert_presheaf_round_trip(Gs.sections)
    group_sheaf(Gs.sections, Gs.mult, Gs.unit, Gs.inverse)


@RANDOM
@given(st.integers(0, 2**32 - 1))
def test_matching_family_key_is_the_sorted_assignment(seed):
    """Every key, including those of the families ``plus_construction``
    builds, equals the key as it was computed before: the assignment's
    items sorted by arrow label."""
    rng = random.Random(seed)
    checked = []

    class OldKeyFamily(MatchingFamily):
        def key(self):
            key = super().key()
            assert key == tuple(sorted(self.assignment.items(), key=lambda kv: label_key(kv[0])))
            checked.append(key)
            return key

    C = random_base(rng)
    J = random_topology(rng, C)
    F = rng.choice([F for F in random_presheaves(rng, C) if F.size() <= 6])
    with mock.patch.object(sheaf, "MatchingFamily", OldKeyFamily):
        # the terminal presheaf has one matching family over every sieve
        for G in (F, terminal_presheaf(C)):
            is_sheaf(G, J)
            sheafify(G, J)
            for u in C.objects:
                for S in J.covers[u]:
                    for m in matching_families(G, S):
                        m.key()
                    for x in G.value[u]:
                        induced_family(G, S, x).key()
    assert checked or not C.objects


def test_characteristic_square_accepts_exactly_its_subobject():
    rng = random.Random(11)
    for _ in range(10):
        C = random_poset(rng, 3)
        site = Site(C, random_topology(rng, C))
        F = random_presheaf(rng, C)
        om = omega(site)
        for u, true_u in om.true_maps.items():
            checked = set_fun(true_u.dom, true_u.cod, true_u.table)
            assert (checked.dom, checked.cod, checked.table) == (true_u.dom, true_u.cod, true_u.table)
        subs = enumerate_subobjects(site.topology, F)
        for A in subs:
            chi = characteristic(om, A)
            assert [characteristic_square_is_pullback(om, B, chi) for B in subs] == [B is A for B in subs]
