"""Category and functor validation against their exhaustive oracles.

``validate_category`` proves associativity instead of enumerating it when
the category is thin (at most one arrow between two objects), and
``fin_functor`` proves composition when its target is thin.  The oracles
in naive.py run every triple and every pair regardless.  Each example
takes a valid table, thin or not, applies at most one mutation, and
requires the library and the oracle to agree on the verdict, the error
class and the message.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafkit.documents import load_documents
from sheafkit.errors import (
    AssociativityViolation,
    DanglingReference,
    IdentityViolation,
    MissingComposite,
    WorkbenchError,
)
from sheafkit.fincat import (
    fin_functor,
    poset_category,
    terminal_category,
    to_point_functor,
    validate_category,
)

from naive import naive_fin_functor, naive_validate_category
from randgen import cyclic_product, random_poset, raw_tables


def gallery_category(name):
    return load_documents([]).base_category(name)


def unital_magma(rng):
    """One object, a unit e and k other arrows with random products, which
    are mostly not associative."""
    elems = ["e"] + [f"a{i}" for i in range(rng.randint(1, 3))]
    comp = {(g, f): rng.choice(elems) for g in elems for f in elems}
    comp.update({("e", x): x for x in elems})
    comp.update({(x, "e"): x for x in elems})
    return ["u"], [(x, "u", "u") for x in elems], {"u": "e"}, comp


BASES = {
    "poset": lambda rng: raw_tables(random_poset(rng)),
    "poset x Z/n": lambda rng: cyclic_product(random_poset(rng, 4), rng.choice([2, 3])),
    "monoid Z/n": lambda rng: cyclic_product(terminal_category(), rng.choice([2, 3, 4])),
    "unital magma": unital_magma,
    "parallel pair": lambda rng: raw_tables(gallery_category("parallel-pair")),
}


def wrong_composite(rng, objs, mors, ident, comp):
    """One table entry names another arrow, a parallel one if there is one."""
    if not comp:
        return
    key = rng.choice(sorted(comp, key=repr))
    ends = {m: (a, b) for m, a, b in mors}
    others = [m for m, *_ in mors if m != comp[key]]
    parallel = [m for m in others if ends[m] == ends[comp[key]]]
    if others:
        comp[key] = rng.choice(parallel or others)


def missing_entry(rng, objs, mors, ident, comp):
    if comp:
        del comp[rng.choice(sorted(comp, key=repr))]


def parallel_arrow(rng, objs, mors, ident, comp):
    """A copy p of an arrow m: each entry naming m gets twins naming p, with
    m's composite, or p itself where p meets an identity.  For m not an
    identity the result is a category again, with two arrows src m -> tgt m."""
    if not mors:
        return
    ids = set(ident.values())
    m, a, b = rng.choice([t for t in mors if t[0] not in ids] or mors)
    p = ("copy", m)
    mors.append((p, a, b))
    for (g, f), gf in list(comp.items()):
        for g2 in {g, p if g == m else g}:
            for f2 in {f, p if f == m else f}:
                if (g2, f2) != (g, f):
                    comp[(g2, f2)] = p if (g2 == p and f in ids) or (f2 == p and g in ids) else gf


def broken_identity(rng, objs, mors, ident, comp):
    """An object's identity names another arrow, another endomorphism if there is one."""
    if not objs:
        return
    u = rng.choice(objs)
    others = [m for m, *_ in mors if m != ident[u]]
    endos = [m for m, a, b in mors if a == b == u and m != ident[u]]
    if others:
        ident[u] = rng.choice(endos or others)
    else:
        del ident[u]


MUTATIONS = {
    "none": lambda *tables: None,
    "wrong composite": wrong_composite,
    "missing entry": missing_entry,
    "parallel arrow": parallel_arrow,
    "broken identity": broken_identity,
}


def library_category(*args):
    C = validate_category(*args)
    return C.objects, C.morphisms, C.src, C.tgt, C.identity, C.table


def outcome(build, *args):
    """What ``build`` returns, or the class and message of the error it raises."""
    try:
        return build(*args)
    except WorkbenchError as err:
        return type(err), str(err)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(BASES)),
    st.sampled_from(sorted(MUTATIONS)),
    st.sampled_from([1, 2, 64]),
)
def test_validate_category_agrees_with_the_exhaustive_oracle(seed, base, mutation, hom_bound):
    rng = random.Random(seed)
    tables = BASES[base](rng)
    MUTATIONS[mutation](rng, *tables)
    assert outcome(library_category, *tables, hom_bound) == outcome(naive_validate_category, *tables, hom_bound)


def test_the_mutations_provoke_each_verdict():
    # the property test is only as strong as the failures its examples reach
    seen = set()
    for seed in range(40):
        for base in BASES:
            for mutation in MUTATIONS:
                rng = random.Random(seed)
                tables = BASES[base](rng)
                MUTATIONS[mutation](rng, *tables)
                result = outcome(validate_category, *tables)
                seen.add((base, mutation, result[0] if isinstance(result, tuple) else "valid"))
    for base in ("poset", "poset x Z/n"):
        assert (base, "none", "valid") in seen
        assert (base, "parallel arrow", "valid") in seen
        assert (base, "missing entry", MissingComposite) in seen
        assert (base, "broken identity", IdentityViolation) in seen
    # a wrong composite in a thin table has the wrong ends; elsewhere it is parallel
    assert ("poset", "wrong composite", DanglingReference) in seen
    assert ("poset x Z/n", "wrong composite", AssociativityViolation) in seen
    assert ("monoid Z/n", "wrong composite", AssociativityViolation) in seen
    assert ("unital magma", "none", AssociativityViolation) in seen


def test_thin_means_at_most_one_arrow_between_two_objects():
    assert random_poset(random.Random(5)).is_thin
    assert terminal_category().is_thin
    assert gallery_category("chain5").is_thin and gallery_category("cospan").is_thin
    assert not gallery_category("parallel-pair").is_thin
    assert not validate_category(*cyclic_product(terminal_category(), 2)).is_thin


def test_associativity_is_still_checked_when_a_hom_set_has_two_arrows():
    # s: a -> a is an involution acting on Hom(a, b) = {f, g}; g∘s = g breaks
    # (f∘s)∘s = g against f∘(s∘s) = f, while identities and ends are all fine
    mors = [("ida", "a", "a"), ("idb", "b", "b"), ("s", "a", "a"), ("f", "a", "b"), ("g", "a", "b")]
    comp = {
        ("ida", "ida"): "ida", ("idb", "idb"): "idb",
        ("s", "ida"): "s", ("ida", "s"): "s", ("s", "s"): "ida",
        ("f", "ida"): "f", ("g", "ida"): "g", ("idb", "f"): "f", ("idb", "g"): "g",
        ("f", "s"): "g", ("g", "s"): "g",
    }
    args = (["a", "b"], mors, {"a": "ida", "b": "idb"}, comp)
    with pytest.raises(AssociativityViolation) as err:
        validate_category(*args)
    assert str(err.value) == "(h∘g)∘f != h∘(g∘f) for (h, g, f) = ('f', 's', 's')"
    assert outcome(naive_validate_category, *args, 64) == (AssociativityViolation, str(err.value))


# -- functors ------------------------------------------------------------------------

def functor_case(rng, kind):
    """(source, target, on_objects, on_morphisms) of a valid functor."""
    P = random_poset(rng, 4)
    n = rng.choice([2, 3])
    T = validate_category(*cyclic_product(P, n))
    same_objects = {u: u for u in P.objects}
    if kind == "poset -> poset":
        return P, P, same_objects, {m: m for m in P.morphisms}
    if kind == "poset -> point":
        K = to_point_functor(P)
        return P, K.target, K.on_objects, K.on_morphisms
    if kind == "poset -> poset x Z/n":
        level = {u: rng.randrange(n) for u in P.objects}
        return P, T, same_objects, {m: (m, (level[P.tgt[m]] - level[P.src[m]]) % n) for m in P.morphisms}
    if kind == "poset x Z/n -> poset":
        return T, P, same_objects, {m: m[0] for m in T.morphisms}
    return T, T, same_objects, {m: m for m in T.morphisms}


FUNCTOR_KINDS = (
    "poset -> poset",
    "poset -> point",
    "poset -> poset x Z/n",
    "poset x Z/n -> poset",
    "poset x Z/n -> poset x Z/n",
)


def mutate_functor(rng, mutation, source, target, on_objects, on_morphisms):
    if not source.objects:
        return
    if mutation == "object image":
        on_objects[rng.choice(source.objects)] = rng.choice(target.objects)
    elif mutation == "missing morphism":
        del on_morphisms[rng.choice(source.morphisms)]
    elif mutation == "morphism image":
        f = rng.choice([m for m in source.morphisms if not source.is_identity(m)] or source.morphisms)
        ends = (target.src[on_morphisms[f]], target.tgt[on_morphisms[f]])
        parallel = [m for m in target.hom(*ends) if m != on_morphisms[f]]
        on_morphisms[f] = rng.choice(parallel or target.morphisms)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(FUNCTOR_KINDS),
    st.sampled_from(["none", "object image", "missing morphism", "morphism image"]),
)
def test_fin_functor_agrees_with_the_exhaustive_oracle(seed, kind, mutation):
    rng = random.Random(seed)
    source, target, on_objects, on_morphisms = functor_case(rng, kind)
    mutate_functor(rng, mutation, source, target, on_objects, on_morphisms)
    args = (source, target, on_objects, on_morphisms)

    def library(*args):
        F = fin_functor(*args)
        return F.on_objects, F.on_morphisms

    assert outcome(library, *args) == outcome(naive_fin_functor, *args)


def test_functor_composition_is_still_checked_into_a_category_that_is_not_thin():
    C = poset_category(["a", "b", "c"], lambda x, y: x <= y)
    T = validate_category(*cyclic_product(C, 2))
    images = {m: (m, 0) for m in C.morphisms}
    images[("a", "c")] = (("a", "c"), 1)
    args = (C, T, {u: u for u in C.objects}, images)
    with pytest.raises(AssociativityViolation) as err:
        fin_functor(*args)
    assert str(err.value) == "functor breaks composition at (('b', 'c'), ('a', 'b'))"
    assert outcome(naive_fin_functor, *args) == (AssociativityViolation, str(err.value))
