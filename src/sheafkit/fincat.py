"""Finite categories, functors, presheaves, naturals, and Yoneda tools.

A category is a composition table; a presheaf is a table of value sets
and restriction maps.  Validation is exhaustive: associativity over all
composable triples, functoriality over all composable pairs, except
where a proof covers them.  In a thin category, one with at most one
arrow between any two objects (every poset), both sides of an
associativity square and both sides of a functor's composition square
lie in one hom-set of size at most one once composites are known to
exist and to have the right ends, so they are equal without being
compared.  Everything is immutable after validation and ordered
canonically, so enumerations are deterministic.

Each category is indexed once, on first use: its object and morphism
sets and its morphisms by target and by (source, target), each list in
``morphisms`` order.  ``hom`` and ``into`` are dict lookups, and every
validator finds the arrows it must check through these indexes, so
validation stays exhaustive without rescanning the morphism list.

Validation happens once, at the boundary where untrusted tables come in:
documents and the public constructors ``validate_category``,
``presheaf``, ``natural_transformation`` and ``fin_functor``.  A presheaf
the library builds itself from validated inputs, such as a representable
``yoneda_presheaf``, satisfies the axioms by construction, so it is built
as ``Presheaf(...)`` directly; its docstring says why it is valid.  Such a
table lists every arrow, identities included, in ``morphisms`` order, and
each value set in ``label_key`` order, as ``presheaf`` would leave it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import kernel
from .config import DEFAULT_HOM_BOUND, check_bound
from .errors import (
    AssociativityViolation,
    BaseMismatch,
    DanglingReference,
    IdentityViolation,
    MissingComposite,
    NotNatural,
    UnknownObject,
)
from .labels import Label, canon, label_key


@dataclass(frozen=True, eq=False)
class FinCategory:
    objects: tuple[Label, ...]
    morphisms: tuple[Label, ...]
    src: dict[Label, Label]
    tgt: dict[Label, Label]
    identity: dict[Label, Label]
    table: dict[tuple[Label, Label], Label]

    def compose(self, g: Label, f: Label) -> Label:
        """g∘f, defined when tgt(f) == src(g)."""
        try:
            return self.table[(g, f)]
        except KeyError:
            raise MissingComposite(f"no composite for ({g!r}, {f!r})") from None

    def hom(self, a: Label, b: Label) -> tuple[Label, ...]:
        return self._by_ends.get((a, b), ())

    def into(self, u: Label) -> tuple[Label, ...]:
        """All morphisms with codomain u."""
        return self._by_target.get(u, ())

    @cached_property
    def object_set(self) -> frozenset:
        return frozenset(self.objects)

    @cached_property
    def morphism_set(self) -> frozenset:
        return frozenset(self.morphisms)

    @cached_property
    def _by_target(self) -> dict[Label, tuple[Label, ...]]:
        return _group(self.morphisms, lambda m: self.tgt[m])

    @cached_property
    def _by_ends(self) -> dict[tuple[Label, Label], tuple[Label, ...]]:
        return _group(self.morphisms, lambda m: (self.src[m], self.tgt[m]))

    @cached_property
    def is_thin(self) -> bool:
        """At most one arrow between any two objects, as in a poset."""
        return all(len(ms) == 1 for ms in self._by_ends.values())

    def is_identity(self, m: Label) -> bool:
        return self.identity.get(self.src[m]) == m

    @cached_property
    def signature(self) -> tuple:
        return (
            self.objects,
            tuple((m, self.src[m], self.tgt[m]) for m in self.morphisms),
            tuple(sorted(self.identity.items(), key=lambda kv: label_key(kv[0]))),
            tuple(sorted(self.table.items(), key=lambda kv: label_key(kv[0]))),
        )

    def same(self, other: "FinCategory") -> bool:
        return self is other or self.signature == other.signature


def _group(items, key) -> dict:
    """Items grouped by key; each group keeps the order of ``items``."""
    groups: dict = {}
    for m in items:
        groups.setdefault(key(m), []).append(m)
    return {k: tuple(v) for k, v in groups.items()}


def validate_category(
    objects,
    morphisms,
    identity,
    compose,
    hom_bound: int = DEFAULT_HOM_BOUND,
) -> FinCategory:
    """Validate a raw description and return the category.

    ``morphisms`` is an iterable of (name, src, tgt) triples; ``compose``
    is an iterable of ((g, f), g∘f) pairs or a mapping.  Every axiom is
    checked by full enumeration, except associativity in a thin category,
    where it is proved instead.  By the time the triple loop would run,
    every composable pair has a table entry and every entry g∘f goes
    src f -> tgt g.  So (h∘g)∘f and h∘(g∘f) both exist and lie in
    Hom(src f, tgt h); when no hom-set has two arrows, they are equal.
    The triple loop runs for every category with a hom-set of two or
    more arrows.
    """
    objs = canon(objects)
    obj_set = set(objs)
    src: dict[Label, Label] = {}
    tgt: dict[Label, Label] = {}
    names = []
    for name, a, b in morphisms:
        if name in src:
            raise DanglingReference(f"duplicate morphism name {name!r}")
        if a not in obj_set:
            raise DanglingReference(f"morphism {name!r} has unknown source {a!r}")
        if b not in obj_set:
            raise DanglingReference(f"morphism {name!r} has unknown target {b!r}")
        src[name] = a
        tgt[name] = b
        names.append(name)
    mors = tuple(sorted(names, key=label_key))
    mor_set = set(mors)

    ident = dict(identity)
    for u in objs:
        if u not in ident:
            raise IdentityViolation(f"object {u!r} has no identity entry")
        m = ident[u]
        if m not in mor_set:
            raise DanglingReference(f"identity of {u!r} names unknown morphism {m!r}")
        if src[m] != u or tgt[m] != u:
            raise IdentityViolation(f"identity {m!r} of {u!r} is not an endomorphism of {u!r}")
    for u in ident:
        if u not in obj_set:
            raise DanglingReference(f"identity entry for unknown object {u!r}")

    table: dict[tuple[Label, Label], Label] = {}
    items = compose.items() if hasattr(compose, "items") else compose
    for (g, f), gf in items:
        for m in (g, f, gf):
            if m not in mor_set:
                raise DanglingReference(f"compose entry ({g!r}, {f!r}) -> {gf!r} names unknown morphism {m!r}")
        if tgt[f] != src[g]:
            raise DanglingReference(f"compose entry for non-composable pair ({g!r}, {f!r})")
        if src[gf] != src[f] or tgt[gf] != tgt[g]:
            raise DanglingReference(
                f"composite {gf!r} of ({g!r}, {f!r}) should go {src[f]!r} -> {tgt[g]!r}"
            )
        table[(g, f)] = gf

    cat = FinCategory(objs, mors, src, tgt, ident, table)
    into = cat.into

    for g in mors:
        for f in into(src[g]):
            if (g, f) not in table:
                raise MissingComposite(f"composable pair ({g!r}, {f!r}) has no entry")

    if mors:
        ends, widest = max(cat._by_ends.items(), key=lambda kv: len(kv[1]))
        check_bound(f"Hom{ends!r}", [len(widest)], hom_bound)

    for f in mors:
        if table[(ident[tgt[f]], f)] != f:
            raise IdentityViolation(f"id∘{f!r} != {f!r}")
        if table[(f, ident[src[f]])] != f:
            raise IdentityViolation(f"{f!r}∘id != {f!r}")

    if cat.is_thin:
        return cat
    for h in mors:
        for g in into(src[h]):
            hg = table[(h, g)]
            for f in into(src[g]):
                if table[(hg, f)] != table[(h, table[(g, f)])]:
                    raise AssociativityViolation(
                        f"(h∘g)∘f != h∘(g∘f) for (h, g, f) = ({h!r}, {g!r}, {f!r})"
                    )

    return cat


# -- standard small categories ----------------------------------------------

def discrete_category(labels) -> FinCategory:
    objs = canon(labels)
    mors = [((u, "id"), u, u) for u in objs]
    ident = {u: (u, "id") for u in objs}
    comp = {((u, "id"), (u, "id")): (u, "id") for u in objs}
    return validate_category(objs, mors, ident, comp)


def poset_category(elements, leq, name=None) -> FinCategory:
    """Category of a finite poset: one arrow per related pair.

    ``name(a, b)`` labels the arrow a -> b; defaults to the tuple (a, b).
    """
    if name is None:
        def name(a, b):
            return (a, b)
    objs = canon(elements)
    mors = []
    by_src: dict[Label, list[Label]] = {u: [] for u in objs}
    for a in objs:
        for b in objs:
            if leq(a, b):
                mors.append((name(a, b), a, b))
                by_src[a].append(b)
    ident = {u: name(u, u) for u in objs}
    comp = {}
    for _, a, b in mors:
        for c in by_src[b]:
            comp[(name(b, c), name(a, b))] = name(a, c)
    return validate_category(objs, mors, ident, comp)


def arrow_category() -> FinCategory:
    """The walking arrow 0 -> 1."""
    return poset_category(["0", "1"], lambda a, b: a <= b, name=lambda a, b: f"{a}->{b}")


def terminal_category() -> FinCategory:
    return poset_category(["pt"], lambda a, b: True, name=lambda a, b: "id_pt")


# -- functors -----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FinFunctor:
    source: FinCategory
    target: FinCategory
    on_objects: dict[Label, Label]
    on_morphisms: dict[Label, Label]

    def obj(self, a: Label) -> Label:
        return self.on_objects[a]

    def mor(self, f: Label) -> Label:
        return self.on_morphisms[f]


def fin_functor(source: FinCategory, target: FinCategory, on_objects, on_morphisms) -> FinFunctor:
    """Validate object and morphism maps and return the functor.

    Endpoints and identities are checked for every object and morphism,
    and composition for every composable pair of ``source`` unless
    ``target`` is thin.  There the check is proved instead: once every
    image F(f) goes F(src f) -> F(tgt f), the images F(g∘f) and
    F(g)∘F(f) both go F(src f) -> F(tgt g), and the validated target has
    the composite, so in a hom-set of at most one arrow they are equal.
    """
    on_objects = dict(on_objects)
    on_morphisms = dict(on_morphisms)
    for a in source.objects:
        if a not in on_objects:
            raise DanglingReference(f"functor misses object {a!r}")
        if on_objects[a] not in target.object_set:
            raise DanglingReference(f"functor image {on_objects[a]!r} not in target")
    for f in source.morphisms:
        if f not in on_morphisms:
            raise DanglingReference(f"functor misses morphism {f!r}")
        ff = on_morphisms[f]
        if ff not in target.morphism_set:
            raise DanglingReference(f"functor image {ff!r} not in target")
        if target.src[ff] != on_objects[source.src[f]] or target.tgt[ff] != on_objects[source.tgt[f]]:
            raise NotNatural(f"functor breaks endpoints at {f!r}")
    for u in source.objects:
        if on_morphisms[source.identity[u]] != target.identity[on_objects[u]]:
            raise IdentityViolation(f"functor breaks identity at {u!r}")
    if not target.is_thin:
        for g in source.morphisms:
            for f in source.into(source.src[g]):
                if on_morphisms[source.compose(g, f)] != target.compose(on_morphisms[g], on_morphisms[f]):
                    raise AssociativityViolation(f"functor breaks composition at ({g!r}, {f!r})")
    return FinFunctor(source, target, on_objects, on_morphisms)


def to_point_functor(source: FinCategory) -> FinFunctor:
    pt = terminal_category()
    return fin_functor(
        source,
        pt,
        {a: "pt" for a in source.objects},
        {f: "id_pt" for f in source.morphisms},
    )


# -- presheaves ----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Presheaf:
    base: FinCategory
    value: dict[Label, tuple[Label, ...]]
    restrict: dict[Label, dict[Label, Label]]

    def restrict_along(self, f: Label, x: Label) -> Label:
        """F(f)(x) for f: V -> U and x in F(U)."""
        return self.restrict[f][x]

    def size(self) -> int:
        return sum(len(v) for v in self.value.values())

    def section_rank(self) -> dict[Label, dict[Label, int]]:
        """Each section's position in its value set.  Value sets are in label
        order, so positions order sections by label without comparing labels,
        which fails on a mix of numbers and strings."""
        return {u: {x: i for i, x in enumerate(xs)} for u, xs in self.value.items()}

    def same(self, other: "Presheaf") -> bool:
        return (
            self.base.same(other.base)
            and self.value == other.value
            and self.restrict == other.restrict
        )


def presheaf(base: FinCategory, value, restrict) -> Presheaf:
    """Validate a contravariant value/restriction table.

    For f: V -> U, ``restrict[f]`` maps F(U) to F(V).  Identity entries
    may be omitted; they are filled in.  Functoriality
    restrict(f∘g) == restrict(g)∘restrict(f) is checked by enumeration.
    """
    vals: dict[Label, tuple[Label, ...]] = {}
    for u in base.objects:
        if u not in value:
            raise DanglingReference(f"presheaf misses value set at {u!r}")
        vals[u] = canon(value[u])
    for u in value:
        if u not in base.object_set:
            raise DanglingReference(f"presheaf value at unknown object {u!r}")
    members = {u: set(vals[u]) for u in base.objects}

    rest: dict[Label, dict[Label, Label]] = {}
    for f in base.morphisms:
        u, v = base.tgt[f], base.src[f]
        if base.is_identity(f) and f not in restrict:
            rest[f] = {x: x for x in vals[u]}
            continue
        if f not in restrict:
            raise DanglingReference(f"presheaf misses restriction along {f!r}")
        tab = dict(restrict[f])
        for x in vals[u]:
            if x not in tab:
                raise DanglingReference(f"restriction along {f!r} misses {x!r}")
            if tab[x] not in members[v]:
                raise DanglingReference(
                    f"restriction along {f!r} sends {x!r} outside F({v!r})"
                )
        for x in tab:
            if x not in members[u]:
                raise DanglingReference(f"restriction along {f!r} defined on unknown {x!r}")
        rest[f] = tab

    for u in base.objects:
        i = base.identity[u]
        for x in vals[u]:
            if rest[i][x] != x:
                raise NotNatural(f"restrict(id_{u!r}) moves {x!r}")
    for f in base.morphisms:
        for g in base.into(base.src[f]):
            fg = base.compose(f, g)
            for x in vals[base.tgt[f]]:
                if rest[fg][x] != rest[g][rest[f][x]]:
                    raise NotNatural(
                        f"contravariance fails: restrict({f!r}∘{g!r}) != "
                        f"restrict({g!r})∘restrict({f!r}) at {x!r}"
                    )
    return Presheaf(base, vals, rest)


def yoneda_presheaf(base: FinCategory, at: Label) -> Presheaf:
    """h_A with h_A(X) = Hom(X, A) and restriction by precomposition.

    Built without re-validation.  Each hom-set is in ``morphisms`` order,
    which is label order.  For g: V -> U and f in Hom(U, A), f∘g lies in
    Hom(V, A).  Restricting along an identity is the identity, and
    restrict(f∘g) = restrict(g)∘restrict(f) is h∘(f∘g) = (h∘f)∘g: both are
    axioms the validated category already satisfies.
    """
    if at not in base.object_set:
        raise UnknownObject(f"no object {at!r}")
    value = {x: base.hom(x, at) for x in base.objects}
    table = base.table
    restrict = {g: {f: table[(f, g)] for f in value[base.tgt[g]]} for g in base.morphisms}
    return Presheaf(base, value, restrict)


# -- natural transformations ----------------------------------------------------

@dataclass(frozen=True, eq=False)
class NaturalTransformation:
    """A natural transformation source => target.

    ``components[u][x]`` is the image of the section x over u.  Treat
    ``components`` as read-only: the transformations of one
    ``enumerate_naturals`` call share the inner {x: y} dicts of the slot
    functions they have in common.
    """

    source: Presheaf
    target: Presheaf
    components: dict[Label, dict[Label, Label]]

    def at(self, u: Label, x: Label) -> Label:
        return self.components[u][x]

    def same(self, other: "NaturalTransformation") -> bool:
        return self.components == other.components

    def key(self) -> tuple:
        return tuple(
            (u, tuple(sorted(self.components[u].items(), key=lambda kv: label_key(kv[0]))))
            for u in self.source.base.objects
        )


def natural_transformation(F: Presheaf, G: Presheaf, components) -> NaturalTransformation:
    if not F.base.same(G.base):
        raise BaseMismatch("presheaves live over different base categories")
    comp: dict[Label, dict[Label, Label]] = {}
    for u in F.base.objects:
        tab = dict(components.get(u, {}))
        targets = set(G.value[u])
        for x in F.value[u]:
            if x not in tab:
                raise NotNatural(f"component at {u!r} misses {x!r}")
            if tab[x] not in targets:
                raise NotNatural(f"component at {u!r} sends {x!r} outside target")
        comp[u] = {x: tab[x] for x in F.value[u]}
    base = F.base
    for f in base.morphisms:
        u, v = base.tgt[f], base.src[f]
        for x in F.value[u]:
            if comp[v][F.restrict[f][x]] != G.restrict[f][comp[u][x]]:
                raise NotNatural(
                    f"naturality square fails along {f!r} at {x!r}"
                )
    return NaturalTransformation(F, G, comp)


def identity_natural(F: Presheaf) -> NaturalTransformation:
    return natural_transformation(F, F, {u: {x: x for x in F.value[u]} for u in F.base.objects})


def compose_naturals(beta: NaturalTransformation, alpha: NaturalTransformation) -> NaturalTransformation:
    if not alpha.target.same(beta.source):
        raise BaseMismatch("naturals do not compose: middle presheaves differ")
    comp = {
        u: {x: beta.components[u][alpha.components[u][x]] for x in alpha.source.value[u]}
        for u in alpha.source.base.objects
    }
    return natural_transformation(alpha.source, beta.target, comp)


def natural_index_families(F: Presheaf, G: Presheaf, bound: int | None = None) -> list:
    """All natural transformations F => G as the kernel's index families.

    A family has one tuple per object of the base, in ``objects`` order;
    entry i of the tuple at u is the position in ``G.value[u]`` of the
    image of ``F.value[u][i]``.  Families come in lexicographic order,
    which is the order of ``enumerate_naturals``.  The candidate count is
    guarded by the enumeration bound before any search.
    """
    if not F.base.same(G.base):
        raise BaseMismatch("presheaves live over different base categories")
    base = F.base
    check_bound(
        "natural transformations",
        (len(G.value[u]) ** len(F.value[u]) for u in base.objects),
        bound,
    )

    arrows = [
        (base.tgt[f], base.src[f], F.restrict[f], G.restrict[f])
        for f in base.morphisms
        if not base.is_identity(f)
    ]
    return kernel.natural_families(*kernel.encode(base.objects, F.value, G.value, arrows))


def enumerate_naturals(F: Presheaf, G: Presheaf, bound: int | None = None) -> tuple[NaturalTransformation, ...]:
    """All natural transformations F => G, in a deterministic order.

    Candidate component families are pruned by naturality as they are
    built; the candidate count is guarded by the enumeration bound.
    """
    fams = natural_index_families(F, G, bound)
    return tuple(
        NaturalTransformation(F, G, comp)
        for comp in kernel.decode(F.base.objects, F.value, G.value, fams)
    )


def presheaves_isomorphic(F: Presheaf, G: Presheaf, bound: int | None = None) -> bool:
    """Strict equality of tables is ``same``; this decides isomorphism instead."""
    if not F.base.same(G.base):
        return False
    for u in F.base.objects:
        if len(F.value[u]) != len(G.value[u]):
            return False
    return any(
        all(len(set(func)) == len(func) for func in fam)
        for fam in natural_index_families(F, G, bound)
    )


# -- Yoneda lemma ------------------------------------------------------------------

def yoneda_to_element(eta: NaturalTransformation, at: Label) -> Label:
    """Φ(η) = η_A(id_A) for η: h_A => F."""
    base = eta.source.base
    if at not in base.object_set:
        raise UnknownObject(f"no object {at!r}")
    ident = base.identity[at]
    if ident not in eta.components[at]:
        raise NotNatural(f"source is not the presheaf represented by {at!r}")
    return eta.components[at][ident]


def yoneda_from_element(F: Presheaf, at: Label, x: Label) -> NaturalTransformation:
    """Ψ(x): h_A => F with components f |-> F(f)(x)."""
    base = F.base
    if at not in base.object_set:
        raise UnknownObject(f"no object {at!r}")
    if x not in F.value[at]:
        raise DanglingReference(f"{x!r} is not a section of F({at!r})")
    h = yoneda_presheaf(base, at)
    comp = {u: {f: F.restrict[f][x] for f in h.value[u]} for u in base.objects}
    return natural_transformation(h, F, comp)
