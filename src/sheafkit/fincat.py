"""Finite categories, functors, presheaves, naturals, and Yoneda tools.

A category is a composition table; a presheaf is a table of value sets
and restriction maps.  Validation is exhaustive: associativity over all
composable triples, functoriality over all composable pairs, except
where a proof covers them.  Everything is immutable after validation and
ordered canonically, so enumerations are deterministic.

Two proofs replace enumeration.  In a thin category, one with at most
one arrow between any two objects (every poset), both sides of an
associativity square and both sides of a functor's composition square
lie in one hom-set of size at most one once composites are known to
exist and to have the right ends, so they are equal without being
compared.  And when a category has no non-identity endomorphism and no
cycle of arrows between distinct objects, every arrow is a composite of
its irreducible arrows, its ``generators`` (the Hasse edges of a poset).
A law about composites, such as r(f∘g) = r(g)∘r(f) for a presheaf's
restrictions, that holds for every arrow f and every generator g, and
for identities, then holds for every g, by induction on the length of
a factorization of g and the associativity validation established.
Presheaves, functors into a category that is not thin, diagrams,
diagrams of presheaves and matching families check their composite law
on generator pairs only, and naturality squares along generators only
(``check_pairs``).  When a generator check fails, the full check runs,
so every error names the same first failure as a full enumeration.
That every composable pair has a composite is counted instead of
enumerated (``validate_category``).

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

from collections import Counter, deque
from functools import cached_property
from itertools import repeat
from operator import attrgetter

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
    WorkbenchError,
)
from .labels import Label, canon, label_key


# -- records ----------------------------------------------------------------------

class FrozenRecord:
    """Base of every immutable record: categories, presheaves, results, reports.

    A subclass lists its fields in ``__slots__``, plus ``"__dict__"``
    when it has a ``cached_property``, and any default values in
    ``_defaults`` (field -> value).  One ``__init__`` serves every record:
    it takes the fields by position or by name and sets each through its
    slot's member descriptor, which bypasses ``__setattr__``.  No class
    is generated code: a frozen dataclass costs 0.4–0.7 ms of import
    time to build, a ``FrozenRecord`` subclass about 20 µs.  ``bulk``
    builds a whole enumeration's records the same way, a column at a
    time, without a Python call per record.

    Assigning or deleting an attribute raises ``FrozenInstanceError``,
    as on a frozen dataclass, and ``repr`` reads as a dataclass's,
    ``Name(field=value, ...)``.  Equality and hash are by identity,
    unless a class is declared with ``eq=True``: then two records are
    equal when they are of the same class with equal fields, and the
    hash is that of the field tuple.  ``__reduce__`` rebuilds a record
    from its fields, so ``copy``, ``deepcopy`` and ``pickle`` work; a
    ``cached_property`` is computed again on the copy.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()   # every field, in __init__ order
    _defaults: dict = {}
    # set on each subclass: _setters, each field's member-descriptor setter,
    # and _values(record), the tuple of its field values

    def __init_subclass__(cls, eq: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(name for name in own if name != "__dict__")
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        cls._values = staticmethod(_getter(cls._fields))
        if eq:
            cls.__eq__ = _fields_equal
            cls.__hash__ = _fields_hash

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._arguments(args, kwargs)
        for put, value in zip(self._setters, args):
            put(self, value)

    @classmethod
    def _arguments(cls, args, kwargs) -> list:
        """The field values, in field order, of a call that names some
        fields or leaves some to their defaults."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments but {len(args)} were given")
        given = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in given:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
            given[name] = value
        missing = [name for name in fields if name not in given and name not in cls._defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() missing arguments: {', '.join(missing)}")
        return [given[name] if name in given else cls._defaults[name] for name in fields]

    @classmethod
    def bulk(cls, count, *columns):
        """``count`` records as a tuple, record r built as ``cls`` would
        build it from row r of ``columns``, one iterable per field in
        ``__slots__`` order.

        The records are allocated by ``object.__new__``, then each field
        is set down its column by its member descriptor, in C-level
        ``map`` passes instead of one ``__init__`` call per record.
        """
        records = tuple(map(object.__new__, repeat(cls, count)))
        for put, column in zip(cls._setters, columns):
            deque(map(put, records, column), maxlen=0)
        return records

    def __setattr__(self, name, value):
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}" for name, value in zip(self._fields, self._values(self))])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


def _getter(fields: tuple[str, ...]):
    """The function from a record to the tuple of its field values."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        get = attrgetter(*fields)
        return lambda record: (get(record),)
    return lambda record: ()


def _fields_equal(self, other):
    if other.__class__ is self.__class__:
        return self._values(self) == other._values(other)
    return NotImplemented


def _fields_hash(self):
    return hash(self._values(self))


def _frozen(message: str) -> Exception:
    """The error a frozen dataclass raises, imported on first use:
    ``dataclasses`` imports ``inspect``, 6–10 ms at every start."""
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


class FinCategory(FrozenRecord):
    __slots__ = ("objects", "morphisms", "src", "tgt", "identity", "table", "__dict__")

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

    @cached_property
    def generators(self) -> dict[Label, tuple[Label, ...]] | None:
        """The irreducible arrows into each object, when they generate.

        An arrow is irreducible when it is no identity and no composite
        g∘f of two non-identity arrows; every object is a key, and each
        group keeps ``morphisms`` order.  On a poset these are the Hasse
        edges.  They generate, meaning every non-identity arrow is a
        composite of them, when there is no non-identity endomorphism and
        the objects are acyclic under "has an arrow to".  Then the objects
        have a topological order, a reducible arrow u -> w splits as g∘f
        through some v strictly between u and w, and induction on the
        distance between the ends factors every arrow into irreducible
        ones.  Otherwise (a group, a monoid, a cycle of isomorphisms) the
        value is None and every check runs on all arrows.
        """
        succ: dict[Label, list[Label]] = {u: [] for u in self.objects}
        indegree = dict.fromkeys(self.objects, 0)
        for (a, b), ms in self._by_ends.items():
            if a != b:
                succ[a].append(b)
                indegree[b] += 1
            elif len(ms) > 1:
                return None
        ready = [u for u in self.objects if not indegree[u]]
        for u in ready:
            for v in succ[u]:
                indegree[v] -= 1
                if not indegree[v]:
                    ready.append(v)
        if len(ready) < len(self.objects):
            return None
        ids = set(self.identity.values())
        reducible = {gf for (g, f), gf in self.table.items() if g not in ids and f not in ids}
        return {
            u: tuple(m for m in self.into(u) if m not in ids and m not in reducible)
            for u in self.objects
        }

    @cached_property
    def generating_arrows(self) -> tuple[Label, ...]:
        """The arrows a law along every arrow is checked on, in ``morphisms`` order.

        These are the generators when there are any (see ``generators``),
        and every non-identity arrow otherwise.
        """
        gens = self.generators
        if gens is None:
            return tuple(m for m in self.morphisms if not self.is_identity(m))
        keep = {m for ms in gens.values() for m in ms}
        return tuple(m for m in self.morphisms if m in keep)

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


def check_pairs(C: FinCategory, check) -> None:
    """Run a composite check on the generators of C, and in full only if that fails.

    ``check(inner)`` tests a law at every composable pair whose inner
    factor, the arrow applied first, lies in ``inner(u)`` for u its
    target, and raises at the first pair that fails.  It runs with the
    generators of C, and with every arrow (``C.into``) when C has none
    or when a generator pair fails.  A generator pair is one of the full
    pairs, so the full run then fails too, at the first pair in its own
    order: the error is the one a full check alone would raise.  Each
    caller's docstring proves its law from the generator pairs.
    """
    gens = C.generators
    if gens is not None:
        try:
            check(gens.__getitem__)
            return
        except WorkbenchError:
            pass
    check(C.into)


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
    is an iterable of ((g, f), g∘f) pairs or a mapping.  A pair listed
    twice with two different composites is refused; an exact repeat is
    one entry.  Every axiom is checked by full enumeration, with two
    proofs instead.

    That every composable pair has an entry is counted, not enumerated.
    Each entry is checked to name a composable pair, and the table holds
    one composite per pair, so it is a subset of the composable pairs,
    of which there are Σ_u |into(u)|·|out(u)|.  The table holds them all
    exactly when it has that many entries; only when it has fewer does
    the pair loop run, to name the first pair missing.

    Associativity is proved in a thin category.  By the time the triple
    loop would run, every composable pair has a table entry and every
    entry g∘f goes src f -> tgt g.  So (h∘g)∘f and h∘(g∘f) both exist
    and lie in Hom(src f, tgt h); when no hom-set has two arrows, they
    are equal.  The triple loop runs for every category with a hom-set
    of two or more arrows.
    """
    objs = canon(objects)
    obj_set = set(objs)
    src: dict[Label, Label] = {}
    tgt: dict[Label, Label] = {}
    ends: dict[Label, tuple[Label, Label]] = {}
    for name, a, b in morphisms:
        if name in src:
            raise DanglingReference(f"duplicate morphism name {name!r}")
        if a not in obj_set:
            raise DanglingReference(f"morphism {name!r} has unknown source {a!r}")
        if b not in obj_set:
            raise DanglingReference(f"morphism {name!r} has unknown target {b!r}")
        src[name] = a
        tgt[name] = b
        ends[name] = (a, b)
    mors = canon(ends)

    ident = dict(identity)
    for u in objs:
        if u not in ident:
            raise IdentityViolation(f"object {u!r} has no identity entry")
        m = ident[u]
        if m not in ends:
            raise DanglingReference(f"identity of {u!r} names unknown morphism {m!r}")
        if src[m] != u or tgt[m] != u:
            raise IdentityViolation(f"identity {m!r} of {u!r} is not an endomorphism of {u!r}")
    for u in ident:
        if u not in obj_set:
            raise DanglingReference(f"identity entry for unknown object {u!r}")

    table: dict[tuple[Label, Label], Label] = {}
    items = compose.items() if hasattr(compose, "items") else compose
    for (g, f), gf in items:
        # one lookup per name accepts a good entry; the checks below run
        # only on an entry that fails it, to name what is wrong
        eg, ef = ends.get(g), ends.get(f)
        if eg and ef and ef[1] == eg[0] and ends.get(gf) == (ef[0], eg[1]) and table.setdefault((g, f), gf) == gf:
            continue
        for m in (g, f, gf):
            if m not in ends:
                raise DanglingReference(f"compose entry ({g!r}, {f!r}) -> {gf!r} names unknown morphism {m!r}")
        if tgt[f] != src[g]:
            raise DanglingReference(f"compose entry for non-composable pair ({g!r}, {f!r})")
        if src[gf] != src[f] or tgt[gf] != tgt[g]:
            raise DanglingReference(
                f"composite {gf!r} of ({g!r}, {f!r}) should go {src[f]!r} -> {tgt[g]!r}"
            )
        if table.setdefault((g, f), gf) != gf:
            raise DanglingReference(
                f"compose entry ({g!r}, {f!r}) is listed twice, as {table[(g, f)]!r} and {gf!r}"
            )

    cat = FinCategory(objs, mors, src, tgt, ident, table)
    into = cat.into

    out = Counter(src.values())
    if len(table) != sum(len(fs) * out[u] for u, fs in cat._by_target.items()):
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

class FinFunctor(FrozenRecord):
    __slots__ = ("source", "target", "on_objects", "on_morphisms")

    def obj(self, a: Label) -> Label:
        return self.on_objects[a]

    def mor(self, f: Label) -> Label:
        return self.on_morphisms[f]


def fin_functor(source: FinCategory, target: FinCategory, on_objects, on_morphisms) -> FinFunctor:
    """Validate object and morphism maps and return the functor.

    Endpoints and identities are checked for every object and morphism.
    Composition is proved when ``target`` is thin: once every image F(f)
    goes F(src f) -> F(tgt f), the images F(g∘f) and F(g)∘F(f) both go
    F(src f) -> F(tgt g), and the validated target has the composite, so
    in a hom-set of at most one arrow they are equal.

    Otherwise F(g∘f) = F(g)∘F(f) is checked for every arrow g and every
    generator f of ``source`` (``check_pairs``), which proves it for
    every f.  An identity f gives F(g) = F(g)∘id.  Otherwise f = f'∘e
    with e a generator and f' shorter, and by associativity in both
    categories F(g∘f) = F((g∘f')∘e) = F(g∘f')∘F(e) = F(g)∘F(f')∘F(e)
    = F(g)∘F(f'∘e), by the generator pair, by induction, and by the
    generator pair (f', e).
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

    def composition(inner):
        for g in source.morphisms:
            for f in inner(source.src[g]):
                if on_morphisms[source.compose(g, f)] != target.compose(on_morphisms[g], on_morphisms[f]):
                    raise AssociativityViolation(f"functor breaks composition at ({g!r}, {f!r})")

    if not target.is_thin:
        check_pairs(source, composition)
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

class Presheaf(FrozenRecord):
    __slots__ = ("base", "value", "restrict")

    def size(self) -> int:
        return sum(len(v) for v in self.value.values())

    def same(self, other: "Presheaf") -> bool:
        return (
            self.base.same(other.base)
            and self.value == other.value
            and self.restrict == other.restrict
        )


def presheaf(base: FinCategory, value, restrict) -> Presheaf:
    """Validate a contravariant value/restriction table.

    For f: V -> U, ``restrict[f]`` maps F(U) to F(V).  Identity entries
    may be omitted; they are filled in, and an entry along an arrow
    outside the base is refused.  Identities must restrict to identities.
    Functoriality restrict(f∘g) == restrict(g)∘restrict(f) is checked
    for every arrow f and every generator g into src f
    (``check_pairs``), which proves it for every g.  An identity g holds
    by the identity check.  Otherwise g = g'∘e with e a generator and g'
    shorter, and by associativity restrict(f∘g) = restrict((f∘g')∘e)
    = restrict(e)∘restrict(f∘g') = restrict(e)∘restrict(g')∘restrict(f)
    = restrict(g'∘e)∘restrict(f), by the generator pair, by induction,
    and by the generator pair (g', e).
    """
    vals: dict[Label, tuple[Label, ...]] = {}
    for u in base.objects:
        if u not in value:
            raise DanglingReference(f"presheaf misses value set at {u!r}")
        vals[u] = canon(value[u])
    for u in value:
        if u not in base.object_set:
            raise DanglingReference(f"presheaf value at unknown object {u!r}")
    for f in restrict:
        if f not in base.morphism_set:
            raise DanglingReference(f"presheaf restriction along unknown arrow {f!r}")
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

    def contravariance(inner):
        for f in base.morphisms:
            for g in inner(base.src[f]):
                fg = base.compose(f, g)
                for x in vals[base.tgt[f]]:
                    if rest[fg][x] != rest[g][rest[f][x]]:
                        raise NotNatural(
                            f"contravariance fails: restrict({f!r}∘{g!r}) != "
                            f"restrict({g!r})∘restrict({f!r}) at {x!r}"
                        )

    check_pairs(base, contravariance)
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

class NaturalTransformation(FrozenRecord):
    """A natural transformation source => target.

    ``components[u][x]`` is the image of the section x over u.  Treat
    ``components`` as read-only: the transformations of one
    ``enumerate_naturals`` call share the inner {x: y} dicts of the slot
    functions they have in common.

    ``enumerate_naturals`` builds one per family, all of them at once
    with ``FrozenRecord.bulk``.
    """

    __slots__ = ("source", "target", "components")

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
    """Validate components F(u) -> G(u) and their naturality squares.

    The squares η_v∘F(f) = G(f)∘η_u are checked along the generators of
    the base only, when it has them (``FinCategory.generators``); they
    hold along identities, and they compose: if they hold along g and e,
    then η∘F(g∘e) = η∘F(e)∘F(g) = G(e)∘η∘F(g) = G(e)∘G(g)∘η = G(g∘e)∘η,
    so by induction on the number of generators in a factorization they
    hold along every arrow.  When a generator square fails, or there are
    no generators, every arrow is checked in ``morphisms`` order, so the
    first failing square is named as a full check names it.
    """
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

    def squares(arrows):
        for f in arrows:
            u, v = base.tgt[f], base.src[f]
            for x in F.value[u]:
                if comp[v][F.restrict[f][x]] != G.restrict[f][comp[u][x]]:
                    raise NotNatural(
                        f"naturality square fails along {f!r} at {x!r}"
                    )

    if base.generators is not None:
        try:
            squares(base.generating_arrows)
            return NaturalTransformation(F, G, comp)
        except NotNatural:
            pass
    squares(base.morphisms)
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

    The kernel gets one naturality constraint per generating arrow of the
    base (``FinCategory.generating_arrows``), not one per arrow.  That
    loses no constraint: squares hold along identities, and if they hold
    along g and e they hold along g∘e (see ``natural_transformation``),
    so by induction on the number of generators in a factorization they
    hold along every arrow.  Without generators every non-identity arrow
    is a constraint.
    """
    if not F.base.same(G.base):
        raise BaseMismatch("presheaves live over different base categories")
    base = F.base
    check_bound(
        "natural transformations",
        (len(G.value[u]) ** len(F.value[u]) for u in base.objects),
        bound,
    )

    arrows = [(base.tgt[f], base.src[f], F.restrict[f], G.restrict[f]) for f in base.generating_arrows]
    return kernel.natural_families(*kernel.encode(base.objects, F.value, G.value, arrows))


def enumerate_naturals(F: Presheaf, G: Presheaf, bound: int | None = None) -> tuple[NaturalTransformation, ...]:
    """All natural transformations F => G, in a deterministic order.

    Candidate component families are pruned by naturality as they are
    built; the candidate count is guarded by the enumeration bound.
    """
    fams = natural_index_families(F, G, bound)
    comps = kernel.decode(F.base.objects, F.value, G.value, fams)
    return NaturalTransformation.bulk(len(comps), repeat(F), repeat(G), comps)


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
