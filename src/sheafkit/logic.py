"""Internal first-order logic: formulas, forcing, and subobject semantics.

Two engines evaluate the same formula language.  ``forces`` is the
recursive local semantics: disjunction and existence pass to a covering
sieve, implication and universal quantification range over every
restriction.  ``interpret`` is compositional: connectives become the
Heyting operations of ``classifier.MaskAlgebra`` on the context product
and quantifiers the adjoints to pullback along a projection.  The two
are cross-validated on fixtures.  ``naive_interpret`` in
``tests/naive.py`` is the same compositional semantics on ``Subobject``
parts, the oracle that ``interpret`` is tested against.

A model is treated as immutable once built.  Each (formula, context)
that ``forces`` is asked on a model gets one memo, held on the model:
its sorting, the bounds its context products have passed, and one
``Evaluator`` whose answers every later query of it reuses.  The memo
fills lazily, one answer at a time, and never reads ``interpret``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import prod

from .classifier import MaskAlgebra, Subobject, is_closed, subobject
from .config import DEFAULT_FORMULA_DEPTH, check_bound, enumeration_bound
from .errors import IllSorted, ParseError, UnknownObject, UnknownSubobject
from .fincat import Presheaf
from .labels import Label, label_key
from .site import Site


# -- formulas -----------------------------------------------------------------

class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Mem(Formula):
    var: str
    pred: str


@dataclass(frozen=True)
class Eq(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    sort: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    sort: str
    body: Formula


# -- parenthesized prefix syntax ----------------------------------------------------

def _tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            out.append((c, i))
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            out.append((text[i:j], i))
            i = j
    return out


def parse_formula(text: str) -> Formula:
    """Parse e.g. ``(forall x F (implies (in x A) (in x B)))``."""
    tokens = _tokenize(text)
    pos = 0

    def fail(msg, at):
        raise ParseError(f"column {at + 1}: {msg}")

    def need(kind=None):
        nonlocal pos
        if pos >= len(tokens):
            fail("unexpected end of formula", len(text))
        tok, at = tokens[pos]
        if kind is not None and tok != kind:
            fail(f"expected {kind!r}, found {tok!r}", at)
        pos += 1
        return tok, at

    def atom_or_form():
        nonlocal pos
        if pos >= len(tokens):
            fail("unexpected end of formula", len(text))
        tok, at = tokens[pos]
        if tok == "(":
            return form()
        pos += 1
        if tok == "true":
            return Top()
        if tok == "false":
            return Bottom()
        fail(f"bare token {tok!r} is not a formula", at)

    def form():
        nonlocal pos
        _, at = need("(")
        head, hat = need()
        if head == "true":
            node = Top()
        elif head == "false":
            node = Bottom()
        elif head == "in":
            var, _ = need()
            pred, _ = need()
            node = Mem(var, pred)
        elif head in ("eq", "="):
            left, _ = need()
            right, _ = need()
            node = Eq(left, right)
        elif head == "and":
            node = And(atom_or_form(), atom_or_form())
        elif head == "or":
            node = Or(atom_or_form(), atom_or_form())
        elif head == "implies":
            node = Implies(atom_or_form(), atom_or_form())
        elif head == "not":
            node = Not(atom_or_form())
        elif head in ("exists", "forall"):
            var, _ = need()
            sort, _ = need()
            body = atom_or_form()
            node = (Exists if head == "exists" else Forall)(var, sort, body)
        else:
            fail(f"unknown connective {head!r}", hat)
        need(")")
        return node

    node = atom_or_form()
    if pos != len(tokens):
        fail("trailing input after the formula", tokens[pos][1])
    return node


def format_formula(phi: Formula) -> str:
    if isinstance(phi, Top):
        return "(true)"
    if isinstance(phi, Bottom):
        return "(false)"
    if isinstance(phi, Mem):
        return f"(in {phi.var} {phi.pred})"
    if isinstance(phi, Eq):
        return f"(eq {phi.left} {phi.right})"
    if isinstance(phi, And):
        return f"(and {format_formula(phi.left)} {format_formula(phi.right)})"
    if isinstance(phi, Or):
        return f"(or {format_formula(phi.left)} {format_formula(phi.right)})"
    if isinstance(phi, Implies):
        return f"(implies {format_formula(phi.left)} {format_formula(phi.right)})"
    if isinstance(phi, Not):
        return f"(not {format_formula(phi.body)})"
    head = "exists" if isinstance(phi, Exists) else "forall"
    return f"({head} {phi.var} {phi.sort} {format_formula(phi.body)})"


# -- models -------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LogicModel:
    site: Site
    sorts: dict[str, Presheaf]
    predicates: dict[str, tuple[str, Subobject]]   # name -> (sort name, subobject)

    @cached_property
    def _queries(self) -> dict[tuple, _Query]:
        """The forcing memo of each (formula, context) asked of this model."""
        return {}


def logic_model(site: Site, sorts, predicates) -> LogicModel:
    sorts = dict(sorts)
    preds: dict[str, tuple[str, Subobject]] = {}
    for name, (sort_name, sub) in dict(predicates).items():
        if sort_name not in sorts:
            raise UnknownSubobject(f"predicate {name!r} names unknown sort {sort_name!r}")
        if not sub.ambient.same(sorts[sort_name]):
            raise IllSorted(f"predicate {name!r} does not live on sort {sort_name!r}")
        if not is_closed(site.topology, sub):
            raise IllSorted(
                f"predicate {name!r} is not closed for the topology; close it first"
            )
        preds[name] = (sort_name, sub)
    for s in sorts.values():
        if not s.base.same(site.category):
            raise IllSorted("sorts must live over the site's category")
    return LogicModel(site, sorts, preds)


def check_sorting(model: LogicModel, phi: Formula, context) -> list[tuple[str, str, int]]:
    """Variables bound once, atoms matching their variable's sort.

    Returns (variable, sort, enclosing) for each quantifier of phi, in
    preorder.  ``enclosing`` is 0 for the outer context and i + 1 for the
    i-th quantifier of the list, so quantifier i binds its variable in
    the context of its ``enclosing`` plus its own sort.
    """
    seen = [v for v, _ in context]
    if len(set(seen)) != len(seen):
        raise IllSorted("context binds a variable twice")
    for _, s in context:
        if s not in model.sorts:
            raise IllSorted(f"context names unknown sort {s!r}")

    quantifiers = []
    depth = _check_scope(model, phi, dict(context), 0, quantifiers)
    check_bound("formula depth", [depth], DEFAULT_FORMULA_DEPTH)
    return quantifiers


def _check_scope(model: LogicModel, node: Formula, scope: dict, enclosing: int, quantifiers: list) -> int:
    """Raise at the first unbound, ill-sorted or unknown name below ``node``;
    otherwise return its depth, appending its quantifiers to ``quantifiers``."""
    if isinstance(node, (Top, Bottom)):
        return 0
    if isinstance(node, Mem):
        if node.var not in scope:
            raise IllSorted(f"unbound variable {node.var!r}")
        if node.pred not in model.predicates:
            raise UnknownSubobject(f"unknown predicate {node.pred!r}")
        if model.predicates[node.pred][0] != scope[node.var]:
            raise IllSorted(
                f"predicate {node.pred!r} lives on sort "
                f"{model.predicates[node.pred][0]!r}, not {scope[node.var]!r}"
            )
        return 0
    if isinstance(node, Eq):
        for v in (node.left, node.right):
            if v not in scope:
                raise IllSorted(f"unbound variable {v!r}")
        if scope[node.left] != scope[node.right]:
            raise IllSorted("equality between different sorts")
        return 0
    if isinstance(node, (And, Or, Implies)):
        left = _check_scope(model, node.left, scope, enclosing, quantifiers)
        return 1 + max(left, _check_scope(model, node.right, scope, enclosing, quantifiers))
    if isinstance(node, Not):
        return 1 + _check_scope(model, node.body, scope, enclosing, quantifiers)
    if node.var in scope:
        raise IllSorted(f"variable {node.var!r} bound twice")
    if node.sort not in model.sorts:
        raise IllSorted(f"quantifier names unknown sort {node.sort!r}")
    quantifiers.append((node.var, node.sort, enclosing))
    return 1 + _check_scope(model, node.body, {**scope, node.var: node.sort}, len(quantifiers), quantifiers)


# -- forcing ------------------------------------------------------------------------

class Evaluator:
    """Kripke-Joyal forcing with memoization on the full query.

    The environment maps each variable to its sort and its section:
    two sibling quantifiers may bind one variable in different sorts,
    so no single variable-to-sort map covers a formula.  Answers are
    keyed by the formula node itself, with the object and environment:
    formulas hash by structure, so equal subformulas share answers, and
    a key never outlives the node it names.  One evaluator serves every
    query of one (formula, context) on one model.
    """

    def __init__(self, model: LogicModel):
        self.model = model
        self.J = model.site.topology
        self.C = model.site.category
        self._memo: dict = {}

    def forces(self, u: Label, phi: Formula, env: dict) -> bool:
        key = (phi, u, frozenset(env.items()))
        hit = self._memo.get(key)
        if hit is None:
            hit = self._eval(u, phi, env)
            self._memo[key] = hit
        return hit

    def _restrict_env(self, env: dict, f: Label) -> dict:
        return {v: (s, self.model.sorts[s].restrict[f][x]) for v, (s, x) in env.items()}

    def _eval(self, u: Label, phi: Formula, env: dict) -> bool:
        if isinstance(phi, Top):
            return True
        if isinstance(phi, Bottom):
            return self.J.covers_with(u, frozenset())
        if isinstance(phi, Mem):
            sub = self.model.predicates[phi.pred][1]
            return env[phi.var][1] in sub.parts[u]
        if isinstance(phi, Eq):
            # locally equal: the agreement sieve must cover; on separated
            # sorts this is plain equality of sections
            (s, x), (t, y) = env[phi.left], env[phi.right]
            ls, rs = self.model.sorts[s].restrict, self.model.sorts[t].restrict
            agree = frozenset(f for f in self.C.into(u) if ls[f][x] == rs[f][y])
            return self.J.covers_with(u, agree)
        if isinstance(phi, And):
            return self.forces(u, phi.left, env) and self.forces(u, phi.right, env)
        if isinstance(phi, Or):
            holds = frozenset(
                f
                for f in self.C.into(u)
                if self.forces(self.C.src[f], phi.left, self._restrict_env(env, f))
                or self.forces(self.C.src[f], phi.right, self._restrict_env(env, f))
            )
            return self.J.covers_with(u, holds)
        if isinstance(phi, Implies):
            for f in self.C.into(u):
                v = self.C.src[f]
                env_v = self._restrict_env(env, f)
                if self.forces(v, phi.left, env_v) and not self.forces(v, phi.right, env_v):
                    return False
            return True
        if isinstance(phi, Not):
            for f in self.C.into(u):
                v = self.C.src[f]
                if self.forces(v, phi.body, self._restrict_env(env, f)) and not self.J.covers_with(
                    v, frozenset()
                ):
                    return False
            return True
        if isinstance(phi, Exists):
            sort = self.model.sorts[phi.sort]
            witnessed = frozenset(
                f
                for f in self.C.into(u)
                if any(
                    self.forces(
                        self.C.src[f],
                        phi.body,
                        {**self._restrict_env(env, f), phi.var: (phi.sort, a)},
                    )
                    for a in sort.value[self.C.src[f]]
                )
            )
            return self.J.covers_with(u, witnessed)
        if isinstance(phi, Forall):
            sort = self.model.sorts[phi.sort]
            for f in self.C.into(u):
                v = self.C.src[f]
                env_v = self._restrict_env(env, f)
                for a in sort.value[v]:
                    if not self.forces(v, phi.body, {**env_v, phi.var: (phi.sort, a)}):
                        return False
            return True
        raise IllSorted(f"unknown formula node {phi!r}")


@dataclass(eq=False)
class _Query:
    """What ``forces`` has settled for one (formula, context) on one model:
    its quantifiers, the resolved bounds at which every context product
    passed, and the evaluator that holds its answers."""
    quantifiers: list[tuple[str, str, int]]
    evaluator: Evaluator
    passed: set[int] = field(default_factory=set)


def forces(model: LogicModel, u: Label, phi: Formula, env: dict, context, bound: int | None = None) -> bool:
    """U forces phi in the given environment.

    Forcing never builds a context product, but ``forall`` and
    ``exists`` range over the same sections, so the query is refused
    exactly when ``interpret`` would refuse it: every context product
    that ``interpret`` builds for phi is checked against the bound,
    resolved once here, before anything is evaluated.

    The model keeps one memo per (formula, context), so a sweep over
    objects and sections sorts the formula once, checks the context
    products once per bound, and shares one evaluator's answers.  Only
    steps that succeeded are kept: a query that fails raises again on
    every call, in the same order (sorting, the object, the environment,
    then the bound), and a bound not yet passed is checked again.
    """
    context = tuple((v, s) for v, s in context)
    query = model._queries.get((phi, context))
    if query is None:
        query = model._queries[phi, context] = _Query(check_sorting(model, phi, context), Evaluator(model))
    if u not in model.site.category.object_set:
        raise UnknownObject(f"no object {u!r}")
    env = dict(env)
    names = {v for v, _ in context}
    if set(env) != names:
        raise IllSorted(
            f"environment must assign exactly the context variables {sorted(names, key=label_key)}"
        )
    for v, s in context:
        if env[v] not in model.sorts[s].value[u]:
            raise IllSorted(f"environment value for {v!r} is not a section of {s!r} over {u!r}")
    limit = enumeration_bound(bound)
    if limit not in query.passed:
        _check_contexts(model, context, query.quantifiers, limit)
        query.passed.add(limit)
    return query.evaluator.forces(u, phi, {v: (s, env[v]) for v, s in context})


def _check_contexts(model: LogicModel, context, quantifiers, bound: int) -> None:
    """Check each context product ``interpret`` builds, in the order it first
    builds them: the outer context, then one more sort at each quantifier,
    in preorder.  By the time a quantifier is reached, every running
    product of its enclosing context has passed the check at every
    object, so only the product with the new sort can exceed the bound."""
    objects = model.site.category.objects
    sorts = [model.sorts[s] for _, s in context]
    outer = []
    for u in objects:
        factors = [len(s.value[u]) for s in sorts]
        check_bound("context product", factors, bound)
        outer.append(prod(factors))
    sizes = [outer]
    for _, sort, enclosing in quantifiers:
        value = model.sorts[sort].value
        sizes.append([n * len(value[u]) for n, u in zip(sizes[enclosing], objects)])
        for n in sizes[-1]:
            check_bound("context product", [n], bound)


# -- compositional subobject semantics ---------------------------------------------------

def context_product(model: LogicModel, context, bound: int | None = None) -> Presheaf:
    """Product of the context sorts, elements ordered as the context lists them.

    The bound is resolved once, and the tuple count at each object is
    checked against it before its tuples are built.  The product is built
    without re-validation: every sort is a validated presheaf with its
    sections in label order, so the tuples come out in label order, and
    restriction acts componentwise, so it respects identities and
    composites because each sort does.  Identities restrict to the
    identity, as ``presheaf`` would fill them in.
    """
    C = model.site.category
    sorts = [model.sorts[s] for _, s in context]
    limit = enumeration_bound(bound)
    value = {}
    for u in C.objects:
        check_bound("context product", [len(s.value[u]) for s in sorts], limit)
        tuples = [()]
        for s in sorts:
            tuples = [t + (x,) for t in tuples for x in s.value[u]]
        value[u] = tuple(tuples)
    restrict = {}
    for f in C.morphisms:
        u = C.tgt[f]
        if C.is_identity(f):
            restrict[f] = {t: t for t in value[u]}
            continue
        tabs = [s.restrict[f] for s in sorts]
        restrict[f] = {t: tuple(tab[x] for tab, x in zip(tabs, t)) for t in value[u]}
    return Presheaf(C, value, restrict)


def interpret(model: LogicModel, phi: Formula, context, bound: int | None = None) -> Subobject:
    """The subobject of the context product carved out by the formula.

    The formula is evaluated on node masks (``classifier.MaskAlgebra``).
    Each context's product and algebra are built once, when the preorder
    walk first reaches that context, so every context product is checked
    against the bound, resolved once here, in the order ``forces`` checks
    them.  The result becomes a ``Subobject`` once, at the end, through
    the validating ``subobject``.
    """
    context = tuple((v, s) for v, s in context)
    check_sorting(model, phi, context)
    algebras: dict[tuple, MaskAlgebra] = {}
    m = _interpret(model, phi, context, enumeration_bound(bound), algebras)
    outer = algebras[context]
    return subobject(outer.ambient, outer.parts(m))


def _interpret(model: LogicModel, phi: Formula, context: tuple, bound: int, algebras: dict) -> int:
    """The mask of phi in the algebra of the context product."""
    alg = algebras.get(context)
    if alg is None:
        alg = algebras[context] = MaskAlgebra(model.site.topology, context_product(model, context, bound))
    index = {v: i for i, (v, _) in enumerate(context)}

    if isinstance(phi, Top):
        return alg.top
    if isinstance(phi, Bottom):
        return alg.bottom
    if isinstance(phi, Mem):
        parts = model.predicates[phi.pred][1].parts
        i = index[phi.var]
        return alg.mask_where(lambda u, t: t[i] in parts[u])
    if isinstance(phi, Eq):
        i, j = index[phi.left], index[phi.right]
        return alg.closure(alg.mask_where(lambda u, t: t[i] == t[j]))
    if isinstance(phi, (And, Or, Implies)):
        a = _interpret(model, phi.left, context, bound, algebras)
        b = _interpret(model, phi.right, context, bound, algebras)
        if isinstance(phi, And):
            return a & b
        return alg.closure(a | b) if isinstance(phi, Or) else alg.implies(a, b)
    if isinstance(phi, Not):
        return alg.implies(_interpret(model, phi.body, context, bound, algebras), alg.bottom)
    if isinstance(phi, (Exists, Forall)):
        inner_ctx = context + ((phi.var, phi.sort),)
        body = _interpret(model, phi.body, inner_ctx, bound, algebras)
        # the fibre of (u, t): the nodes (u, t + (a,)) for every section a
        fibres = [0] * len(alg.nodes)
        for bit, (u, t) in enumerate(algebras[inner_ctx].nodes):
            fibres[alg.node_index[(u, t[:-1])]] |= 1 << bit
        if isinstance(phi, Exists):
            return alg.closure(sum(1 << n for n, fibre in enumerate(fibres) if fibre & body))
        # keep (u, t) when the fibre of every restriction of t lies in the body
        inside = sum(1 << n for n, fibre in enumerate(fibres) if not fibre & ~body)
        result = alg.implies(alg.top, inside)
        assert alg.is_closed(result), "universal quantification left a non-closed subobject"
        return result
    raise IllSorted(f"unknown formula node {phi!r}")
