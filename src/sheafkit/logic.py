"""Internal first-order logic: formulas, forcing, and subobject semantics.

One engine gives a formula its meaning.  ``interpret`` is compositional:
connectives become the Heyting operations of ``classifier.MaskAlgebra``
on the context product and quantifiers the adjoints to pullback along a
projection.  Kripke-Joyal forcing is membership in that meaning, so
``forces`` reads U ⊩ phi(x) off one bit of the same mask.  The tests
check both against two independent oracles in ``tests/naive.py``:
``naive_interpret``, the same compositional semantics on ``Subobject``
parts, and ``naive_forces``, the recursive Kripke-Joyal clauses.

A model is treated as immutable once built.  Each (formula, context)
asked of a model, by ``forces`` or ``interpret``, is sorted once and
interpreted once per resolved bound; the model keeps the context
product's algebra and the formula's mask, and only computations that
succeeded, so a refused query raises the same error every time.
"""

from __future__ import annotations

from functools import cached_property

from .classifier import MaskAlgebra, Subobject, is_closed, subobject
from .config import DEFAULT_FORMULA_DEPTH, check_bound, enumeration_bound
from .errors import IllSorted, ParseError, UnknownObject, UnknownSubobject
from .fincat import FrozenRecord, Presheaf
from .labels import Label, label_key
from .site import Site


# -- formulas -----------------------------------------------------------------

class Formula(FrozenRecord, eq=True):
    __slots__ = ()


class Top(Formula):
    __slots__ = ()


class Bottom(Formula):
    __slots__ = ()


class Mem(Formula):
    __slots__ = ("var", "pred")


class Eq(Formula):
    __slots__ = ("left", "right")


class And(Formula):
    __slots__ = ("left", "right")


class Or(Formula):
    __slots__ = ("left", "right")


class Implies(Formula):
    __slots__ = ("left", "right")


class Not(Formula):
    __slots__ = ("body",)


class Exists(Formula):
    __slots__ = ("var", "sort", "body")


class Forall(Formula):
    __slots__ = ("var", "sort", "body")


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

class LogicModel(FrozenRecord):
    __slots__ = (
        "site",
        "sorts",
        "predicates",  # name -> (sort name, subobject)
        "__dict__",
    )

    @cached_property
    def _meanings(self) -> dict[tuple, dict[int, tuple[MaskAlgebra, int]]]:
        """The memo of each (formula, context) asked of this model."""
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


def check_sorting(model: LogicModel, phi: Formula, context) -> None:
    """Variables bound once, atoms matching their variable's sort, and
    the formula no deeper than ``DEFAULT_FORMULA_DEPTH``."""
    seen = [v for v, _ in context]
    if len(set(seen)) != len(seen):
        raise IllSorted("context binds a variable twice")
    for _, s in context:
        if s not in model.sorts:
            raise IllSorted(f"context names unknown sort {s!r}")
    check_bound("formula depth", [_check_scope(model, phi, dict(context))], DEFAULT_FORMULA_DEPTH)


def _check_scope(model: LogicModel, node: Formula, scope: dict) -> int:
    """Raise at the first unbound, ill-sorted or unknown name below ``node``;
    otherwise return its depth."""
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
        return 1 + max(_check_scope(model, node.left, scope), _check_scope(model, node.right, scope))
    if isinstance(node, Not):
        return 1 + _check_scope(model, node.body, scope)
    if node.var in scope:
        raise IllSorted(f"variable {node.var!r} bound twice")
    if node.sort not in model.sorts:
        raise IllSorted(f"quantifier names unknown sort {node.sort!r}")
    return 1 + _check_scope(model, node.body, {**scope, node.var: node.sort})


# -- forcing ------------------------------------------------------------------------

def forces(model: LogicModel, u: Label, phi: Formula, env: dict, context, bound: int | None = None) -> bool:
    """U forces phi in the given environment.

    Kripke-Joyal forcing is membership in the interpretation: U forces
    phi(x) exactly when x lies over U in the subobject phi interprets
    (Mac Lane & Moerdijk, VI.6).  So the answer is the bit of the node
    (U, x) in phi's mask, and a query is refused exactly when
    ``interpret`` refuses it.  Errors come in a fixed order: sorting, the
    object, the environment, then the bound, resolved once here.
    """
    context = tuple((v, s) for v, s in context)
    meanings = _sorted_meanings(model, phi, context)
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
    alg, mask = _meaning(model, meanings, phi, context, enumeration_bound(bound))
    return bool(mask >> alg.node_index[u, tuple(env[v] for v, _ in context)] & 1)


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
    against the bound, resolved once here, in that order.  The mask is
    kept on the model beside the ones ``forces`` reads, and becomes a
    ``Subobject`` through the validating ``subobject``.
    """
    context = tuple((v, s) for v, s in context)
    meanings = _sorted_meanings(model, phi, context)
    alg, mask = _meaning(model, meanings, phi, context, enumeration_bound(bound))
    return subobject(alg.ambient, alg.parts(mask))


def _sorted_meanings(model: LogicModel, phi: Formula, context: tuple) -> dict:
    """The memo of one (formula, context) on the model, made once phi sorts
    in the context: each resolved bound at which phi was interpreted, to
    the algebra of the context product and phi's mask in it."""
    meanings = model._meanings.get((phi, context))
    if meanings is None:
        check_sorting(model, phi, context)
        meanings = model._meanings[phi, context] = {}
    return meanings


def _meaning(model: LogicModel, meanings: dict, phi: Formula, context: tuple, bound: int) -> tuple[MaskAlgebra, int]:
    """phi's entry at the bound, interpreted on a miss and kept only once
    every context product has passed the bound."""
    hit = meanings.get(bound)
    if hit is None:
        algebras: dict[tuple, MaskAlgebra] = {}
        mask = _interpret(model, phi, context, bound, algebras)
        hit = meanings[bound] = (algebras[context], mask)
    return hit


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
