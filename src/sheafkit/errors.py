"""Exception hierarchy for the workbench.

Every error names its witnesses in the message; validators raise on the
first violation they hit, while the report-producing checkers (topology
axioms, sheaf condition, torsor laws) collect violations instead of
raising.
"""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


# -- category validation ---------------------------------------------------

class DanglingReference(WorkbenchError):
    """A description refers to an object, morphism, or element that does not exist."""


class MissingComposite(WorkbenchError):
    """A composable pair has no entry in the composition table."""


class AssociativityViolation(WorkbenchError):
    """(h∘g)∘f differs from h∘(g∘f) for a named triple."""


class IdentityViolation(WorkbenchError):
    """An object lacks an identity or an identity law fails."""


# -- shared structural errors ----------------------------------------------

class BaseMismatch(WorkbenchError):
    """Two presheaves or diagrams do not live over the same base category."""


class UnknownObject(WorkbenchError):
    """An object label is not part of the category."""


class NotNatural(WorkbenchError):
    """A component family fails a naturality square."""


class CodomainMismatch(WorkbenchError):
    """Arrows that must share a codomain do not."""


class ApexMismatch(WorkbenchError):
    """A sieve is used at an object other than its apex."""


class ShapeMismatch(WorkbenchError):
    """Parallel maps with different endpoints, or a diagram of the wrong shape."""


class IntractableSize(WorkbenchError):
    """An enumeration would exceed the configured bound.

    ``search`` names the enumeration, ``size`` is the candidate count it
    reached and ``bound`` the bound that count exceeds.
    """

    def __init__(self, search: str, size: int, bound: int):
        super().__init__(f"{search}: size {size} exceeds bound {bound}")
        self.search, self.size, self.bound = search, size, bound


# -- sheaf layer -------------------------------------------------------------

class IncompatibleFamily(WorkbenchError):
    """An assignment over a sieve violates the compatibility condition."""


class NotASheafHere(WorkbenchError):
    """The sheaf condition fails at the (object, sieve) pair being used."""


class NoSuchFamily(WorkbenchError):
    """No section induces the given matching family."""


# -- classifier / logic ------------------------------------------------------

class NotRestrictionStable(WorkbenchError):
    """A would-be subobject is not closed under restriction."""


class NotClosedSubobject(WorkbenchError):
    """A subobject is not closed for the site's topology."""


class IllSorted(WorkbenchError):
    """A formula violates the sorting discipline."""


class UnknownSubobject(WorkbenchError):
    """A formula references a predicate name with no bound subobject."""


# -- torsors ------------------------------------------------------------------

class NotUniquelyTransitive(WorkbenchError):
    """No (or more than one) group element carries one section to another."""


class InvalidCocycle(WorkbenchError):
    """A cocycle fails the unit or triple-overlap identity."""


class CoverMismatch(WorkbenchError):
    """Two cocycles do not share a cover and group."""


# -- documents / cli ----------------------------------------------------------

class ParseError(WorkbenchError):
    """A document failed to parse; message carries file, line, and column."""


class UnresolvedReference(WorkbenchError):
    """A document references another document name that is not loaded."""


class SemanticError(WorkbenchError):
    """A document parsed but failed semantic validation."""


class MalformedDocument(SemanticError):
    """A document misses a field or gives one the wrong JSON type."""


class UsageError(WorkbenchError):
    """Bad command-line usage."""
