"""Enumeration bounds.

Every exhaustive search is guarded by a candidate-count bound; exceeding
it raises IntractableSize rather than truncating silently.  The default
can be overridden with the WORKBENCH_BOUND environment variable or a
``bound=`` argument at any call site.  ``check_bound`` is the one check:
every IntractableSize comes from it.
"""

from __future__ import annotations

import os

from .errors import IntractableSize, UsageError

DEFAULT_BOUND = 2_000_000

# Hom-sets larger than this make category validation itself intractable.
DEFAULT_HOM_BOUND = 64

# Recursion guard for formula evaluation.
DEFAULT_FORMULA_DEPTH = 32


def enumeration_bound(override: int | None = None) -> int:
    """The bound in force: ``override``, else WORKBENCH_BOUND, else the
    default.  A negative bound is a usage error; 0 is a bound like any
    other."""
    if override is not None:
        if override < 0:
            raise UsageError(f"the enumeration bound must be at least 0, got {override}")
        return override
    env = os.environ.get("WORKBENCH_BOUND")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise UsageError(f"WORKBENCH_BOUND must be an integer, got {env!r}") from None
        if value < 0:
            raise UsageError(f"WORKBENCH_BOUND must be at least 0, got {env!r}")
        return value
    return DEFAULT_BOUND


def check_bound(search: str, factors, bound: int | None = None) -> None:
    """Raise IntractableSize if the product of ``factors`` exceeds the bound.

    The factors are multiplied one at a time and the first running
    product above the bound is raised as the size, so a search whose
    full candidate count is astronomically large is refused without
    computing it.  ``search`` names the enumeration in the error.
    """
    limit = enumeration_bound(bound)
    size = 1
    for factor in factors:
        size *= factor
        if size > limit:
            raise IntractableSize(search, size, limit)
