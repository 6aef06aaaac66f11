"""Every mutant of ``tests/mutants.py`` still applies to the current
source: its edit matches exactly one place in its function and changes
the program.  A refactor that moves the code a mutant targets fails here
at once, not at the next run of the mutation check."""

import ast
import functools

import pytest

from mutants import MUTANTS, ROOT, mutate


@functools.cache
def current(path):
    """The source of ``path`` and its unmutated unparse."""
    text = (ROOT / path).read_text(encoding="utf-8")
    return text, ast.unparse(ast.parse(text))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_applies_once_and_changes_the_source(mutant):
    text, unmutated = current(mutant.path)
    try:
        mutated = mutate(text, mutant)
    except SystemExit as stale:  # mutate's own report of a miss or of several matches
        pytest.fail(str(stale))
    assert mutated != unmutated
