"""Mutation check of the internal logic: does the suite notice a broken engine?

Each mutant is one small edit to the syntax tree of a library function,
made with the standard ``ast`` module in a temporary copy of the
repository.  The logic and acceptance tests run against every mutant;
a mutant is killed when they fail and survives when they pass.  A
survivor is either a gap in the tests or an edit that changes nothing.

Run from the repository root; it is not collected by pytest:

    python tests/mutants.py                # every mutant
    python tests/mutants.py or-not-closed  # only the mutants named

It prints one line per mutant and exits 1 if any mutant survives.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
TESTS = ("tests/test_logic.py", "tests/test_acceptance.py")


def method_call(node: ast.AST, name: str) -> bool:
    """Is ``node`` a call of a method or function named ``name``?"""
    return isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == name


def unwrap_closure(arg_kind: Callable[[ast.AST], bool]):
    """Replace ``alg.closure(x)`` by ``x`` where ``x`` is of the given kind."""
    def edit(node):
        if method_call(node, "closure") and arg_kind(node.args[0]):
            return node.args[0]
        return None
    return edit


def forall_without_implies(node):
    # result = alg.implies(alg.top, inside)  ->  result = inside
    if method_call(node, "implies") and getattr(node.args[0], "attr", None) == "top":
        return node.args[1]
    return None


def not_into_zero(node):
    # alg.implies(body, alg.bottom)  ->  alg.implies(body, 0)
    if method_call(node, "implies") and getattr(node.args[1], "attr", None) == "bottom":
        return ast.Call(node.func, [node.args[0], ast.Constant(0)], [])
    return None


def close_over_below(node):
    # for r in self.covering  ->  for r in self.below
    if isinstance(node, ast.Attribute) and node.attr == "covering":
        return ast.Attribute(node.value, "below", node.ctx)
    return None


def reversed_node(node):
    # tuple(env[v] for v, _ in context)  ->  the same tuple reversed
    if (method_call(node, "tuple") and isinstance(node.args[0], ast.GeneratorExp)
            and isinstance(node.args[0].elt, ast.Subscript)):
        return ast.Subscript(node, ast.Slice(step=ast.Constant(-1)), ast.Load())
    return None


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str          # relative to the repository root
    function: str      # the edit applies inside this function only
    edit: Callable     # node -> replacement node, or None to leave it


MUTANTS = (
    Mutant("or-not-closed", "src/sheafkit/logic.py", "_interpret",
           unwrap_closure(lambda a: isinstance(a, ast.BinOp) and isinstance(a.op, ast.BitOr))),
    Mutant("exists-not-closed", "src/sheafkit/logic.py", "_interpret",
           unwrap_closure(lambda a: method_call(a, "sum"))),
    Mutant("eq-not-closed", "src/sheafkit/logic.py", "_interpret",
           unwrap_closure(lambda a: method_call(a, "mask_where"))),
    Mutant("forall-without-implies", "src/sheafkit/logic.py", "_interpret", forall_without_implies),
    Mutant("not-into-zero", "src/sheafkit/logic.py", "_interpret", not_into_zero),
    Mutant("close-over-below", "src/sheafkit/classifier.py", "_close", close_over_below),
    Mutant("forces-node-reversed", "src/sheafkit/logic.py", "forces", reversed_node),
)


class _Apply(ast.NodeTransformer):
    def __init__(self, mutant: Mutant):
        self.mutant, self.inside, self.applied = mutant, False, 0

    def visit_FunctionDef(self, node):
        outer = self.inside
        self.inside = outer or node.name == self.mutant.function
        self.generic_visit(node)
        self.inside = outer
        return node

    def generic_visit(self, node):
        if self.inside:
            new = self.mutant.edit(node)
            if new is not None:
                self.applied += 1
                return ast.copy_location(new, node)
        return super().generic_visit(node)


def mutate(source: str, mutant: Mutant) -> str:
    """The source with the mutant's edit made exactly once."""
    apply = _Apply(mutant)
    tree = apply.visit(ast.parse(source))
    if apply.applied != 1:
        raise SystemExit(f"{mutant.name}: the edit matched {apply.applied} places, not 1")
    return ast.unparse(ast.fix_missing_locations(tree))


def killer(workdir: Path, mutant: Mutant | None) -> str | None:
    """Run the tests on a copy of the repository carrying the mutant (none
    for the unmutated copy); return the first failing test, if any."""
    copy = workdir / (mutant.name if mutant else "unmutated")
    for part in ("src", "tests", "pytest.ini"):
        if (ROOT / part).is_dir():
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(ROOT / part, copy / part)
    if mutant:
        target = copy / mutant.path
        target.write_text(mutate(target.read_text(encoding="utf-8"), mutant), encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-rfE", *TESTS],
        cwd=copy,
        env={**os.environ, "PYTHONPATH": f"{copy / 'src'}{os.pathsep}{copy / 'tests'}", "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True,
    )
    if run.returncode == 0:
        return None
    failed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"pytest exit {run.returncode}"


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    survivors = []
    with tempfile.TemporaryDirectory(prefix="sheafkit-mutants-") as tmp:
        broken = killer(Path(tmp), None)
        if broken:
            raise SystemExit(f"the unmutated tests fail ({broken}); fix them first")
        for mutant in chosen:
            by = killer(Path(tmp), mutant)
            print(f"{mutant.name}: {f'killed by {by}' if by else 'SURVIVED'}", flush=True)
            if not by:
                survivors.append(mutant.name)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
