"""Mutation check of the internal logic, the descent layer, the sheaf
condition, the search kernel, the record mechanism, the document schema
walker, the (co)limit certificates and the classifier's sieves: does the
suite notice a broken engine?

Each mutant is one small edit to the syntax tree of a library function,
made with the standard ``ast`` module in a temporary copy of the
repository.  Each mutant names the test files that should notice it,
and they run against it; a mutant is killed when they fail and
survives when they pass.  A survivor is either a gap in the tests or
an edit that changes nothing.

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
LOGIC_TESTS = ("tests/test_logic.py", "tests/test_acceptance.py")
TORSOR_TESTS = ("tests/test_torsor.py", "tests/test_acceptance.py", "tests/test_documents.py", "tests/test_bounds.py")
SHEAF_TESTS = ("tests/test_sheaf.py", "tests/test_acceptance.py", "tests/test_bounds.py", "tests/test_hash_stability.py")
KERNEL_TESTS = ("tests/test_kernel.py", "tests/test_fincat.py", "tests/test_limits.py", "tests/test_sheaf.py")
RECORD_TESTS = ("tests/test_records.py", "tests/test_logic.py", "tests/test_documents.py")
DECODE_TESTS = ("tests/test_kernel.py", "tests/test_sheaf.py", "tests/test_records.py", "tests/test_fincat.py")
DOCUMENT_TESTS = ("tests/test_documents.py", "tests/test_document_fuzz.py")
CONE_TESTS = ("tests/test_limits.py", "tests/test_generators.py", "tests/test_acceptance.py",
              "tests/test_classifier.py", "tests/test_site.py")


def source(text: str) -> Callable[[ast.AST], bool]:
    """Does a node unparse to ``text``?"""
    return lambda node: ast.unparse(node) == text


def branch_skipped(test: Callable[[ast.AST], bool]):
    """Empty the body of the ``if`` whose test matches, keeping its ``else``."""
    def edit(node):
        if isinstance(node, ast.If) and test(node.test):
            return ast.If(node.test, [ast.Pass()], node.orelse)
        return None
    return edit


def replaced(text: str, by: str):
    """Replace the expression that unparses to ``text`` by ``by``."""
    match = source(text)
    def edit(node):
        return ast.parse(by, mode="eval").body if isinstance(node, ast.expr) and match(node) else None
    return edit


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


def names(node: ast.AST) -> tuple:
    """The names in a name or a tuple of names, else ()."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Tuple) and all(isinstance(e, ast.Name) for e in node.elts):
        return tuple(e.id for e in node.elts)
    return ()


def is_item(node: ast.AST, value: str, *index: str) -> bool:
    """Is ``node`` the subscript ``value[index]`` of plain names?"""
    return isinstance(node, ast.Subscript) and names(node.value) == (value,) and names(node.slice) == index


def reindexed(value: str, old: tuple, new: tuple):
    """Replace ``value[old]`` by ``value[new]``, each index a tuple of names."""
    def edit(node):
        if is_item(node, value, *old):
            index = ast.Tuple([ast.Name(n, ast.Load()) for n in new], ast.Load()) if len(new) > 1 else ast.Name(new[0], ast.Load())
            return ast.Subscript(node.value, index, ast.Load())
        return None
    return edit


def index_only(value: str, index: str):
    """Replace ``value[index]`` by ``index``: skip a table lookup."""
    def edit(node):
        return node.slice if is_item(node, value, index) else None
    return edit


def law_without_gij(node):
    # mult[gij, rj[t[j]]]  ->  rj[t[j]]
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple) and names(node.slice.elts[0]) == ("gij",):
        return node.slice.elts[1]
    return None


def canonical_transposed(node):
    # c.values[(k, i)]  ->  c.values[(i, k)]
    if isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) == "values" and names(node.slice) == ("k", "i"):
        return ast.Subscript(node.value, ast.Tuple([ast.Name("i", ast.Load()), ast.Name("k", ast.Load())], ast.Load()), ast.Load())
    return None


def guard_passes(node):
    # _least_is_a_basis(J)  ->  True
    if method_call(node, "_least_is_a_basis"):
        return ast.Constant(True)
    return None


def least_pass_skips_last(node):
    # any(_sieve_failures(...) for u in C.objects)  ->  ... for u in C.objects[:-1]
    if method_call(node, "any") and isinstance(node.args[0], ast.GeneratorExp) and method_call(node.args[0].elt, "_sieve_failures"):
        loop = node.args[0].generators[0]
        loop.iter = ast.Subscript(loop.iter, ast.Slice(upper=ast.Constant(-1)), ast.Load())
        return node
    return None


def counts_least_sieves(node):
    # SheafReport(True, (), len(listed))  ->  SheafReport(True, (), len(C.objects))
    if method_call(node, "SheafReport") and getattr(node.args[0], "value", None) is True:
        objects = ast.Attribute(ast.Name("C", ast.Load()), "objects", ast.Load())
        return ast.Call(node.func, [*node.args[:2], ast.Call(ast.Name("len", ast.Load()), [objects], [])], [])
    return None


def shared_dict(target: str):
    """Make ``target: ... = {}`` hand every instance one dict, as a
    mutable default does."""
    def edit(node):
        if isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == target:
            node.value = ast.parse(f"globals().setdefault({target!r}, {{}})", mode="eval").body
            return node
        return None
    return edit


def statement_dropped(text: str):
    """Replace the statement that unparses to ``text`` by ``pass``."""
    match = source(text)
    def edit(node):
        return ast.Pass() if isinstance(node, ast.stmt) and match(node) else None
    return edit


def assignment_allowed(node):
    # raise _frozen(...)  ->  object.__setattr__(self, name, value)
    if isinstance(node, ast.Raise):
        return ast.Expr(ast.parse("object.__setattr__(self, name, value)", mode="eval").body)
    return None


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str          # relative to the repository root
    function: str      # the edit applies inside this function only
    edit: Callable     # node -> replacement node, or None to leave it
    tests: tuple = LOGIC_TESTS   # the test files run against it


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
    # t_i = t_j on V ∩ U_ij, for every cocycle
    Mutant("glue-without-gij", "src/sheafkit/torsor.py", "glue_torsor", law_without_gij, TORSOR_TESTS),
    # t_i = g_ij · t_i: t[j] read as t[i]
    Mutant("glue-ti-with-ti", "src/sheafkit/torsor.py", "glue_torsor", reindexed("t", ("j",), ("i",)), TORSOR_TESTS),
    # t_i · g with g not restricted to the piece V ∩ U_i
    Mutant("action-unrestricted", "src/sheafkit/torsor.py", "glue_torsor", index_only("r", "g"), TORSOR_TESTS),
    # s_i = (g_ik)_k
    Mutant("canonical-transposed", "src/sheafkit/torsor.py", "glue_torsor", canonical_transposed, TORSOR_TESTS),
    # g'_ij = h_i · g_ij · h_j
    Mutant("equivalence-without-inverse", "src/sheafkit/torsor.py", "cocycles_equivalent",
           index_only("inv", "hi"), TORSOR_TESTS),
    # g_ij · g_jk compared with g_ki
    Mutant("cocycle-against-gki", "src/sheafkit/torsor.py", "check_cocycle",
           reindexed("lifted", ("i", "k", "w"), ("k", "i", "w")), TORSOR_TESTS),
    # the certificate on L without f∘g ∈ L(u) for f: V -> u and g ∈ L(V)
    Mutant("sheaf-guard-passes", "src/sheafkit/sheaf.py", "is_sheaf", guard_passes, SHEAF_TESTS),
    # L(u) checked at every object but the last
    Mutant("least-pass-skips-last", "src/sheafkit/sheaf.py", "is_sheaf", least_pass_skips_last, SHEAF_TESTS),
    # pairs_checked on the certificate counts the L sieves, one per object
    Mutant("pairs-checked-least-only", "src/sheafkit/sheaf.py", "is_sheaf", counts_least_sieves, SHEAF_TESTS),
    # the pass revises each earlier element by the narrowing's table alone,
    # not by the values left at the later element ...
    Mutant("prune-ignores-later-mask", "src/sheafkit/kernel.py", "_prune", replaced("w & m", "w"), KERNEL_TESTS),
    # ... goes through the slots from first to last ...
    Mutant("prune-slots-ascending", "src/sheafkit/kernel.py", "_prune",
           replaced("reversed(range(len(dom)))", "range(len(dom))"), KERNEL_TESTS),
    # ... and skips the fixed points of the diagonals x == ftab[x]
    Mutant("prune-drops-diagonals", "src/sheafkit/kernel.py", "_prune", replaced("diagonals", "()"), KERNEL_TESTS),
    # a p < q square lets a forced element take value 0 as well
    Mutant("forcing-admits-zero", "src/sheafkit/kernel.py", "natural_families",
           replaced("[1 << v for v in gtab]", "[1 << v | 1 for v in gtab]"), KERNEL_TESTS),
    # a slot fixed before the search skips its p == q check
    Mutant("fixed-slot-unchecked", "src/sheafkit/kernel.py", "natural_families",
           branch_skipped(lambda t: isinstance(t, ast.BoolOp) and source("closed[k]")(t.values[0])), KERNEL_TESTS),
    # the search does not narrow
    Mutant("narrowing-skipped", "src/sheafkit/kernel.py", "natural_families",
           replaced("domains[x] & pre[fam[s][i]]", "domains[x]"), KERNEL_TESTS),
    # the search does not filter a slot's candidates by its p == q constraints
    Mutant("closed-filter-skipped", "src/sheafkit/kernel.py", "natural_families",
           branch_skipped(source("closed[k]")), KERNEL_TESTS),
    # a constraint is dropped when its source slot, not its target slot,
    # has one value
    Mutant("one-value-rule-on-source", "src/sheafkit/kernel.py", "natural_families",
           replaced("g_sizes[q] == 1", "g_sizes[p] == 1"), KERNEL_TESTS),
    # the last slot's candidates are built once even when a narrowing
    # reaches it, so every prefix gets the first prefix's candidates
    Mutant("last-slot-cached-when-narrowed", "src/sheafkit/kernel.py", "natural_families",
           replaced("not narrowed[k]", "True"), KERNEL_TESTS),
    # a family that shares its prefix keeps the first family's varying
    # slot, in the nested and the flat form alike
    Mutant("decode-copy-keeps-stale-slot", "src/sheafkit/kernel.py", "decode",
           statement_dropped("if flat:\n    comp.update(table[fam[v]])\nelse:\n    comp[u] = table[fam[v]]"),
           DECODE_TESTS),
    # the prefix leaves out the slot just before the varying one
    Mutant("decode-prefix-one-short", "src/sheafkit/kernel.py", "decode", replaced("fam[:v]", "fam[:v - 1]"),
           DECODE_TESTS),
    # matching families stay in the kernel's slot order when the label
    # order of the arrows differs
    Mutant("matching-sort-skipped", "src/sheafkit/sheaf.py", "matching_families",
           replaced("arrows != list(S.ordered)", "False"), DECODE_TESTS),
    # records of two classes with equal fields compare equal
    Mutant("record-eq-ignores-class", "src/sheafkit/fincat.py", "_fields_equal",
           replaced("other.__class__ is self.__class__", "isinstance(other, FrozenRecord)"), RECORD_TESTS),
    # every DocumentSet holds the same dict of raw documents
    Mutant("document-sets-share-raw", "src/sheafkit/documents.py", "__init__", shared_dict("self.raw"), RECORD_TESTS),
    # assigning a record's field goes through
    Mutant("record-setattr-assigns", "src/sheafkit/fincat.py", "__setattr__", assignment_allowed, RECORD_TESTS),
    # the schema's bulk check passes entries of any length ...
    Mutant("entry-fits-ignores-length", "src/sheafkit/documents.py", "fits",
           replaced("set(map(len, values)) <= {self.n}", "True"), DOCUMENT_TESTS),
    # ... and records that miss a required field
    Mutant("record-fits-skips-required", "src/sheafkit/documents.py", "fits",
           replaced("self.required <= v.keys()", "True"), DOCUMENT_TESTS),
    # a test cone may find two apex elements with its legs
    Mutant("limit-certificate-admits-twins", "src/sheafkit/limits.py", "certify_limit",
           replaced("hits != 1", "hits < 1"), CONE_TESTS),
    # a colimit may have a class that no element reaches ...
    Mutant("colimit-certificate-admits-ghosts", "src/sheafkit/limits.py", "certify_colimit",
           replaced("not ok or len(mediating) != len(res.apex)", "not ok"), CONE_TESTS),
    # ... or one label for two classes
    Mutant("colimit-certificate-admits-merges", "src/sheafkit/limits.py", "certify_colimit",
           replaced("not ok or len(mediating) != len(res.apex)", "len(mediating) != len(res.apex)"), CONE_TESTS),
    # Omega keeps every sieve, closed or not
    Mutant("omega-keeps-every-sieve", "src/sheafkit/classifier.py", "omega",
           replaced("not any((f not in S.arrows and fl <= S.arrows for f, fl in covered))", "True"), CONE_TESTS),
    # dropping a node leaves the nodes above it undecided
    Mutant("down-sets-drop-below", "src/sheafkit/kernel.py", "down_sets",
           replaced("decided | above[i]", "decided | below[i]"), CONE_TESTS),
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


def killer(workdir: Path, mutant: Mutant | None, tests) -> str | None:
    """Run the test files on a copy of the repository carrying the mutant
    (none for the unmutated copy); return the first failing test, if any."""
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
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-rfE", *tests],
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
        broken = killer(Path(tmp), None, sorted({t for m in chosen for t in m.tests}))
        if broken:
            raise SystemExit(f"the unmutated tests fail ({broken}); fix them first")
        for mutant in chosen:
            by = killer(Path(tmp), mutant, mutant.tests)
            print(f"{mutant.name}: {f'killed by {by}' if by else 'SURVIVED'}", flush=True)
            if not by:
                survivors.append(mutant.name)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
