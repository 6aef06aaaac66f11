"""What the benchmark's tracer needs from the library.

``perfbench/tracer.py`` rebinds sheafkit functions by name and counts the
kernel's families with ``len``.  It reports a function it cannot find as
absent rather than failing, so a rename would silently empty a layer of
the trace; these tests make it fail here instead.  The tracer's source
is only read and compiled, never installed.
"""

import importlib
import types
from pathlib import Path

import pytest

from sheafkit.documents import DocumentSet
from sheafkit.kernel import natural_families

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """The tracer module, compiled from its source; no bytecode is written."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"), vars(module))
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("name", [f"{mod}.{fn}" for mod, fns in TRACER.TRACED.items() for fn in fns])
def test_every_traced_function_resolves(name):
    mod, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"sheafkit.{mod}"), fn, None)), name


@pytest.mark.parametrize("method", TRACER.DOCUMENT_BUILDERS)
def test_every_document_builder_resolves(method):
    assert callable(getattr(DocumentSet, method, None)), method


def test_the_kernel_returns_a_list():
    """The tracer's family counter calls ``len`` on the result."""
    for result in (natural_families([], [], []), natural_families([2, 1], [2, 2], [(0, 1, [0, 0], [0, 1])])):
        assert type(result) is list
    assert TRACER.RESULT_COUNTERS["kernel.natural_families"][1] is len
