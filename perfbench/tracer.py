"""Per-layer tracing from outside the library.

The tracer rebinds each traced public function to a wrapper that records
one span (name, start, end, parent) per call.  ``from .fincat import
presheaf`` copies the function into the importing module, so the wrapper
replaces the original under every name any ``sheafkit.*`` module holds
it by.  ``DocumentSet`` builder methods are wrapped on the class and share
the one span name ``documents.build``.  Spans stay in memory, in flat
arrays, until the run ends; self time is a span's duration minus the
durations of its direct children (one thread, so children nest).
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

# (module, function) pairs; the span name is "<module>.<function>"
TRACED = {
    "cli": ("run", "build_parser"),
    "documents": ("load_documents", "document_digest"),
    "fincat": ("validate_category", "presheaf", "natural_transformation", "yoneda_presheaf", "enumerate_naturals"),
    "kernel": ("natural_families",),
    # label_key is left alone: it is a sort key called millions of times
    "labels": ("canon",),
    "limits": ("diagram", "limit", "colimit", "certify_limit", "certify_colimit", "kan_to_point"),
    "site": ("validate_topology", "saturate_topology", "open_cover_topology", "all_sieves"),
    "sheaf": ("is_sheaf", "sheafify", "matching_families", "exponential"),
    "classifier": ("omega", "enumerate_subobjects", "classify_round_trip", "heyting_report"),
    "logic": ("forces", "check_sorting", "interpret", "context_product"),
    "torsor": ("is_torsor", "check_cocycle", "extract_cocycle", "cocycles_equivalent", "glue_torsor"),
}

DOCUMENT_BUILDERS = (
    "category", "space", "site", "base_category", "presheaf", "group_sheaf",
    "action", "cocycle", "formula", "diagram",
)

# counts read off a traced call's result: span name -> (counter suffix, reader)
RESULT_COUNTERS = {
    "kernel.natural_families": ("families", len),
    "sheaf.is_sheaf": ("pairs_checked", lambda r: r.pairs_checked),
    "limits.certify_limit": ("cones", lambda r: r.cones_checked),
    "limits.certify_colimit": ("cones", lambda r: r.cones_checked),
}


def span_names():
    """Every span name the tracer can produce, in a fixed order."""
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    names.insert(names.index("documents.document_digest"), "documents.build")
    return names


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []
        self.counters = {}
        self.missing = []
        self._patches = []  # (owner, attribute, original)

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every traced function that exists; record the ones that do not.

        Spans accumulate across install/uninstall pairs.
        """
        self.missing = []
        wrappers = {}
        for mod_name, fns in TRACED.items():
            module = importlib.import_module(f"sheafkit.{mod_name}")
            for fn in fns:
                name = f"{mod_name}.{fn}"
                original = getattr(module, fn, None)
                if not callable(original):
                    self.missing.append(name)
                    continue
                wrappers[id(original)] = (original, self._wrap(name, original))
        for module in [m for n, m in sys.modules.items() if n == "sheafkit" or n.startswith("sheafkit.")]:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        DocumentSet = getattr(importlib.import_module("sheafkit.documents"), "DocumentSet", None)
        builders = [m for m in DOCUMENT_BUILDERS if DocumentSet is not None and callable(getattr(DocumentSet, m, None))]
        if not builders:
            self.missing.append("documents.build")
        for meth in builders:
            self._patch(DocumentSet, meth, self._wrap("documents.build", vars(DocumentSet)[meth]))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        sid = self.name_id[name]
        counter = RESULT_COUNTERS.get(name)
        ids, parents, starts, ends, stack = self.ids, self.parents, self.starts, self.ends, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(ids)
            ids.append(sid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self.counters[key] = self.counters.get(key, 0) + counter[1](result)
            return result

        return traced

    # -- results ---------------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, self seconds)."""
        child = [0.0] * len(self.ids)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, sid in enumerate(self.ids):
            calls[sid] += 1
            self_s[sid] += self.ends[i] - self.starts[i] - child[i]
        return {n: (calls[i], self_s[i]) for i, n in enumerate(self.names) if n not in self.missing}

    def dump(self, path):
        """Write every span as ``name<TAB>start<TAB>end<TAB>parent``, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for i, sid in enumerate(self.ids):
                out.write(f"{self.names[sid]}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\t{self.parents[i]}\n")
