"""What a ``--docs`` load costs, phase by phase, on the benchmark's documents.

The seed-3 ``cli_gallery`` document sets are built as the benchmark builds
them (``perfbench/workloads.py`` is imported, not changed) and written as
the benchmark writes them.  For the 64-object lattice ``lattice6``, its
presheaf ``psh6``, the 16-object ``lattice4``, ``psh4`` and the ``tower``
diagram, the script prints the time of each phase of a load:
``json.loads`` of the file's text, the schema walk, the build
(``validate_category``, ``presheaf`` or ``diagram``) and
``document_digest``, each summed over the sets.

Given the root of another checkout, it loads that checkout's package
beside this one, times each phase on both in turn, the other first in
every other round, and keeps each side's fastest of the rounds.  It exits
1 if the two give a different digest for any seed-3 or bundled document.

Run from the repository root; it is not collected by pytest:

    python tests/ingest_phases.py              # this checkout's times
    python tests/ingest_phases.py PARENT_DIR   # both, and the digest check
"""

from __future__ import annotations

import gc
import importlib
import importlib.util
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from sheafkit import documents  # noqa: E402

import workloads  # noqa: E402

SEED = 3
ROUNDS = 30
TIMED = ("lattice6", "psh6", "lattice4", "psh4", "tower")


def document_sets():
    """The seed-3 cli_gallery sets as {name: file text}, in the benchmark's order."""
    rng = random.Random(f"cli_gallery:{SEED}")
    sets = []
    for _ in range(workloads.DOC_SETS):
        docs, _ = workloads.document_set(rng)
        sets.append({doc["name"]: json.dumps(doc, indent=2, sort_keys=True) for doc in docs})
    return sets


def load_package(checkout):
    """The ``documents`` module of the package under ``checkout``, loaded
    under another name beside this checkout's."""
    name = "other_sheafkit"
    init = Path(checkout) / "src" / "sheafkit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.documents")


def phases(mod, texts, name):
    """(phase, thunk) pairs for loading the document ``name`` with ``mod``;
    the documents it refers to are built first, outside any phase."""
    doc = json.loads(texts[name])
    schema = mod.SCHEMA[doc["kind"]]

    def category(cat):
        morphisms = [(m["name"], m["src"], m["tgt"]) for m in cat["morphisms"]]
        compose = (((g, f), gf) for g, f, gf in cat["compose"])
        return mod.validate_category(cat["objects"], morphisms, cat["identities"], compose)

    if doc["kind"] == "category":
        def build():
            return category(doc)
    elif doc["kind"] == "presheaf":
        base = category(json.loads(texts[doc["base"]]))

        def build():
            return mod.presheaf(base, doc["values"], doc["restrictions"])
    else:
        shape = category(json.loads(texts[doc["shape"]]))

        def build():
            return mod.diagram(shape, doc["values"], doc["actions"])

    return (
        ("json.loads", lambda: json.loads(texts[name])),
        ("schema walk", lambda: schema.walk(doc, (name,))),
        ("build", build),
        ("document_digest", lambda: mod.document_digest(doc)),
    )


def timed(thunk):
    gc.collect()
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def measure(sides, sets):
    """{(document, phase): [fastest seconds per side]}, summed over the sets."""
    best = {}
    for texts in sets:
        for name in TIMED:
            runs = [phases(mod, texts, name) for mod in sides]
            for i, (phase, _) in enumerate(runs[0]):
                fastest = [float("inf")] * len(sides)
                for r in range(ROUNDS):
                    order = range(len(sides)) if r % 2 == 0 else reversed(range(len(sides)))
                    for side in order:
                        fastest[side] = min(fastest[side], timed(runs[side][i][1]))
                total = best.setdefault((name, phase), [0.0] * len(sides))
                best[name, phase] = [t + f for t, f in zip(total, fastest)]
    return best


def digests_differ(sides, sets) -> int:
    """The number of seed-3 and bundled documents whose digests differ."""
    docs = [json.loads(text) for texts in sets for text in texts.values()]
    docs += documents.gallery_documents().values()
    differ = 0
    for doc in docs:
        if len({mod.document_digest(doc) for mod in sides}) > 1:
            differ += 1
            if differ == 1:
                print(f"first digest difference: {doc['name']}")
    return differ


def main(argv) -> int:
    if len(argv) > 1:
        raise SystemExit("usage: python tests/ingest_phases.py [PARENT_DIR]")
    sides = ([load_package(argv[0])] if argv else []) + [documents]
    sets = document_sets()
    best = measure(sides, sets)
    heads = ("other", "this", "ratio") if argv else ("this",)
    print(f"seed-{SEED} cli_gallery documents, {len(sets)} sets, fastest of {ROUNDS} rounds, ms summed over the sets")
    print(f"{'':32}" + "".join(f"{h:>9}" for h in heads))
    for (name, phase), times in best.items():
        cells = [f"{t * 1e3:9.3f}" for t in times] + ([f"{times[1] / times[0]:9.3f}"] if argv else [])
        print(f"{name + ' ' + phase:32}" + "".join(cells))
    totals = [sum(t[s] for t in best.values()) for s in range(len(sides))]
    print(f"{'total':32}" + "".join(f"{t * 1e3:9.3f}" for t in totals)
          + (f"{totals[1] / totals[0]:9.3f}" if argv else ""))
    if not argv:
        return 0
    differ = digests_differ(sides, sets)
    print(f"\n{differ} documents with a different digest")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
