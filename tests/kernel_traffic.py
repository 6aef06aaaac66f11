"""The search kernel's traffic on the benchmark's workloads, and a replay
of it through another checkout's kernel.

Every ``kernel.natural_families`` call made in 12 cycles of each
perfbench workload, at seeds 3 and 7, is recorded with its arguments and
the kind of op that made it.  The script prints, per workload, the
number of calls and of calls with a p == q constraint.

Given the root of another checkout, it also replays every recorded call
through that checkout's ``src/sheafkit/kernel.py`` and through this
one's, exits 1 if any list of families differs, and prints the replay
times: each op kind's calls are timed on both kernels in turn, the other
kernel first in every other round, and each side keeps its fastest of 15
rounds.

Run from the repository root; it is not collected by pytest, and it only
imports ``perfbench/workloads.py``:

    python tests/kernel_traffic.py              # the counts
    python tests/kernel_traffic.py PARENT_DIR   # the counts and the replay
"""

from __future__ import annotations

import gc
import importlib.util
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from sheafkit import kernel  # noqa: E402

import workloads  # noqa: E402

WORKLOADS = ("cli_gallery", "topos_sweep", "search_pruned", "search_dense")
SEEDS = (3, 7)
CYCLES = 12
ROUNDS = 15


def record_traffic():
    """{workload: [(op kind, (f_sizes, g_sizes, morphisms)), ...]} in call order."""
    traffic = {}
    calls = []
    original = kernel.natural_families

    def recording(f_sizes, g_sizes, morphisms):
        args = (list(f_sizes), list(g_sizes), [(p, q, list(ftab), list(gtab)) for p, q, ftab, gtab in morphisms])
        calls.append(args)
        return original(f_sizes, g_sizes, morphisms)

    kernel.natural_families = recording
    try:
        for name in WORKLOADS:
            traffic[name] = []
            for seed in SEEDS:
                with tempfile.TemporaryDirectory(prefix="sheafkit-traffic-") as root:
                    wl = workloads.build(name, seed, root)
                    try:
                        for i in range(CYCLES):
                            for op in wl.cycle(i):
                                op.run()
                                traffic[name] += [(op.name, args) for args in calls]
                                calls.clear()
                    finally:
                        wl.close()
    finally:
        kernel.natural_families = original
    return traffic


def has_square(args):
    """Does the call have a p == q constraint?"""
    return any(p == q for p, q, _, _ in args[2])


def load_kernel(checkout):
    """The ``natural_families`` of the kernel module under ``checkout``."""
    path = Path(checkout) / "src" / "sheafkit" / "kernel.py"
    spec = importlib.util.spec_from_file_location("other_kernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.natural_families


def replay(search, calls):
    """Seconds to run every call through ``search``."""
    gc.collect()
    start = time.perf_counter()
    for args in calls:
        search(*args)
    return time.perf_counter() - start


def compare(traffic, other):
    """Replay against ``other``'s kernel; the number of calls whose lists differ."""
    sides = (load_kernel(other), kernel.natural_families)
    differ = 0
    for name, calls in traffic.items():
        for kind, args in calls:
            if sides[0](*args) != sides[1](*args):
                differ += 1
                if differ == 1:
                    print(f"first difference: {name} {kind} {args}")
    print(f"\nreplay through {other} (fastest of {ROUNDS} rounds, ms)")
    print(f"{'':30} {'other':>9} {'this':>9} {'ratio':>7}")
    for name, calls in traffic.items():
        kinds = {}
        for kind, args in calls:
            kinds.setdefault(kind, []).append(args)
        best = {kind: [float("inf")] * 2 for kind in kinds}
        total = [float("inf")] * 2
        for r in range(ROUNDS):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            spent = [0.0, 0.0]
            for kind, group in kinds.items():
                for side in order:
                    t = replay(sides[side], group)
                    spent[side] += t
                    best[kind][side] = min(best[kind][side], t)
            total = [min(a, b) for a, b in zip(total, spent)]
        rows = [(name, total), *((f"  {kind} ({len(kinds[kind])})", best[kind]) for kind in kinds)]
        for label, (theirs, ours) in rows:
            print(f"{label:30} {theirs * 1e3:9.2f} {ours * 1e3:9.2f} {ours / theirs:7.3f}")
    return differ


def main(argv) -> int:
    if len(argv) > 1:
        raise SystemExit("usage: python tests/kernel_traffic.py [PARENT_DIR]")
    traffic = record_traffic()
    print(f"{'workload':14} {'calls':>7} {'p == q':>7}")
    for name, calls in traffic.items():
        print(f"{name:14} {len(calls):7} {sum(has_square(args) for _, args in calls):7}")
    print(f"{'total':14} {sum(map(len, traffic.values())):7}")
    if not argv:
        return 0
    differ = compare(traffic, argv[0])
    print(f"\n{differ} of {sum(map(len, traffic.values()))} calls differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
