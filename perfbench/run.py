#!/usr/bin/env python3
"""The sheafkit benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a source checkout; it imports sheafkit from
``src/`` there and nowhere else.  The next op starts when the previous
one returns.  Ops repeat in whole cycles (see workloads.py) until the
summed op wall time reaches ``--seconds``, so every run sees the same mix.

Times are scaled by a speed probe run before every op (see PROBE_WINDOW).
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed,
seed-determined list of cycles, each once untraced and once traced, and
prints the per-layer metrics; span counts repeat exactly for a seed.
``--smoke`` runs a sample of the first cycle and skips the repeated
set-up, for the benchmark's own tests.

The next-to-last stdout line is a JSON report with the environment and
details; the last line is the result object.  Exit code 2 means the
benchmark could not run at all (for example, no sources to import).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_gallery", "topos_sweep", "search_pruned", "search_dense")

# set-up is timed this many times in separate processes, plus once here
SETUP_CHILDREN = 6

# a smoke run takes at most this many ops, spread over the first cycle
SMOKE_OPS = 12

# Other tenants of a shared machine slow its CPU by up to a third for tens
# of seconds at a time, CPU time included.  A fixed probe that never calls
# sheafkit runs before every op; each op's times are scaled by the reference
# probe time over the median of the last PROBE_WINDOW probes, so reported
# times are those of a machine where one probe takes REFERENCE_PROBE_S.
PROBE_WINDOW = 15
REFERENCE_PROBE_S = 0.001

# traced cycles per second of --seconds, chosen so that the untraced
# replay plus the traced pass take about --seconds at the seed commit
TRACE_CYCLES_PER_S = {"cli_gallery": 0.1, "topos_sweep": 2.0, "search_pruned": 1.0, "search_dense": 1.0}

CLOCKS = {
    "setup_s": "wall, probe-scaled, median over set-ups in separate processes",
    "op_ms": "wall per op, probe-scaled",
    "ops_per_s": "ops over summed probe-scaled op wall time",
    "cpu_s": "process CPU time of one cycle of ops, probe-scaled, median over cycles",
    "peak_rss_mb": "ru_maxrss of the workload process",
    "raw": "the same times unscaled",
    "self_s": "wall, traced pass, unscaled",
    "trace.overhead_ratio": "traced over untraced wall, same ops, unscaled",
}


def probe():
    """Fixed interpreter-bound work: tuple-keyed dicts, a sort, a JSON round trip."""
    table = {}
    for i in range(1200):
        key = (i % 17, str(i))
        table[key] = {"x": i, "y": (i, key)}
    order = sorted(table, key=lambda k: (k[1], k[0]))
    text = json.dumps([table[k]["x"] for k in order[:600]])
    return len(json.loads(text)) + sum(1 for k in order if k[0] in (1, 3, 5))


def probe_time():
    """The probe's wall time, without a garbage collection of the workload's heap."""
    gc.disable()
    try:
        start = time.perf_counter()
        probe()
        return time.perf_counter() - start
    finally:
        gc.enable()


def speed_scale(probes):
    return REFERENCE_PROBE_S / statistics.median(probes[-PROBE_WINDOW:])


class SetupError(Exception):
    pass


def setup(name, seed):
    """Import sheafkit, generate the inputs, make the first call; time it all."""
    start = time.perf_counter()
    if not (SRC / "sheafkit" / "__init__.py").is_file():
        raise SetupError(f"no sheafkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import sheafkit

    if Path(sheafkit.__file__).resolve().parent != SRC / "sheafkit":
        raise SetupError(f"imported sheafkit from {sheafkit.__file__}, not from {SRC}")
    import workloads

    wl = workloads.build(name, seed, ROOT)
    try:
        wl.cycle(0)[0].run()
    except Exception:  # the same op runs again in the timed loop, where it counts as failed
        pass
    return wl, time.perf_counter() - start


def run_op(op):
    """(wall s, cpu s, error or None); the check runs after the timers stop.

    Any raise fails the op: IntractableSize from the library, CheckFailed
    from the check, or a check that cannot even read the output.
    """
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = op.run()
        error = None
    except Exception as exc:
        error = exc
    t1 = time.perf_counter()
    c1 = time.process_time()
    if error is None:
        try:
            op.check(result)
        except Exception as exc:
            error = exc
    return t1 - t0, c1 - c0, error


class Tally:
    def __init__(self):
        self.walls, self.scaled, self.cycle_cpu, self.probes, self.failures = [], [], [], [], []

    def add(self, op, wall, cpu, error):
        scale = speed_scale(self.probes)
        self.walls.append(wall)
        self.scaled.append(wall * scale)
        self.cycle_cpu[-1] += cpu * scale
        if error is not None:
            self.failures.append(f"{op.name}: {type(error).__name__}: {error}")


def run_cycles(wl, cycles, tally, smoke=False):
    for i in cycles:
        ops = wl.cycle(i)
        if smoke:
            ops = ops[:: -(-len(ops) // SMOKE_OPS)]
        tally.cycle_cpu.append(0.0)
        for op in ops:
            tally.probes.append(probe_time())
            tally.add(op, *run_op(op))


def measure(wl, seconds, smoke):
    """Whole cycles until the summed op wall time reaches ``seconds``."""
    tally = Tally()
    i = 0
    while True:
        run_cycles(wl, [i], tally, smoke)
        i += 1
        if smoke or sum(tally.walls) >= seconds:
            return tally, i


def setup_repeats(name, seed):
    """Set-up times from fresh processes, each importing sheafkit cold."""
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(tally, setup_times):
    scaled = tally.scaled
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_ms.p50": (statistics.median(scaled) * 1000.0, "ms"),
        "op_ms.p90": (percentile(scaled, 90) * 1000.0, "ms"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "cpu_s": (statistics.median(tally.cycle_cpu), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def raw_times(tally):
    walls = tally.walls
    return {
        "op_ms.p50": statistics.median(walls) * 1000.0,
        "op_ms.p90": percentile(walls, 90) * 1000.0,
        "ops_per_s": len(walls) / sum(walls),
        "probe_ms": statistics.median(tally.probes) * 1000.0,
    }


def per_layer(tracer, traced_wall, base_wall):
    import tracer as tracing

    out = {}
    layer = dict.fromkeys(tracing.TRACED, 0.0)
    for name, (calls, self_s) in tracer.self_times().items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
        layer[name.split(".")[0]] += self_s
    for name, (suffix, _) in tracing.RESULT_COUNTERS.items():
        if name not in tracer.missing:
            out[f"{name}.{suffix}"] = (tracer.counters.get(f"{name}.{suffix}", 0), "count")
    for module, total in layer.items():
        out[f"layer.{module}.self_s"] = (total, "s")

    def self_of(name):
        return out.get(f"{name}.self_s", (0.0, "s"))[0]

    kernel = self_of("kernel.natural_families")
    if "kernel.natural_families" not in tracer.missing:
        families = out["kernel.natural_families.families"][0]
        out["kernel.families_per_s"] = (families / kernel if kernel else 0.0, "1/s")
    search = kernel + self_of("limits.certify_limit") + self_of("limits.certify_colimit")
    out["trace.share.kernel_certify"] = (search / traced_wall, "ratio")
    engine = sum(layer[m] for m in ("fincat", "logic", "classifier"))
    out["trace.share.fincat_logic_classifier"] = (engine / traced_wall, "ratio")
    out["trace.share.enumerate_over_kernel"] = (self_of("fincat.enumerate_naturals") / kernel if kernel else 0.0, "ratio")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_ratio"] = (traced_wall / base_wall, "ratio")
    return out


def traced_run(wl, name, seed, seconds, smoke):
    """The same cycles untraced and traced; spans go to .perfbench-out/."""
    from tracer import Tracer

    cycles = range(1 if smoke else max(1, round(seconds * TRACE_CYCLES_PER_S[name])))
    base, traced, tracer = Tally(), Tally(), Tracer()
    # alternate untraced and traced cycles, so that drift in machine speed
    # falls on both sides of the overhead ratio
    for i in cycles:
        run_cycles(wl, [i], base, smoke)
        tracer.install()
        try:
            run_cycles(wl, [i], traced, smoke)
        finally:
            tracer.uninstall()
    metrics = per_layer(tracer, sum(traced.walls), sum(base.walls))
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"{name}.spans.tsv.gz"
    tracer.dump(spans)
    details = {"cycles": len(cycles), "spans": len(tracer.ids), "spans_file": str(spans.relative_to(ROOT)),
               "missing": tracer.missing}
    return base, traced, metrics, details


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(args):
    import sheafkit

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "kernel_backend": getattr(sheafkit, "KERNEL_BACKEND", None),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "clocks": CLOCKS,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few ops of one cycle, one set-up")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        wl, own_setup = setup(args.workload, args.seed)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    own_setup *= speed_scale([probe_time() for _ in range(PROBE_WINDOW)])
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        if args.trace:
            base, tally, metrics, details = traced_run(wl, args.workload, args.seed, args.seconds, args.smoke)
            failures = base.failures + tally.failures
            attempted = len(base.walls) + len(tally.walls)
        else:
            setup_times = [own_setup] if args.smoke else [own_setup] + setup_repeats(args.workload, args.seed)
            tally, cycles = measure(wl, args.seconds, args.smoke)
            metrics = end_to_end(tally, setup_times)
            details = {"cycles": cycles, "setup_samples_s": setup_times, "raw": raw_times(tally)}
            failures = tally.failures
            attempted = len(tally.walls)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        wl.close()

    for line in failures[:5]:
        print(f"perfbench: failed op: {line}", file=sys.stderr)
    report = {
        "environment": environment(args),
        "ops": attempted,
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        **details,
    }
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
