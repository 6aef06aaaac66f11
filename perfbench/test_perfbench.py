"""Tests of the benchmark itself: output contract, tracer and oracles.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
Each benchmark run here is a --smoke run, so the file finishes in seconds.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs as gen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=1, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_the_contract(workload, trace):
    report, result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in result["metrics"].items()}
    env = report["environment"]
    assert env["seed"] == 1 and env["nproc"] >= 1 and "kernel_backend" in env and "clocks" in env


def test_traced_spans_are_deterministic_and_within_wall_time():
    runs = [result_of(bench("topos_sweep", 1, seed=4))[1]["metrics"] for _ in range(2)]
    calls = [{k: v["value"] for k, v in m.items() if k.endswith(".calls")} for m in runs]
    assert calls[0] == calls[1]
    assert calls[0]["logic.forces.calls"] > 0
    for m in runs:
        self_total = sum(v["value"] for k, v in m.items() if k.endswith(".self_s") and not k.startswith("layer."))
        assert self_total <= m["trace.wall_s"]["value"]


def test_traced_cli_outputs_are_byte_identical(monkeypatch):
    monkeypatch.setattr(workloads, "DOC_SETS", 1)
    root = Path(tempfile.mkdtemp(prefix=".perfbench-test-", dir=ROOT))
    wl = workloads.build("cli_gallery", 2, root)
    try:
        plain = [op.run() for op in wl.cycle(0)]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [op.run() for op in wl.cycle(0)]
        finally:
            tracer.uninstall()
        assert [(c, t.encode()) for c, t in plain] == [(c, t.encode()) for c, t in traced]
        counts = tracer.self_times()
        assert counts["cli.run"][0] == len(plain)
        assert counts["documents.build"][0] > 0 and not tracer.missing
    finally:
        wl.close()
        shutil.rmtree(root, ignore_errors=True)


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    import sheafkit.torsor

    monkeypatch.delattr(sheafkit.torsor, "glue_torsor")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["torsor.glue_torsor"]
    assert "torsor.glue_torsor" not in tracer.self_times()


def test_exits_nonzero_without_sources():
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-test-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("search_dense", 0, cwd=bare, script=bare / "perfbench" / "run.py")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def brute_force_naturals(cat, F, G):
    """Every component family, filtered by the squares: the oracle's oracle."""
    slots = [(u, x) for u in cat["objects"] for x in F["value"][u]]
    count = 0
    for values in itertools.product(*(G["value"][u] for u, _ in slots)):
        comp = {u: {} for u in cat["objects"]}
        for (u, x), y in zip(slots, values):
            comp[u][x] = y
        if all(
            comp[v][F["restrict"][f][x]] == G["restrict"][f][comp[u][x]]
            for f, v, u in oracle.arrows(cat)
            for x in F["value"][u]
        ):
            count += 1
    return count


@pytest.mark.parametrize("fold", [gen.identity_fold, gen.pair_fold, gen.constant_fold])
def test_natural_count_oracle_matches_brute_force(fold):
    import random

    rng = random.Random(0)
    cat = gen.vee_raw()
    F, _ = gen.relabel(rng, gen.template_presheaf(cat, dict.fromkeys(cat["objects"], 2), gen.identity_fold))
    G, _ = gen.relabel(rng, gen.template_presheaf(cat, dict.fromkeys(cat["objects"], 3), fold))
    assert oracle.count_naturals(cat, F, G) == brute_force_naturals(cat, F, G)


def test_closed_subpresheaves_of_the_terminal_sierpinski_sheaf():
    # Sub(1) on the Sierpinski site has three elements: Ω(top) has 3 values
    space = gen.space_raw(*gen.SIERPINSKI)
    cat = space["cat"]
    one = gen.template_presheaf(cat, dict.fromkeys(cat["objects"], 1), gen.identity_fold)
    subs = oracle.closed_subpresheaves(cat["objects"], gen.below_map(cat), space["open_of"], one)
    assert len(subs) == 3
