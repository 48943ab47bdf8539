"""Tests of the benchmark itself (not of phasekit).

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import phasekit  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from phasekit import cli, helstrom, montecarlo, numerics, receivers, scan  # noqa: E402
from phasekit.model import PulsePair  # noqa: E402

MODULES = [phasekit, numerics, receivers, helstrom, montecarlo, scan, cli, phasekit._parallel]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def runner(name, tiny=True, seed=5):
    workload = workloads.build(name, seed, tiny=tiny)
    workload.prepare()
    env = {"PYTHONPATH": str(ROOT / "src"), "PHASEKIT_THREADS": "2", "PATH": "/usr/bin:/bin"}
    return bench.Runner(workload, ROOT, env, references={})


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_runs_at_tiny_size(name):
    r = runner(name)
    r.run_pass()
    if r.workload.subprocess:
        r.run_pass(subprocess_mode=True)
    assert r.attempted == len(r.workload.ops) * (2 if r.workload.subprocess else 1)
    assert r.failed == 0


def test_cli_peak_memory_is_the_childs_own():
    # a large parent must not raise the children's peak, as ru_maxrss would
    # after a vfork and exec
    ballast = np.ones(96 * 1024 * 1024 // 8)
    r = runner("cli")
    r.run_pass(subprocess_mode=True)
    assert r.failed == 0
    assert 0 < r.child_peak_kib < bench.vm_hwm_kib() - 64 * 1024
    del ballast


def test_mismatch_against_reference_counts_as_failed():
    r = runner("angle_search")
    key = r.workload.ops[0].key
    r.references = {key: "P = 0.123\n"}
    r.run_pass()
    assert r.failed == 1


def test_invariant_violation_counts_as_failed():
    r = runner("montecarlo")
    key = r.workload.ops[0].key
    outputs = {op.key: op.run() for op in r.workload.ops}
    outputs[key] = "error_rate = 0.49\nerrors = 1\ntrials = 20000\n"
    assert set(r.workload.check(outputs)) == {key}


def _snapshot():
    return {(m.__name__, n): v for m in MODULES for n, v in vars(m).items()}


def test_tracer_wraps_rebound_names_and_restores_originals():
    before = _snapshot()
    with tracing.Tracer() as tracer:
        patched = set(tracer.patched)
        # names bound by `from .numerics import ...` in other modules
        for module, name in [
            ("phasekit.receivers", "poisson_tail_cutoff"),
            ("phasekit.scan", "p_beamsplitter_ml"),
            ("phasekit.cli", "run_trials"),
            ("phasekit.helstrom", "eigenvalues_symmetric"),
            ("phasekit.montecarlo", "parallel_map"),
            ("phasekit", "p_err_optimal"),
        ]:
            assert (module, name) in patched
        assert receivers.poisson_tail_cutoff is not before[("phasekit.numerics", "poisson_tail_cutoff")]
        receivers.p_homodyne_generalized(PulsePair(0.1, 1.0))
        layers = {s.layer for s in tracer.take()}
        assert {"receivers.homodyne", "numerics.cutoff", "numerics.pmf"} <= layers
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_pool_items_get_the_caller_as_parent(monkeypatch):
    monkeypatch.setenv("PHASEKIT_THREADS", "2")
    r = runner("montecarlo")
    with tracing.Tracer() as tracer:
        spans = r.run_pass(tracer=tracer).spans
    items = [s for s in spans if s.item]
    assert items
    for s in items:
        assert s.parent.layer == "parallel.map"
        assert s.parent.parent.layer == "montecarlo.run"
        assert s.layer == "montecarlo.run"
        assert s.op == s.parent.op is not None
    metrics = tracing.summarize(spans)
    assert metrics["montecarlo.blocks"] == metrics["parallel.map.items"] > 0


@pytest.mark.parametrize("threads", ["1", "2"])
def test_self_times_sum_to_at_most_wall(monkeypatch, threads):
    monkeypatch.setenv("PHASEKIT_THREADS", threads)
    r = runner("figures")
    with tracing.Tracer() as tracer:
        p = r.run_pass(tracer=tracer)
    layer_self = sum(v for k, v in tracing.summarize(p.spans).items() if k.endswith(".self_s"))
    # pool items overlap in time, so the bound holds per thread of execution
    selfs = tracing.self_times(p.spans)
    per_thread: dict[int, float] = {}
    for s in p.spans:
        per_thread[s.thread] = per_thread.get(s.thread, 0.0) + selfs[s.id]
    assert layer_self == pytest.approx(sum(per_thread.values()))
    assert 0.0 < max(per_thread.values()) <= p.wall
    if threads == "1":
        assert len(per_thread) == 1
    assert r.failed == 0


def test_exact_counts_repeat(monkeypatch):
    counts = []
    for name in ("figures", "angle_search"):
        r = runner(name)
        with tracing.Tracer() as tracer:
            for threads in ("2", "1", "2"):
                monkeypatch.setenv("PHASEKIT_THREADS", threads)
                m = tracing.summarize(r.run_pass(tracer=tracer).spans)
                counts.append((name, {k: v for k, v in m.items() if tracing.is_count(k)}))
    for name in ("figures", "angle_search"):
        runs = [c for n, c in counts if n == name]
        assert runs[0] == runs[1] == runs[2]
    figures_counts = counts[0][1]
    for key in ("numerics.eigen.sweeps", "helstrom.block_entries", "receivers.ml.cells",
                "numerics.pmf.elements"):
        assert figures_counts[key] > 0
    assert counts[3][1]["receivers.best_angle.evals"] > 0


def _checkout(tmp_path, with_sources=True):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_refuses_to_run_without_sources(tmp_path):
    proc = _bench(_checkout(tmp_path, with_sources=False),
                  "--workload", "montecarlo", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_follows_the_contract(tmp_path, trace):
    cwd = _checkout(tmp_path)
    proc = _bench(cwd, "--workload", "montecarlo", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert (cwd / ".perfbench" / "spans-montecarlo-seed1.jsonl").is_file()
