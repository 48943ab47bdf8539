#!/usr/bin/env python3
"""phasekit benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 15 --trace 0

The package is imported from ``./src`` (it is not installed). The load is a
closed loop with one client: one process makes one call at a time.
``PHASEKIT_THREADS`` is set to the usable core count, so the pool never has
more threads than cores.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the per-layer metrics in three phases of a third of
the run each: untraced, traced, and traced again with ``PHASEKIT_THREADS=1``
(the serial baseline behind ``parallel.speedup``). The difference between
the traced and untraced pass times is reported as the tracing overhead.

Every output of every operation is checked: against ``references.json``
(the default seed's outputs), against the first pass (results must not
depend on repetition or thread count), and against the workload's
invariants. The metric names, units and order come from ``BENCHMARK.json``.
Human-readable lines come first; the last line of standard output is the
result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
SETUP_REPEATS = 5
CALL_TIMEOUT_S = 120

# a fresh interpreter imports phasekit and warms the lazy log-factorial table
# to the size the workload leaves behind; it prints three clock readings
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import phasekit
t1 = time.perf_counter()
n = int(sys.argv[1])
if n:
    from phasekit import numerics
    numerics.log_factorial(n)
t2 = time.perf_counter()
print(t0, t1, t2)
"""

# `python -m phasekit ARGS` that also writes its own peak resident memory to
# standard error as it ends, on a last line "<HWM_TAG> <KiB>"
HWM_TAG = "perfbench-vmhwm-kib"
CLI_CHILD = f"""\
import runpy, sys
try:
    runpy.run_module("phasekit", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write("\\n{HWM_TAG} " + hwm + "\\n")
"""


def vm_hwm_kib() -> int:
    """Peak resident memory of this process, in KiB.

    VmHWM belongs to the address space, which ``exec`` replaces, so unlike
    ``getrusage``'s ``ru_maxrss`` it does not include the peak of the process
    that started this one.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


@dataclass
class Pass:
    wall: float
    latencies: list
    outputs: dict
    spans: list | None = None


class Runner:
    """Runs one workload's passes and tallies checked operations."""

    def __init__(self, workload, root: Path, env: dict, references: dict):
        self.workload = workload
        self.root = root
        self.env = env
        self.references = references
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.reported: set[str] = set()
        self.child_peak_kib = 0  # largest peak memory of a subprocess call

    def _call(self, op, subprocess_mode: bool) -> str:
        if not subprocess_mode:
            return op.run()
        proc = subprocess.run(
            [sys.executable, "-c", CLI_CHILD, *op.argv],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=CALL_TIMEOUT_S,
        )
        stderr, tag, hwm = proc.stderr.rpartition(f"\n{HWM_TAG} ")
        if tag:
            self.child_peak_kib = max(self.child_peak_kib, int(hwm))
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {stderr.strip()}")
        return proc.stdout

    def run_pass(self, subprocess_mode=False, tracer=None) -> Pass:
        latencies, outputs = [], {}
        start = time.perf_counter()
        for i, op in enumerate(self.workload.ops):
            if tracer is not None:
                tracer.begin_op(i)
            t0 = time.perf_counter()
            try:
                outputs[op.key] = self._call(op, subprocess_mode)
            except Exception:  # an operation that raises counts as failed
                outputs[op.key] = None
                self._report(op.key, traceback.format_exc())
            latencies.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
        spans = tracer.take() if tracer is not None else None
        self._check(outputs)
        return Pass(wall, latencies, outputs, spans)

    def _report(self, key, message):
        if key not in self.reported:
            self.reported.add(key)
            print(f"perfbench: FAILED {key}: {message}", file=sys.stderr)

    def _check(self, outputs):
        problems = self.workload.check(outputs)
        for key, text in outputs.items():
            self.attempted += 1
            if text is None:
                problem = "raised"
            elif key in self.references and text != self.references[key]:
                problem = "differs from the stored reference"
            elif text != self.first.setdefault(key, text):
                problem = "differs from the first pass"
            else:
                problem = problems.get(key)
            if problem:
                self.failed += 1
                self._report(key, problem)

    def run_phase(self, seconds, between=None, **kwargs) -> list[Pass]:
        """Passes until the next one would end past ``seconds`` (at least one).

        ``between`` runs after every pass, outside the pass's time.
        """
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(**kwargs))
            if between is not None:
                between()
            if time.perf_counter() - start + passes[-1].wall > seconds:
                return passes


class SetupTimer:
    """Fresh-interpreter set-up samples: interpreter start, import, warm state.

    Set-up time drifts over seconds on a shared machine, so the end-to-end
    run takes a sample after every pass as well as before the first one.
    """

    def __init__(self, root: Path, env: dict, warm_n: int):
        self.root = root
        self.env = env
        self.warm_n = warm_n
        self.samples: list[tuple[float, float, float]] = []

    def sample(self) -> None:
        spawn = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(self.warm_n)],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=CALL_TIMEOUT_S, check=True,
        )
        t0, t1, t2 = (float(x) for x in proc.stdout.split())
        self.samples.append((t2 - spawn, t0 - spawn, t1 - t0))

    def medians(self) -> dict:
        total, interpreter, imports = zip(*self.samples)
        return {
            "setup_s": statistics.median(total),
            "cli.interpreter_s": statistics.median(interpreter),
            "cli.import_s": statistics.median(imports),
        }


def warm_table_size() -> int:
    """Size of the shared log-factorial table once it has grown, else 0."""
    from phasekit import numerics

    table = getattr(numerics, "_shared_table", None)
    grown = table is not None and table.max_n > 256
    return table.max_n if grown else 0


def tail(latencies) -> tuple[float | None, int, int]:
    """Highest order statistic with ten calls beyond it, its 1-based rank, and n."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return None, 0, n
    return ordered[n - 11], n - 10, n


def run_record(args, nproc: int, root: Path) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():  # a plain source checkout has no commit
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "phasekit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "phasekit_threads": int(os.environ["PHASEKIT_THREADS"]),
        "load": "closed loop, 1 client",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def warm_up(runner: Runner, root, env, subprocess_mode: bool) -> SetupTimer:
    """One untimed pass, then the first set-up samples."""
    runner.run_pass(subprocess_mode=subprocess_mode)
    # each CLI call starts cold, so the cli workload has no state to warm
    setup = SetupTimer(root, env, 0 if runner.workload.subprocess else warm_table_size())
    for _ in range(SETUP_REPEATS):
        setup.sample()
    return setup


def end_to_end(runner: Runner, args, root, env) -> dict:
    w = runner.workload
    setup = warm_up(runner, root, env, subprocess_mode=w.subprocess)
    passes = runner.run_phase(args.seconds, between=setup.sample, subprocess_mode=w.subprocess)
    latencies = [x for p in passes for x in p.latencies]
    peak_kib = runner.child_peak_kib if w.subprocess else vm_hwm_kib()
    tail_s, rank, n = tail(latencies)
    wall = statistics.median(p.wall for p in passes)
    metrics = {
        "setup_s": setup.medians()["setup_s"],
        "wall_s": wall,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    print(f"# passes = {len(passes)}, calls = {n}, set-up samples = {len(setup.samples)}")
    print(f"# call_p50_s = {statistics.median(latencies)!r} s")
    print(f"# call_tail_s = {tail_s!r} s (order statistic {rank} of {n})")
    if w.trials_per_pass:
        print(f"# trials_per_s = {w.trials_per_pass / wall!r} trials/s")
    return metrics


def per_layer(runner: Runner, args, root, env, spans_path: Path) -> tuple[dict, bool]:
    import tracer as tracing

    setup = warm_up(runner, root, env, subprocess_mode=False)
    third = args.seconds / 3.0
    untraced = runner.run_phase(third)
    with tracing.Tracer() as tracer:
        traced = runner.run_phase(third, tracer=tracer)
        threads = os.environ["PHASEKIT_THREADS"]
        os.environ["PHASEKIT_THREADS"] = "1"
        try:
            serial = runner.run_phase(third, tracer=tracer)
        finally:
            os.environ["PHASEKIT_THREADS"] = threads
    summaries = [tracing.summarize(p.spans) for p in traced + serial]
    names = sorted({k for s in summaries for k in s})
    counts_repeat = True
    metrics = {}
    for name in names:
        values = [s.get(name, 0) for s in summaries]
        if tracing.is_count(name):
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                counts_repeat = False
                print(f"perfbench: count {name} differs between passes: {values}", file=sys.stderr)
        else:
            metrics[name] = statistics.median(values[: len(traced)])
    wall_untraced = statistics.median(p.wall for p in untraced)
    wall_traced = statistics.median(p.wall for p in traced)
    wall_serial = statistics.median(p.wall for p in serial)
    metrics.update(
        {
            "cli.interpreter_s": setup.medians()["cli.interpreter_s"],
            "cli.import_s": setup.medians()["cli.import_s"],
            "parallel.speedup": wall_serial / wall_traced,
            "trace.overhead_s": wall_traced - wall_untraced,
            "trace.wall_untraced_s": wall_untraced,
            "trace.wall_traced_s": wall_traced,
            "trace.wall_serial_s": wall_serial,
        }
    )
    spans_path.parent.mkdir(exist_ok=True)
    tracing.write_spans(traced[-1].spans, spans_path)
    print(f"# passes: untraced {len(untraced)}, traced {len(traced)}, serial {len(serial)}")
    print(f"# spans of the last traced pass: {spans_path}")
    return metrics, counts_repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "phasekit" / "__init__.py").is_file():
        print("perfbench: no phasekit sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    os.environ["PHASEKIT_THREADS"] = str(nproc)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    sys.path.insert(0, str(root / "src"))
    import workloads

    workload = workloads.build(args.workload, args.seed)
    references = json.loads(REFERENCES.read_text(encoding="utf-8")).get(args.workload, {})
    workload.prepare()
    runner = Runner(workload, root, env, references)
    print("# run " + json.dumps(run_record(args, nproc, root), sort_keys=True))

    counts_repeat = True
    if args.trace:
        spans_path = root / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        values, counts_repeat = per_layer(runner, args, root, env, spans_path)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(runner, args, root, env)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    for name in sorted(set(values) - set(metrics)):
        print(f"# (not in BENCHMARK.json) {name} = {values[name]!r}")
    print(f"# ops_failed_ratio = {runner.failed / max(runner.attempted, 1)!r} ratio")
    result = {
        "correct": runner.failed == 0 and counts_repeat,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
