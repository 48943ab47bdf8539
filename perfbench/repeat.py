#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric's spread.

Run from the repository root:

    python3 perfbench/repeat.py --workloads figures,cli --seeds 1-10 --out result.json

For every workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, of the end-to-end
metrics (``--trace 0``). Runs use ``run_seconds`` from ``BENCHMARK.json``.
Every run must report ``correct: true``; the summary records any that did
not. Each workload keeps the run record its runs share (machine, versions,
thread budget, commit and source hash); ``values`` follow the order of
``seeds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


# fields of run.py's run record that every run of a workload shares
RECORD_KEYS = ("nproc", "phasekit_threads", "load", "python", "numpy", "cpu", "commit",
               "source_sha256")


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = seed_list(args.seeds)
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        record, incorrect = None, []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            run = json.loads(lines[0].removeprefix("# run "))
            shared = {k: run[k] for k in RECORD_KEYS}
            if record is not None and shared != record:
                print(f"{workload} seed {seed}: run record differs: {shared} != {record}",
                      file=sys.stderr)
                return 1
            record = shared
            if not result["correct"]:
                incorrect.append(seed)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            shown = ", ".join(f"{k} {v['value']:.4g}" for k, v in list(result["metrics"].items())[:4])
            print(f"{workload} seed {seed}: correct={result['correct']} {shown}", flush=True)
        metrics = {name: summary(v) for name, v in values.items()}
        report["workloads"][workload] = {
            "incorrect_seeds": incorrect, "metrics": metrics,
            "record": record,
        }
        for name, s in metrics.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:13s} {name:28s} median {s['median']:.6g} spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
