#!/usr/bin/env python3
"""Regenerate references.json: every workload's outputs at the default seed.

Run from the repository root:

    python3 perfbench/make_references.py

Outputs are the text each operation returns (12 significant digits, as the
CLI prints them), keyed by the operation's inputs. A workload whose
invariants fail is not written. Regenerate only when an output change is
intended and documented.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    references = {}
    for name in workloads.NAMES:
        workload = workloads.build(name, workloads.DEFAULT_SEED)
        workload.prepare()
        outputs = {op.key: op.run() for op in workload.ops}
        problems = workload.check(outputs)
        if problems:
            for key, problem in problems.items():
                print(f"{name}: {key}: {problem}", file=sys.stderr)
            return 1
        references[name] = outputs
        print(f"{name}: {len(outputs)} outputs")
    text = json.dumps(references, indent=1, sort_keys=True) + "\n"
    (HERE / "references.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
