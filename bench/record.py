"""Record the reference artifacts the benchmark gate compares against.

Run from the repository root:

    python3 bench/record.py

Runs every scenario of every workload once (seed 0) and writes
bench/reference/<scenario>.npz.  Re-record only for a change that is meant
to alter polylines, events or check values, and say so in that change.
"""

from __future__ import annotations

import sys
from pathlib import Path

import gate
import run
import workloads


def main() -> int:
    root = Path.cwd()
    vl = run.load_library(root)
    out = root / ".bench_out" / "record"
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    status = 0
    for workload in workloads.WORKLOADS:
        for name, config in workloads.build(vl, workload, seed=0):
            result = vl.scenario.run(config, out / name)
            failed = [c.name for c in result.checks if not c.passed]
            if failed:
                print(f"{name}: checks {failed} fail; reference not written", file=sys.stderr)
                status = 1
                continue
            gate.save(gate.REFERENCE_DIR / f"{name}.npz", gate.digest(result, config))
            print(f"{name}: recorded")
    return status


if __name__ == "__main__":
    sys.exit(main())
