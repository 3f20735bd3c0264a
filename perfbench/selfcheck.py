"""Counter determinism check: two traced runs per workload must agree exactly.

    python3 perfbench/selfcheck.py

Runs ``run.py --trace 1`` twice per workload on seed 0, in fresh
processes with different hash seeds, and compares every per-layer metric
whose unit is ``count`` (simplex pivots, max-flow calls, pricing calls,
B&P nodes, columns, ...).  Exits 1 on any difference or failed run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from benchenv import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced_counts(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"run.py reported incorrect results:\n{proc.stdout}")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first = traced_counts(workload, "1")
        second = traced_counts(workload, "2")
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        ok = ok and not diff
        print(f"{workload}: {len(first)} counters, {'identical' if not diff else f'DIFFER {diff}'}")
        for key in ("lp.pivots", "flow.calls", "pricing.calls", "engine.nodes", "engine.cols_total"):
            print(f"  {key} = {first[key]:.0f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
