"""Check that the benchmark's traced per-layer counts are deterministic.

Usage, from the root of a checkout:

    python3 bench/check_determinism.py

For every workload it makes three short traced runs: two with seed 0
and one with seed 1.  The two seed-0 runs must report identical counts
(calls, fixed-point iterations, phi evaluations, rows, bytes, events).
Seed 1 must change the counts of ``ensemble-coarse``, whose inputs are
drawn from the seed, and leave the other two workloads, whose inputs
are fixed, unchanged.  Exits with 1 and names the differences otherwise.
Takes about two and a half minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = {"count", "call/step", "iter/call", "iter", "eval/step", "eval/call", "B"}
SEEDED = {"ensemble-coarse"}


def counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}


def main() -> int:
    problems = []
    for workload in ("integrate-csv", "sweep-elliptic", "ensemble-coarse"):
        first, again, other = counts(workload, 0), counts(workload, 0), counts(workload, 1)
        diff = sorted(k for k in first if first[k] != again[k])
        if diff:
            problems.append(f"{workload}: seed 0 twice differs in {diff}")
        changed = sorted(k for k in first if first[k] != other[k])
        if workload in SEEDED and not changed:
            problems.append(f"{workload}: seed 1 gives the same counts as seed 0")
        if workload not in SEEDED and changed:
            problems.append(f"{workload}: seed 1 changes {changed}, but its input is fixed")
        print(f"{workload}: {len(first)} counts; repeat differs in {len(diff)}, "
              f"seed 1 changes {len(changed)}")
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
