"""Self-test of the trace: two traced runs at one seed give identical counts.

Counts (calls, paths, points filtered) and the fractions built from them
must not depend on timing noise, so a change in the amount of work shows
up as a diff. This runs ``run.py --trace 1`` twice per workload, each in
its own process, and compares every such metric exactly.

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
TIMED_FRACS = {"trace_overhead_frac"}


def traced_counts(workload: str) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(workloads.DEFAULT_SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "frac") and name not in TIMED_FRACS}


def main() -> int:
    ok = True
    for wl in workloads.WORKLOADS:
        first, second = traced_counts(wl), traced_counts(wl)
        diff = sorted(k for k in first.keys() | second.keys()
                      if first.get(k) != second.get(k))
        ok &= not diff
        print(f"{wl}: {len(first)} counts, "
              + ("identical" if not diff else f"DIFFER in {', '.join(diff)}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
