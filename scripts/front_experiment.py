"""Trace exact Pareto fronts across the instance presets.

For every (preset, seed) pair this writes the epsilon-constraint front as a
CSV, optionally cross-checks it against the brute-force charge grid, and
appends one row to summary.csv. The console table shows front size and the
objective span.

Example:
    python3 scripts/front_experiment.py --out runs/fronts --seeds 101 202 303
    python3 scripts/front_experiment.py --presets instance1 instance2 --oracle-grid 25
"""
from __future__ import annotations

import argparse
import csv
import time
from pathlib import Path

from evroute.cli import PRESETS
from evroute.exact import ResourceCapError, epsilon_constraint, grid_oracle
from evroute.instance import generate_instance
from evroute.pareto import dominates, write_front_csv

TIME_TOL_H = 1e-6


def oracle_check(inst, front, grid_n: int) -> str:
    """Count oracle points that dominate a front point beyond tolerance."""
    cost_tol = (1.0 / grid_n) * inst.params.capacity_kwh * max(
        st.price for st in inst.stations.values())
    try:
        oracle = list(grid_oracle(inst, grid_n=grid_n))
    except ResourceCapError:
        return "capped"
    bad = 0
    for op in oracle:
        for ep in front:
            if dominates(op, ep) and (ep.time_h - op.time_h > TIME_TOL_H
                                      or ep.cost - op.cost > cost_tol):
                bad += 1
    return str(bad)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--presets", nargs="+", default=sorted(PRESETS),
                    choices=sorted(PRESETS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[101, 202, 303])
    ap.add_argument("--delta", type=float, default=None,
                    help="budget step; default is a twentieth of the cost range")
    ap.add_argument("--oracle-grid", type=int, default=0,
                    help="charge-grid resolution of the grid-oracle cross-check, "
                         "0 skips it; its cap counts all (grid+1)^k plans of a "
                         "k-station path, but the oracle drops each plan at its "
                         "first battery-bound violation")
    ap.add_argument("--out", type=Path, default=Path("runs/fronts"))
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    summary = args.out / "summary.csv"
    rows = []
    print(f"{'preset':10} {'seed':>5} {'points':>6} {'time span (h)':>18} "
          f"{'cost span':>14} {'secs':>7}  oracle")
    for preset in args.presets:
        for seed in args.seeds:
            inst = generate_instance(PRESETS[preset], seed=seed)
            t0 = time.perf_counter()
            front = list(epsilon_constraint(inst, delta=args.delta))
            secs = time.perf_counter() - t0
            write_front_csv(front, args.out / f"front-{preset}-seed{seed}.csv")
            verdict = "-"
            if args.oracle_grid:
                verdict = oracle_check(inst, front, args.oracle_grid)
            t_span = f"{front[0].time_h:.4f}..{front[-1].time_h:.4f}"
            c_span = f"{front[-1].cost:.4f}..{front[0].cost:.4f}"
            print(f"{preset:10} {seed:>5} {len(front):>6} {t_span:>18} "
                  f"{c_span:>14} {secs:>7.2f}  {verdict}")
            rows.append([preset, seed, len(front), front[0].time_h,
                         front[-1].time_h, front[-1].cost, front[0].cost,
                         f"{secs:.3f}", verdict])

    with open(summary, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["preset", "seed", "points", "min_time_h", "max_time_h",
                    "min_cost", "max_cost", "secs", "oracle_bad"])
        w.writerows(rows)
    print(f"wrote {summary}")


if __name__ == "__main__":
    main()
