"""Race the GA against PSO on one instance across run seeds.

Each run writes its per-epoch history CSV; the summary table reports best
fitness, the gap to the exact weighted optimum, and wall time, plus how
often each method lands within 10% of the optimum.

Example:
    python3 scripts/metaheuristic_experiment.py --out runs/meta
    python3 scripts/metaheuristic_experiment.py --preset instance2 \
        --instance-seed 202 --pop 200 --epochs 500 --seeds 0 1 2 3 4
"""
from __future__ import annotations

import argparse
import csv
import time
from pathlib import Path

from evroute.cli import PRESETS
from evroute.exact import weighted_optimum
from evroute.instance import generate_instance
from evroute.metaheuristics import SearchConfig, run_ga, run_pso, write_history_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="instance1", choices=sorted(PRESETS))
    ap.add_argument("--instance-seed", type=int, default=108)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(100, 110)))
    ap.add_argument("--pop", type=int, default=100)
    ap.add_argument("--epochs", type=int, default=300)
    ap.add_argument("--weights", type=float, nargs=2, default=(1.0, 1.0),
                    metavar=("W_TIME", "W_COST"))
    ap.add_argument("--out", type=Path, default=Path("runs/meta"))
    args = ap.parse_args()

    inst = generate_instance(PRESETS[args.preset], seed=args.instance_seed)
    weights = tuple(args.weights)
    wopt = weighted_optimum(inst, weights).value
    args.out.mkdir(parents=True, exist_ok=True)

    rows = []
    hits = {"ga": 0, "pso": 0}
    print(f"instance {args.preset} seed {args.instance_seed}: "
          f"{inst.graph.n_nodes} stations, exact weighted optimum {wopt:.6f}")
    print(f"{'method':6} {'seed':>5} {'fitness':>12} {'gap %':>8} {'secs':>7}  feasible")
    for seed in args.seeds:
        cfg = SearchConfig(population=args.pop, epochs=args.epochs, seed=seed)
        for method, runner in (("ga", run_ga), ("pso", run_pso)):
            t0 = time.perf_counter()
            result = runner(inst, cfg, weights)
            secs = time.perf_counter() - t0
            write_history_csv(result.history,
                              args.out / f"history-{method}-seed{seed}.csv")
            gap = 100.0 * (result.fitness - wopt) / wopt
            hits[method] += gap <= 10.0
            print(f"{method:6} {seed:>5} {result.fitness:>12.6f} {gap:>8.2f} "
                  f"{secs:>7.2f}  {result.feasible}")
            rows.append([method, seed, result.fitness, f"{gap:.4f}",
                         f"{secs:.3f}", result.feasible])

    n = len(args.seeds)
    print(f"within 10% of optimum: ga {hits['ga']}/{n}, pso {hits['pso']}/{n}")
    with open(args.out / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["method", "seed", "best_fitness", "gap_pct", "secs", "feasible"])
        w.writerows(rows)
    print(f"wrote {args.out / 'summary.csv'}")


if __name__ == "__main__":
    main()
