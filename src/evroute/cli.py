"""Command-line interface.

Three subcommands: `generate` writes a seeded random instance file,
`solve` runs one solver on an instance and writes its front CSV (plus a
history CSV for the population methods), `compare` classifies two front
CSVs against each other. Every command also writes a flat key=value
manifest next to its primary output so the exact run can be replayed:
re-running the manifest's argv reproduces the output files byte for byte
(the wall-clock line is informational and excluded from the digest).

Exit codes: 0 success, 2 usage, 3 input validation, 4 infeasible,
5 resource cap exceeded.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import shlex
import sys
import time
from pathlib import Path

from . import exact
from .exact import InfeasibleInstanceError, ResourceCapError
from .instance import (InstanceFormatError, VehicleParams, generate_instance, load,
                       save, validate)
from .metaheuristics import SearchConfig, run_ga, run_pso, write_history_csv
from .model import check_weights
from .pareto import (FrontCsvError, FrontPoint, front_compare, read_front_csv,
                     write_front_csv)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_INFEASIBLE = 4
EXIT_RESOURCE = 5

OUT_DIR_ENV = "EVROUTE_OUT_DIR"

# Preset shapes (levels, max stations per level, edge probability) sized so
# typical instances land near 10/12/28/26 stations across 2/4/6/8 levels.
PRESETS = {
    "instance1": (2, 8, 0.6),
    "instance2": (4, 5, 0.5),
    "instance3": (6, 6, 0.5),
    "instance4": (8, 5, 0.5),
}

METHODS = ("exact-time", "exact-cost", "eps-front", "oracle", "ga", "pso")

REPORT_CSV_COLUMNS = ("side", "index", "time_h", "cost", "classification")


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _out_dir() -> Path:
    return Path(os.environ.get(OUT_DIR_ENV, "."))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evroute",
        description="Bi-objective route and charging planner for a single "
                    "electric vehicle over a layered charging-station graph.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a seeded random instance file")
    gen.add_argument("--preset", choices=sorted(PRESETS),
                     help="named shape; mutually exclusive with the shape flags")
    gen.add_argument("--levels", type=int, help="number of station levels")
    gen.add_argument("--max-per-level", type=int,
                     help="upper bound on stations per level")
    gen.add_argument("--p-edge", type=float,
                     help="probability of each consecutive-level edge")
    gen.add_argument("--speed-kmh", type=float, default=50.0)
    gen.add_argument("--capacity-kwh", type=float, default=100.0)
    gen.add_argument("--km-per-kwh", type=float, default=6.0)
    gen.add_argument("--initial-soc", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=Path, help="instance file path")

    sol = sub.add_parser("solve", help="run one solver on an instance file")
    sol.add_argument("--instance", type=Path, required=True)
    sol.add_argument("--method", choices=METHODS, required=True)
    sol.add_argument("--delta", default="auto",
                     help="eps-front budget step, or 'auto' for range/20")
    sol.add_argument("--grid", type=int, default=50,
                     help="oracle charge-mesh resolution")
    sol.add_argument("--pop", type=int, default=None,
                     help="ga/pso population size")
    sol.add_argument("--epochs", type=int, default=None,
                     help="ga/pso epoch count")
    sol.add_argument("--seed", type=int, default=0, help="ga/pso rng seed")
    sol.add_argument("--weights", default="1,1",
                     help="ga/pso objective weights as 'time,cost'")
    sol.add_argument("--out", type=Path, help="front CSV path")
    sol.add_argument("--history", type=Path,
                     help="ga/pso per-epoch history CSV path")

    cmp_ = sub.add_parser("compare", help="classify two front CSVs against each other")
    cmp_.add_argument("front_a", type=Path)
    cmp_.add_argument("front_b", type=Path)
    cmp_.add_argument("--report", type=Path, help="per-point report CSV path")
    return parser


def _write_manifest(path: Path, command: str, argv: list[str],
                    fields: dict, started: float) -> None:
    lines = [f"command={command}", f"argv={shlex.join(argv)}"]
    lines += [f"{key}={value}" for key, value in fields.items()]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    lines.append(f"config_digest=sha256:{digest}")
    lines.append(f"wall_clock_s={time.perf_counter() - started:.3f}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path: str | Path) -> dict[str, str]:
    """Parse a run manifest back into a dict (argv is shlex-joined)."""
    out: dict[str, str] = {}
    for n, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{n}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key] = value
    return out


def _manifest_path(primary_output: Path) -> Path:
    return primary_output.with_name(primary_output.name + ".manifest")


def _parse_weights(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _CliError(EXIT_USAGE, "--weights must be two comma-separated numbers")
    try:
        weights = float(parts[0]), float(parts[1])
    except ValueError:
        raise _CliError(EXIT_USAGE, f"--weights must be numeric, got {text!r}")
    try:
        return check_weights(weights)
    except ValueError:
        raise _CliError(EXIT_USAGE,
                        "--weights must be finite, nonnegative and not both zero")


def _parse_delta(text: str) -> float | None:
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise _CliError(EXIT_USAGE, f"--delta must be a number or 'auto', got {text!r}")
    if not value > 0:
        raise _CliError(EXIT_USAGE, "--delta must be > 0")
    return value


def _cmd_generate(args, argv: list[str]) -> int:
    started = time.perf_counter()
    shape_flags = (args.levels, args.max_per_level, args.p_edge)
    if args.preset and any(f is not None for f in shape_flags):
        raise _CliError(EXIT_USAGE,
                        "--preset and explicit shape flags are mutually exclusive")
    if args.preset:
        shape = PRESETS[args.preset]
        tag = args.preset
    else:
        if any(f is None for f in shape_flags):
            raise _CliError(EXIT_USAGE,
                            "provide --preset or all of --levels, "
                            "--max-per-level, --p-edge")
        shape = shape_flags
        tag = f"{args.levels}x{args.max_per_level}"

    params = VehicleParams(speed_kmh=args.speed_kmh, capacity_kwh=args.capacity_kwh,
                           km_per_kwh=args.km_per_kwh, initial_soc=args.initial_soc)
    # The library owns the shape and instance rules: refuse what load refuses.
    try:
        inst = generate_instance(shape, params=params, seed=args.seed)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    errs = validate(inst)
    if errs:
        raise _CliError(EXIT_USAGE, "; ".join(errs))
    out = args.out or _out_dir() / f"instance-{tag}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    save(inst, out)
    _write_manifest(_manifest_path(out), "generate", argv,
                    {"instance": out, "seed": args.seed, "out": out}, started)
    print(f"wrote instance with {inst.graph.n_nodes} stations in "
          f"{len(inst.graph.levels)} levels to {out}")
    return EXIT_OK


def _cmd_solve(args, argv: list[str]) -> int:
    started = time.perf_counter()
    inst = load(args.instance)
    stem = args.instance.stem
    out = args.out or _out_dir() / f"{stem}-{args.method}.csv"
    fields: dict = {"instance": args.instance, "method": args.method}
    history_path: Path | None = None

    if args.method in ("exact-time", "exact-cost"):
        plan = (exact.min_time if args.method == "exact-time" else exact.min_cost)(inst)
        points = [FrontPoint(plan.objectives.time_h, plan.objectives.cost, plan.solution)]
    elif args.method == "eps-front":
        front = exact.epsilon_constraint(inst, delta=_parse_delta(args.delta))
        points = list(front)
        fields["delta"] = args.delta
    elif args.method == "oracle":
        if args.grid < 1:
            raise _CliError(EXIT_USAGE, "--grid must be >= 1")
        points = list(exact.grid_oracle(inst, grid_n=args.grid))
        if not points:
            raise InfeasibleInstanceError(
                f"no charge plan on the --grid {args.grid} mesh "
                f"{{0, 1/{args.grid}, ..., 1}} is feasible on any path")
        fields["grid"] = args.grid
    else:
        weights = _parse_weights(args.weights)
        sizes = {"population": args.pop, "epochs": args.epochs}
        try:
            cfg = SearchConfig(seed=args.seed,
                               **{k: v for k, v in sizes.items() if v is not None})
        except ValueError as exc:
            raise _CliError(EXIT_USAGE, str(exc))
        result = (run_ga if args.method == "ga" else run_pso)(inst, cfg, weights)
        history_path = args.history or _out_dir() / f"{stem}-{args.method}-history.csv"
        history_path.parent.mkdir(parents=True, exist_ok=True)
        write_history_csv(result.history, history_path)
        fields.update(seed=args.seed, population=cfg.population,
                      epochs=cfg.epochs,
                      weights=f"{weights[0]},{weights[1]}",
                      history=history_path)
        if not result.feasible:
            fields["out"] = ""
            _write_manifest(_manifest_path(history_path), "solve", argv, fields, started)
            print(f"wrote history to {history_path}")
            print(f"no feasible plan found by {args.method} "
                  f"(best fitness {result.fitness:.6g}); "
                  f"try more epochs or a larger population", file=sys.stderr)
            return EXIT_INFEASIBLE
        points = [FrontPoint(result.objectives.time_h, result.objectives.cost,
                             result.solution)]

    out.parent.mkdir(parents=True, exist_ok=True)
    write_front_csv(points, out)
    fields["out"] = out
    _write_manifest(_manifest_path(out), "solve", argv, fields, started)
    if history_path is not None:
        print(f"wrote history to {history_path}")
    print(f"wrote {len(points)}-point front to {out}")
    best = points[0]
    print(f"first point: time_h={best.time_h:.6g} cost={best.cost:.6g}")
    return EXIT_OK


def _cmd_compare(args, argv: list[str]) -> int:
    started = time.perf_counter()
    front_a = read_front_csv(args.front_a)
    front_b = read_front_csv(args.front_b)
    comparison = front_compare(front_a, front_b)
    classes_a, classes_b = comparison.a_classes, comparison.b_classes

    report = args.report or _out_dir() / "compare-report.csv"
    report.parent.mkdir(parents=True, exist_ok=True)
    with open(report, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_CSV_COLUMNS)
        for side, points, classes in (("A", front_a, classes_a),
                                      ("B", front_b, classes_b)):
            for i, (p, cls) in enumerate(zip(points, classes)):
                writer.writerow([side, i, repr(p.time_h), repr(p.cost), cls])

    print(f"A: {args.front_a} ({len(front_a)} points)")
    print(f"B: {args.front_b} ({len(front_b)} points)")
    print(f"A points dominated by B: {comparison.a_dominated_by_b}")
    print(f"B points dominated by A: {comparison.b_dominated_by_a}")
    print(f"mutually nondominated: {comparison.mutual_nondominated}")
    for side, points, classes in (("A", front_a, classes_a),
                                  ("B", front_b, classes_b)):
        for i, (p, cls) in enumerate(zip(points, classes)):
            print(f"{side}[{i}] time_h={p.time_h:.6g} cost={p.cost:.6g}: {cls}")
    _write_manifest(_manifest_path(report), "compare", argv,
                    {"front_a": args.front_a, "front_b": args.front_b,
                     "report": report}, started)
    print(f"wrote report to {report}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "seed", 0) < 0:
            raise _CliError(EXIT_USAGE, "--seed must be >= 0")
        if args.command == "generate":
            return _cmd_generate(args, argv)
        if args.command == "solve":
            return _cmd_solve(args, argv)
        return _cmd_compare(args, argv)
    except _CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except (InstanceFormatError, FrontCsvError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entry() -> None:
    sys.exit(main())
