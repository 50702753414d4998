"""Release gate: every acceptance check as one test, one PASS/FAIL line under -v.

The benchmark metaheuristic runs (ten GA seeds plus ten PSO seeds on one
preset-1 instance) are the expensive shared artifact; a session fixture
builds them once and the quality, monotonicity, and dominance gates all
read from it. Everything else regenerates its own instances from frozen
seeds.
"""
from __future__ import annotations

import csv
import math
import shlex
import time
from collections import Counter

import numpy as np
import pytest

from evroute.cli import PRESETS, main, read_manifest
from evroute.exact import epsilon_constraint, grid_oracle, min_cost, min_time, weighted_optimum
from evroute.instance import generate_instance
from evroute.metaheuristics import SearchConfig, run_ga, run_pso
from evroute.model import (CHARGE_EPS, PENALTY_BASE, RouteSolution, active_charges,
                           check_feasible, driven_km)
from evroute.pareto import FrontPoint, dominates, point_classes, write_front_csv

from reference_checker import reference_verdict

BENCH_SHAPE = PRESETS["instance1"]
BENCH_SEED = 108
RUN_SEEDS = tuple(range(100, 110))
BENCH_WEIGHTS = (1.0, 1.0)
BENCH_POP = 100
BENCH_EPOCHS = 300

# The double-coded checker must agree on these cheap-to-solve instances.
FUZZ_INSTANCES = (("instance1", 108), ("instance2", 202))
STRUCTURAL_IDS = frozenset({"c3", "c4", "c5", "c6", "c7", "c12", "c19"})

SPECIAL_Y = (0.0, 1.0, CHARGE_EPS, CHARGE_EPS / 2, -2e-6, 1.0 + 2e-6, -1e-6, 1.0 + 1e-6)


def _random_solution(inst, rng) -> RouteSolution:
    """One fuzzed candidate: clean walks, garbage sequences, or duplicates."""
    g = inst.graph
    nodes = sorted(g.node_set())
    mode = int(rng.integers(0, 4))
    if mode in (0, 3):
        # adjacency walk; mode 3 always runs to the last layer
        path = [int(rng.choice(g.first_layer))]
        while True:
            nxt = g.out_neighbors(path[-1])
            if not nxt:
                break
            if mode == 0 and rng.random() < 0.2:
                break
            path.append(int(rng.choice(nxt)))
    elif mode == 1:
        k = int(rng.integers(0, 6))
        pool = nodes + [99, -3]
        path = [int(rng.choice(pool)) for _ in range(k)]
    else:
        u = int(rng.choice(nodes))
        path = [u, u] if rng.random() < 0.5 else [u]
        if rng.random() < 0.5:
            path.append(int(rng.choice(nodes)))
    plan = {}
    for u in set(path) | {int(rng.choice(nodes))}:
        roll = rng.random()
        if roll < 0.15:
            plan[u] = float(rng.choice(SPECIAL_Y))
        elif roll < 0.8:
            lo, hi = (0.1, 0.9) if mode == 3 else (-0.2, 1.2)
            plan[u] = float(rng.uniform(lo, hi))
    return RouteSolution(path=tuple(path), charge_plan=plan)


@pytest.fixture(scope="session")
def bench_instance():
    return generate_instance(BENCH_SHAPE, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def bench_runs(bench_instance):
    """(method, seed, SearchResult, wall seconds) for 10 GA + 10 PSO runs."""
    runs = []
    for seed in RUN_SEEDS:
        cfg = SearchConfig(population=BENCH_POP, epochs=BENCH_EPOCHS, seed=seed)
        for method, runner in (("ga", run_ga), ("pso", run_pso)):
            t0 = time.perf_counter()
            result = runner(bench_instance, cfg, BENCH_WEIGHTS)
            runs.append((method, seed, result, time.perf_counter() - t0))
    return runs


def test_exact_front_survives_grid_oracle_on_twenty_seeds():
    grid_n = 50
    time_tol = 1e-6
    for seed in range(100, 120):
        inst = generate_instance(BENCH_SHAPE, seed=seed)
        cost_tol = (1.0 / grid_n) * inst.params.capacity_kwh * max(
            st.price for st in inst.stations.values())
        t0 = time.perf_counter()
        front = list(epsilon_constraint(inst))
        oracle = list(grid_oracle(inst, grid_n=grid_n))
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"seed {seed} took {elapsed:.1f}s"
        for op in oracle:
            for ep in front:
                if dominates(op, ep):
                    assert ep.time_h - op.time_h <= time_tol, (seed, op, ep)
                    assert ep.cost - op.cost <= cost_tol, (seed, op, ep)
    print("PASS oracle sandwich: 20 preset-1 seeds, grid_n=50, margins within tolerance")


def test_front_shape_extremes_and_interior_points():
    cases = (("instance1", 101, 2), ("instance2", 202, 2),
             ("instance3", 303, 0), ("instance4", 404, 0))
    interiors = {}
    for preset, seed, need_interior in cases:
        inst = generate_instance(PRESETS[preset], seed=seed)
        front = list(epsilon_constraint(inst))
        assert front, (preset, seed)
        for a, b in zip(front, front[1:]):
            assert b.time_h > a.time_h, (preset, seed)
            assert b.cost < a.cost, (preset, seed)
        lo, hi = min_time(inst), min_cost(inst)
        assert math.isclose(front[0].time_h, lo.objectives.time_h, rel_tol=0, abs_tol=1e-9)
        assert math.isclose(front[0].cost, lo.objectives.cost, rel_tol=0, abs_tol=1e-9)
        assert math.isclose(front[-1].time_h, hi.objectives.time_h, rel_tol=0, abs_tol=1e-9)
        assert math.isclose(front[-1].cost, hi.objectives.cost, rel_tol=0, abs_tol=1e-9)
        interiors[preset] = len(front) - 2
        assert interiors[preset] >= need_interior, (preset, seed, len(front))
    print(f"PASS front shape: sorted, strictly trading, lex extremes; interiors {interiors}")


def test_double_coded_constraint_checker_agreement():
    n_per_instance = 100_000
    feasible_seen = 0
    for preset, seed in FUZZ_INSTANCES:
        inst = generate_instance(PRESETS[preset], seed=seed)
        rng = np.random.default_rng(31_000 + seed)
        disagreements = 0
        for _ in range(n_per_instance):
            sol = _random_solution(inst, rng)
            report = check_feasible(inst, sol)
            ref_feasible, ref_ids = reference_verdict(inst, sol)
            if report.feasible != ref_feasible:
                disagreements += 1
                continue
            feasible_seen += report.feasible
            got = {v.constraint for v in report.violations}
            # id-level agreement is demanded whenever the path structure is clean
            if not (got & STRUCTURAL_IDS) and got != ref_ids:
                disagreements += 1
        assert disagreements == 0, (preset, seed, disagreements)
    print(f"PASS double-coded checker: 2x{n_per_instance} fuzzed solutions, "
          f"zero disagreements ({feasible_seen} feasible)")


def test_energy_conservation_on_feasible_solutions():
    checked = 0
    for preset, seed in FUZZ_INSTANCES:
        inst = generate_instance(PRESETS[preset], seed=seed)
        cg = inst.params.range_km
        alpha = inst.params.initial_soc
        candidates = [p.payload for p in epsilon_constraint(inst)]
        rng = np.random.default_rng(4_000 + seed)
        candidates += [_random_solution(inst, rng) for _ in range(20_000)]
        for sol in candidates:
            report = check_feasible(inst, sol)
            if not report.feasible:
                continue
            bought = sum(active_charges(inst, sol).values())
            residual = (report.beta * cg + driven_km(inst, sol)
                        - (alpha + bought) * cg)
            assert abs(residual) <= 1e-6 * cg, (preset, seed, sol, residual)
            checked += 1
    assert checked > 50
    print(f"PASS energy ledger: {checked} feasible solutions balance within 1e-6*C*gamma")


def test_metaheuristics_reach_weighted_optimum(bench_instance, bench_runs):
    wopt = weighted_optimum(bench_instance, BENCH_WEIGHTS).value
    hits = {"ga": 0, "pso": 0}
    for method, seed, result, elapsed in bench_runs:
        assert elapsed < 120.0, (method, seed, elapsed)
        assert result.feasible and result.fitness < PENALTY_BASE, (method, seed)
        if result.fitness <= 1.1 * wopt:
            hits[method] += 1
    assert hits["ga"] >= 8, hits
    assert hits["pso"] >= 8, hits
    print(f"PASS quality: wopt={wopt:.6f}, within 10% on ga {hits['ga']}/10, "
          f"pso {hits['pso']}/10, all bests feasible")


def test_search_traces_monotone_with_exploration_identity(bench_runs):
    for method, seed, result, _ in bench_runs:
        h = result.history
        bf = h.best_fitness
        assert all(b <= a + 1e-12 for a, b in zip(bf, bf[1:])), (method, seed)
        peak = max(h.diversity)
        for d, explo, exploit in zip(h.diversity, h.exploration_pct, h.exploitation_pct):
            assert abs(explo + exploit - 100.0) <= 1e-9, (method, seed)
            if d == peak:
                assert abs(explo - 100.0) <= 1e-9, (method, seed)
    print("PASS search traces: 20 runs monotone, exploration 100 at peak diversity, "
          "exploitation complements everywhere")


def test_compare_classification_and_front_contact(bench_instance, bench_runs, tmp_path):
    front = list(epsilon_constraint(bench_instance))
    best = [FrontPoint(r.objectives.time_h, r.objectives.cost, r.solution)
            for _, _, r, _ in bench_runs]

    expect = []
    for p in best:
        dominated = any(dominates(f, p) for f in front)
        dominating = any(dominates(p, f) for f in front)
        assert not (dominated and dominating)
        expect.append("dominated" if dominated
                      else "dominating" if dominating else "nondominated")
    assert list(point_classes(best, front)) == expect

    a_csv, b_csv = tmp_path / "best.csv", tmp_path / "front.csv"
    report = tmp_path / "report.csv"
    write_front_csv(best, a_csv)
    write_front_csv(front, b_csv)
    assert main(["compare", str(a_csv), str(b_csv), "--report", str(report)]) == 0
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cli_classes = [r["classification"] for r in rows if r["side"] == "A"]
    assert cli_classes == expect

    touching = sum(1 for c in expect if c != "dominated")
    assert touching >= 1
    print(f"PASS dominance: classes {dict(Counter(expect))} agree with the pairwise "
          f"oracle; {touching} best points meet or beat the exact front")


def test_rerun_from_manifest_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("EVROUTE_OUT_DIR", str(tmp_path))
    assert main(["generate", "--preset", "instance1", "--seed", str(BENCH_SEED)]) == 0
    inst_file = tmp_path / f"instance-instance1-seed{BENCH_SEED}.json"
    assert main(["solve", "--instance", str(inst_file), "--method", "eps-front"]) == 0
    assert main(["solve", "--instance", str(inst_file), "--method", "ga", "--pop", "30",
                 "--epochs", "20", "--seed", "5"]) == 0
    eps_csv = tmp_path / f"{inst_file.stem}-eps-front.csv"
    ga_csv = tmp_path / f"{inst_file.stem}-ga.csv"
    ga_hist = tmp_path / f"{inst_file.stem}-ga-history.csv"
    report = tmp_path / "report.csv"
    assert main(["compare", str(eps_csv), str(ga_csv), "--report", str(report)]) == 0

    outputs = [inst_file, eps_csv, ga_csv, ga_hist, report]
    before = {p: p.read_bytes() for p in outputs}
    manifests = [inst_file, eps_csv, ga_csv, report]
    argvs = [shlex.split(read_manifest(p.with_name(p.name + ".manifest"))["argv"])
             for p in manifests]
    for p in outputs:
        p.unlink()
    for argv in argvs:
        assert main(argv) == 0
    after = {p: p.read_bytes() for p in outputs}
    assert after == before
    print("PASS determinism: generate, eps-front, ga, and compare replays are "
          "byte-identical from their manifests")
