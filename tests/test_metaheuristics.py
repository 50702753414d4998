"""Encoding/decoding, fitness, GA/PSO runs, diversity metrics, history CSV."""
import contextlib
import csv
import dataclasses
import hashlib
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evroute import metaheuristics
from evroute.cli import PRESETS
from evroute.exact import enumerate_paths
from evroute.instance import (Instance, RouteGraph, Station, VehicleParams,
                              generate_instance, validate)
from evroute.metaheuristics import (HISTORY_CSV_COLUMNS, DecodeFailure,
                                    PopulationFitness, SearchConfig, _ahead,
                                    decode, diversity, diversity_metrics,
                                    encoding_dim, fitness, run_ga, run_pso,
                                    write_history_csv)
from evroute.model import (CHARGE_EPS, PENALTY_BASE, PlanArrays, RouteSolution,
                           _objectives, _soc_scan, evaluate,
                           penalized_fitness, soc_trace, try_evaluate)


def station(u, price=0.134, power=50.0, level="L3", wait=1.0, detour=10.0):
    return Station(id=u, level=level, power_kw=power, price=price,
                   wait_h=wait, detour_km=detour)


def bipartite_instance(edges=None):
    """{1,2} -> {3,4}, short legs, everything reachable without charging."""
    if edges is None:
        edges = {(1, 3): 100.0, (1, 4): 100.0, (2, 3): 100.0, (2, 4): 100.0}
    stations = {u: station(u) for u in (1, 2, 3, 4)}
    graph = RouteGraph(((1, 2), (3, 4)), edges, {1: 100.0, 2: 100.0},
                       {3: 100.0, 4: 100.0})
    return Instance(params=VehicleParams(), stations=stations, graph=graph,
                    seed=0, shape=(2, 2, 1.0))


def single_node_instance(d_s=250.0, d_d=250.0, detour=0.0, initial_soc=0.5):
    graph = RouteGraph(((7,),), {}, {7: d_s}, {7: d_d})
    return Instance(params=VehicleParams(initial_soc=initial_soc),
                    stations={7: station(7, detour=detour)},
                    graph=graph, seed=0, shape=(1, 1, 1.0))


def vec28(x=(), y=(), src=(), dest=()):
    v = np.zeros(28)
    for idx, val in x:
        v[idx] = val
    v[16:20] = list(y) or 0.0
    v[20:24] = list(src) or 0.0
    v[24:28] = list(dest) or 0.0
    return v


class TestDecode:
    def test_single_node_graph(self):
        inst = single_node_instance()
        sol = decode(inst, [0.3, 0.6, 0.2, 0.9])
        assert sol == RouteSolution(path=(7,), charge_plan={7: 0.6})

    def test_bipartite_argmax_picks_second_node(self):
        inst = bipartite_instance()
        # X row of node 1 scores node 3 at 0.2 and node 4 at 0.9
        v = vec28(x=[(2, 0.2), (3, 0.9)], src=(0.9, 0.1, 0, 0),
                  dest=(0, 0, 0.1, 0.9))
        sol = decode(inst, v)
        assert sol.path == (1, 4)
        assert set(sol.charge_plan) == {1, 4}

    def test_all_ties_break_to_lowest_id(self):
        inst = bipartite_instance()
        sol = decode(inst, np.zeros(28))
        assert sol.path == (1, 3)

    def test_argmax_restricted_to_existing_edges(self):
        inst = bipartite_instance(edges={(1, 3): 100.0, (2, 3): 100.0,
                                         (2, 4): 100.0})
        # node 1 scores node 4 highest, but edge (1,4) does not exist
        v = vec28(x=[(2, 0.2), (3, 0.9)], src=(0.9, 0, 0, 0),
                  dest=(0, 0, 0.9, 0.1))
        sol = decode(inst, v)
        assert sol.path == (1, 3)

    def test_dead_end_fails(self):
        inst = bipartite_instance(edges={(1, 3): 100.0, (2, 3): 100.0,
                                         (2, 4): 100.0})
        v = vec28(src=(0.9, 0, 0, 0), dest=(0, 0, 0.1, 0.9))
        out = decode(inst, v)
        assert isinstance(out, DecodeFailure)
        # the walk 1 -> 3 ends at a last-layer node other than dest 4
        assert out.reason == "dead end at node 3 before node 4"

    def test_charge_genes_clamped(self):
        inst = bipartite_instance()
        v = vec28(y=(-0.5, 0.0, 1.7, 0.0))
        sol = decode(inst, v)
        assert sol.charge_plan == {1: 0.0, 3: 1.0}

    def test_wrong_length_rejected(self):
        inst = bipartite_instance()
        with pytest.raises(ValueError, match="length 28"):
            decode(inst, np.zeros(27))

    def test_fuzzed_vectors_always_structurally_valid(self):
        inst = generate_instance((4, 4, 0.5), seed=42)
        dim = encoding_dim(inst.graph)
        rng = np.random.default_rng(7)
        vectors = rng.random((10_000, dim))
        decoded = 0
        for v in vectors:
            out = decode(inst, v)
            if isinstance(out, DecodeFailure):
                continue
            decoded += 1
            soc_trace(inst, out)  # raises ValueError on a structural violation
            assert all(0.0 <= y <= 1.0 for y in out.charge_plan.values())
            assert set(out.charge_plan) == set(out.path)
        assert decoded > 0


class TestFitness:
    def test_decode_failure_penalty(self):
        inst = bipartite_instance(edges={(1, 3): 100.0, (2, 3): 100.0,
                                         (2, 4): 100.0})
        v = vec28(src=(0.9, 0, 0, 0), dest=(0, 0, 0.1, 0.9))
        assert fitness(inst, v, (1.0, 1.0)) == PENALTY_BASE + 4

    def test_golden_weighted_value(self):
        inst = single_node_instance()
        assert fitness(inst, [0.0, 0.5, 0.0, 0.0], (1.0, 1.0)) == \
            pytest.approx(18.7, abs=1e-12)

    def test_matches_penalized_fitness_composition(self):
        inst = bipartite_instance()
        v = vec28(y=(0.2, 0, 0.1, 0), src=(0.9, 0, 0, 0), dest=(0, 0, 0.9, 0))
        sol = decode(inst, v)
        assert fitness(inst, v, (0.7, 0.3)) == \
            pytest.approx(penalized_fitness(inst, sol, (0.7, 0.3)), abs=1e-12)

    def test_infeasible_decoded_below_decode_failure(self):
        # a mildly infeasible decoded plan ranks better than no walk at all
        inst = bipartite_instance()
        v = vec28(y=(0.9, 0, 0.9, 0), src=(0.9, 0, 0, 0), dest=(0, 0, 0.9, 0))
        sol = decode(inst, v)
        assert isinstance(sol, RouteSolution)
        assert try_evaluate(inst, sol) is None
        infeasible = fitness(inst, v, (1.0, 1.0))
        assert PENALTY_BASE <= infeasible < PENALTY_BASE + 4


def unsorted_instance(initial_soc):
    """Ids out of layer order and a dead end at node 12; validate() accepts it."""
    levels = ((10, 3), (7, 21, 12), (40, 5))
    edges = {(10, 7): 220.0, (10, 21): 410.0, (3, 21): 180.0, (3, 12): 150.0,
             (7, 40): 260.0, (7, 5): 330.0, (21, 5): 240.0}
    stations = {u: station(u, price=0.1 + 0.01 * u, power=(7.0, 22.0, 50.0)[u % 3],
                           wait=0.1 * (u % 4), detour=float(u % 5))
                for layer in levels for u in layer}
    graph = RouteGraph(levels, edges, {10: 160.0, 3: 90.0}, {40: 200.0, 5: 310.0})
    return Instance(params=VehicleParams(initial_soc=initial_soc),
                    stations=stations, graph=graph, seed=0, shape=(3, 3, 1.0))


def shuffle_ids(inst, seed):
    """The same instance with its node ids permuted, so that id order and
    layer order disagree (the lowest id may sit in any layer)."""
    g = inst.graph
    nodes = g.node_ids()
    new = dict(zip(nodes, np.random.default_rng(seed).permutation(len(nodes)).tolist()))
    graph = RouteGraph(tuple(tuple(new[u] for u in layer) for layer in g.levels),
                       {(new[i], new[j]): d for (i, j), d in g.edges.items()},
                       {new[u]: d for u, d in g.source_dist.items()},
                       {new[u]: d for u, d in g.dest_dist.items()})
    stations = {new[u]: dataclasses.replace(s, id=new[u]) for u, s in inst.stations.items()}
    return dataclasses.replace(inst, graph=graph, stations=stations)


def reference_fitness(inst, vector, weights):
    decoded = decode(inst, vector)
    if isinstance(decoded, DecodeFailure):
        return PENALTY_BASE + inst.graph.n_nodes
    return penalized_fitness(inst, decoded, weights)


# Charge genes on both sides of each clamp and of the no-stop threshold.
CHARGE_EDGES = (0.0, 1.0, CHARGE_EPS, np.nextafter(CHARGE_EPS, 1.0), 5e-10,
                2e-9, -0.3, -1e-12, 1.0 + 1e-12, 1.7)


@st.composite
def kernel_cases(draw):
    soc = draw(st.sampled_from([1.0, 0.5, 0.2, 0.0]))
    if draw(st.booleans()):
        inst = unsorted_instance(soc)
    else:
        shape = (draw(st.integers(1, 6)), draw(st.integers(1, 5)),
                 draw(st.sampled_from([0.0, 0.3, 0.6, 1.0])))
        params = VehicleParams(initial_soc=soc,
                               km_per_kwh=draw(st.sampled_from([2.0, 6.0, 12.0])))
        inst = generate_instance(shape, params, seed=draw(st.integers(0, 10**6)))
        if draw(st.booleans()):
            inst = shuffle_ids(inst, draw(st.integers(0, 2**32 - 1)))
    weights = draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), None]))
    if weights is None:
        weights = (draw(st.floats(0.0, 10.0)), draw(st.floats(0.01, 10.0)))
    return inst, weights, draw(st.integers(0, 2**32 - 1))


class TestPopulationFitness:
    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_equals_scalar_reference_exactly(self, case):
        inst, weights, seed = case
        n = inst.graph.n_nodes
        rng = np.random.default_rng(seed)
        pop = rng.random((60, encoding_dim(inst.graph)))
        pop[:20] = np.round(pop[:20] * 2) / 2  # score ties
        charges = pop[:, n * n:n * n + n]
        pick = rng.random(charges.shape) < 0.5
        charges[pick] = rng.choice(CHARGE_EDGES, size=int(pick.sum()))
        got = PopulationFitness(inst, weights).scores(pop)[0]
        want = [reference_fitness(inst, row, weights) for row in pop]
        assert got.tolist() == want
        assert [fitness(inst, row, weights) for row in pop[:5]] == want[:5]

    def test_unsorted_graph_covers_every_outcome(self):
        # feasible, SOC-infeasible and undecodable rows all occur
        inst = unsorted_instance(0.5)
        assert validate(inst) == []
        failed = PENALTY_BASE + inst.graph.n_nodes
        pop = np.random.default_rng(1).random((200, encoding_dim(inst.graph)))
        got = PopulationFitness(inst, (1.0, 1.0)).scores(pop)[0]
        assert (got < PENALTY_BASE).any()
        assert ((got > PENALTY_BASE) & (got < failed)).any()
        assert (got == failed).any()

    def test_rejects_bad_input(self):
        inst = bipartite_instance()
        with pytest.raises(ValueError, match="shape"):
            PopulationFitness(inst, (1.0, 1.0)).scores(np.zeros(28))
        with pytest.raises(ValueError, match="finite"):
            fitness(inst, vec28(x=[(2, math.nan)]), (1.0, 1.0))
        inst = generate_instance(PRESETS["instance1"], seed=108)
        vec = np.zeros(encoding_dim(inst.graph))
        n = inst.graph.n_nodes
        vec[n * n + n:n * n + 2 * n] = math.nan  # source genes
        with pytest.raises(ValueError, match="finite"):
            decode(inst, vec)
        with pytest.raises(ValueError, match="weights"):
            PopulationFitness(inst, (0.0, 0.0))


class TestPlanArrays:
    @settings(max_examples=100, deadline=None)
    @given(kernel_cases())
    def test_matches_scalar_model_exactly(self, case):
        # verdict, time, cost and penalty of fixed paths, bit for bit, with
        # the path per row as arrays (GA/PSO) and as one int path (oracle)
        inst, _, seed = case
        rng = np.random.default_rng(seed)
        arrays = PlanArrays(inst)
        paths = enumerate_paths(inst.graph)
        picks = [paths[i] for i in rng.integers(0, len(paths), size=40)]
        depth = len(picks[0])
        charges = rng.random((40, depth)) * 1.2
        pick = rng.random(charges.shape) < 0.5
        charges[pick] = rng.choice(CHARGE_EDGES, size=int(pick.sum()))
        per_row = arrays.soc_objectives(
            [np.array([arrays.pos[p[l]] for p in picks]) for l in range(depth)],
            list(charges.T))
        fixed = charges.copy()
        fixed[:, 0] = 0.0
        one_path = arrays.soc_objectives([arrays.pos[u] for u in picks[0]],
                                         [0.0] + list(fixed.T[1:]))
        cases = [(picks[i], charges[i], per_row, i) for i in range(40)]
        cases += [(picks[0], fixed[i], one_path, i) for i in range(40)]
        for path, row, got, i in cases:
            penalty, time, cost = (float(np.broadcast_to(a, (40,))[i]) for a in got)
            plan = dict(zip(path, row.tolist()))
            _, _, viols = _soc_scan(inst, path, plan)
            total = 0.0
            for v in viols:
                total += v.magnitude
            assert (penalty == 0.0) == (not viols)
            assert penalty == total
            obj = _objectives(inst, RouteSolution(path=path, charge_plan=plan))
            assert (time, cost) == obj.as_tuple()


# sha256 of the history CSV and repr(fitness), pinned from the scalar
# per-candidate loop that the population kernel replaced.
GOLDEN_RUNS = [
    ("instance1", 108, "ga",
     "036073ed0f85e4758aa079f26aba1f805f50dbedc3b80ffc5560827155373121",
     "29.100434428028173"),
    ("instance1", 108, "pso",
     "338985c4ee0b1d24884a87f30c0bc211ce201aca8bb0240c104a3fcf061ed9f6",
     "28.958039980233295"),
    ("instance4", 202, "ga",
     "7fefc28bd885427366cc615d4dc5dda00bfd7dae373e8cf5b961430663731359",
     "136.29297538437237"),
    ("instance4", 202, "pso",
     "73af60626d3b1c92ad2a55f2db989178d5f0562fbd0bf2a89abe1c8a736187a0",
     "132.96939069031404"),
]


def check_golden(tmp_path, preset, seed, method, population, epochs, digest, best):
    inst = generate_instance(PRESETS[preset], seed=seed)
    run = run_ga if method == "ga" else run_pso
    res = run(inst, SearchConfig(population=population, epochs=epochs, seed=100),
              (1.0, 1.0))
    dest = tmp_path / "history.csv"
    write_history_csv(res.history, dest)
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == digest
    assert repr(res.fitness) == best


@pytest.mark.parametrize("preset,seed,method,digest,best", GOLDEN_RUNS)
def test_golden_history(tmp_path, preset, seed, method, digest, best):
    check_golden(tmp_path, preset, seed, method, 30, 40, digest, best)


# The same form on instance1/108 at the edges of the epoch loop: no epoch,
# one epoch, one individual (no crossover pair) and three (an unpaired last
# row). Pinned from the serial loops that drew every epoch on the caller's
# thread.
EDGE_RUNS = [
    ("ga", 30, 0, "5f2c88ec16e74e0173545d9a5a312d51fd4f21cabfcc82398b645dae7c1d6a6c",
     "36.0465940733269"),
    ("ga", 30, 1, "6b6b4d3f791ac098672759fcb0c06571a47b737af83c0b85a7ba13ffe5a0b4f1",
     "33.53440826471457"),
    ("ga", 1, 10, "b5e830c2ba6342c2431c1e29c0c4f0e0e85d84a790d5866319d5ebd0115bcb31",
     "40.664083900162105"),
    ("ga", 3, 10, "23a07d9e1d62760d20c5cfa1495d2f7c45d474b333052c63439cb7bbd4b27182",
     "34.59519090196922"),
    ("pso", 30, 0, "5f2c88ec16e74e0173545d9a5a312d51fd4f21cabfcc82398b645dae7c1d6a6c",
     "36.0465940733269"),
    ("pso", 30, 1, "7b4866655f2a6e4d2fc3d612e72bfd687b8fb37a8db22d2360fe9bff7adc4793",
     "34.37641307138817"),
    ("pso", 1, 10, "12947bf4eacccd46c61c9eac9cabaac8e10118d39698834e06dd2eaba95b3cfd",
     "1000000000.0578461"),
    ("pso", 3, 10, "67bfb232219c85cd633d4b4dd3e200765c13eb80b89a092ff662c4f1583730d8",
     "44.52047606866462"),
]


@pytest.mark.parametrize("method,population,epochs,digest,best", EDGE_RUNS)
def test_edge_history(tmp_path, method, population, epochs, digest, best):
    check_golden(tmp_path, "instance1", 108, method, population, epochs, digest, best)


class TestDrawThread:
    """The worker thread that makes GA/PSO draws one epoch ahead."""

    @pytest.mark.parametrize("run", [run_ga, run_pso])
    def test_no_thread_outlives_a_run(self, monkeypatch, run):
        inst = generate_instance((2, 8, 0.6), seed=102)
        before = threading.active_count()
        run(inst, SearchConfig(population=8, epochs=5, seed=0), (1.0, 1.0))
        assert threading.active_count() == before

        err = RuntimeError("scores failed")
        calls = []
        real = PopulationFitness.scores

        def failing(self, population):
            calls.append(1)
            if len(calls) == 3:
                raise err
            return real(self, population)

        monkeypatch.setattr(PopulationFitness, "scores", failing)
        with pytest.raises(RuntimeError) as info:
            run(inst, SearchConfig(population=8, epochs=5, seed=0), (1.0, 1.0))
        assert info.value is err
        assert len(calls) == 3
        assert threading.active_count() == before

    def test_draw_error_raises_at_its_item(self):
        err = ValueError("draw 3")
        made = []

        def draw():
            made.append(len(made) + 1)
            if len(made) == 3:
                raise err
            return len(made)

        before = threading.active_count()
        taken = []
        with pytest.raises(ValueError) as info:
            with contextlib.closing(_ahead(draw, 6)) as items:
                for item in items:
                    # The worker is at most one item ahead of the caller.
                    assert len(made) <= item + 1
                    taken.append(item)
        assert info.value is err
        assert taken == [1, 2]
        assert made == [1, 2, 3]
        assert threading.active_count() == before


class TestDiversity:
    def test_uniform_population_quarter(self):
        rng = np.random.default_rng(3)
        pop = rng.random((400, 120))
        assert diversity(pop) == pytest.approx(0.25, abs=0.01)

    def test_identical_population_zero(self):
        pop = np.ones((30, 8)) * 0.4
        div, explo, exploit = diversity_metrics(pop)
        assert div == 0.0
        assert explo == 0.0
        assert exploit == 100.0

    def test_relative_to_peak(self):
        pop = np.zeros((4, 2))
        pop[:2] = 1.0  # median 0.5, every deviation 0.5
        div, explo, exploit = diversity_metrics(pop, div_max=1.0)
        assert div == pytest.approx(0.5)
        assert explo == pytest.approx(50.0)
        assert exploit == pytest.approx(50.0)

    def test_snapshot_is_its_own_peak(self):
        pop = np.array([[0.0, 1.0], [1.0, 0.0]])
        div, explo, exploit = diversity_metrics(pop, div_max=0.1)
        assert explo == 100.0
        assert exploit == 0.0
        assert div == pytest.approx(0.5)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                      elements=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                         st.floats(0.0, 1.0))))
    def test_median_is_numpys(self, pop):
        # odd and even population sizes, with tied genes
        want = float(np.mean(np.abs(pop - np.median(pop, axis=0))))
        assert diversity(pop) == want

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            diversity(np.zeros((0, 4)))
        with pytest.raises(ValueError):
            diversity(np.zeros(5))


class TestConfigs:
    def test_defaults_follow_reference_settings(self):
        cfg = SearchConfig()
        assert (cfg.population, cfg.epochs, cfg.seed) == (1000, 1000, 0)
        m = metaheuristics
        assert (m.P_CROSSOVER, m.P_MUTATION, m.MUTATION_SIGMA) == (0.4, 0.4, 0.1)
        assert (m.W_START, m.W_END) == (0.1, 0.5)
        assert (m.C1, m.C2, m.VELOCITY_LIMIT) == (2.5, 2.5, 0.2)

    def test_validation(self):
        with pytest.raises(ValueError, match="population"):
            SearchConfig(population=0)
        with pytest.raises(ValueError, match="epochs"):
            SearchConfig(epochs=-1)
        with pytest.raises(ValueError, match="seed"):
            SearchConfig(seed=-1)
        assert SearchConfig(population=1, epochs=0).epochs == 0


def check_common_run_contract(inst, result, epochs, weights):
    h = result.history
    assert len(h) == epochs + 1
    assert list(h.epoch) == list(range(epochs + 1))
    bf = h.best_fitness
    assert all(b <= a + 1e-12 for a, b in zip(bf, bf[1:]))
    assert result.fitness == bf[-1]
    assert all(d >= 0.0 for d in h.diversity)
    for e, x in zip(h.exploration_pct, h.exploitation_pct):
        assert 0.0 <= e <= 100.0
        assert x == pytest.approx(100.0 - e, abs=1e-9)
    peak = max(h.diversity)
    assert h.exploration_pct[h.diversity.index(peak)] == pytest.approx(100.0)
    if result.feasible:
        obj = evaluate(inst, result.solution)
        assert obj.as_tuple() == pytest.approx(result.objectives.as_tuple(),
                                               abs=1e-12)
        wt, wc = weights
        assert result.fitness == pytest.approx(wt * obj.time_h + wc * obj.cost,
                                               abs=1e-9)


class TestRunGA:
    def test_contract_and_determinism(self):
        inst = generate_instance((2, 8, 0.6), seed=102)
        cfg = SearchConfig(population=24, epochs=15, seed=5)
        a = run_ga(inst, cfg, (1.0, 1.0))
        check_common_run_contract(inst, a, 15, (1.0, 1.0))
        assert a.feasible
        b = run_ga(inst, cfg, (1.0, 1.0))
        assert a.history == b.history
        assert a.fitness == b.fitness
        assert a.solution == b.solution

    def test_zero_epochs_returns_initial_best(self):
        inst = generate_instance((2, 8, 0.6), seed=102)
        dim = encoding_dim(inst.graph)
        cfg = SearchConfig(population=16, epochs=0, seed=9)
        res = run_ga(inst, cfg, (1.0, 1.0))
        assert len(res.history) == 1
        pop0 = np.random.default_rng(9).random((16, dim))
        expect = min(fitness(inst, row, (1.0, 1.0)) for row in pop0)
        assert res.fitness == pytest.approx(expect, abs=1e-12)

    def test_population_of_one(self):
        inst = generate_instance((2, 8, 0.6), seed=102)
        res = run_ga(inst, SearchConfig(population=1, epochs=3, seed=0), (1.0, 1.0))
        assert len(res.history) == 4

    def test_all_infeasible_instance(self):
        inst = single_node_instance(d_s=700.0, d_d=700.0, initial_soc=1.0)
        res = run_ga(inst, SearchConfig(population=10, epochs=4, seed=1), (1.0, 1.0))
        assert not res.feasible
        assert res.solution is None and res.objectives is None
        assert res.fitness >= PENALTY_BASE
        assert all(math.isnan(t) for t in res.history.best_time_h)
        assert all(math.isnan(c) for c in res.history.best_cost)


class TestRunPSO:
    def test_contract_and_determinism(self):
        inst = generate_instance((2, 8, 0.6), seed=102)
        cfg = SearchConfig(population=24, epochs=15, seed=5)
        a = run_pso(inst, cfg, (1.0, 1.0))
        check_common_run_contract(inst, a, 15, (1.0, 1.0))
        assert a.feasible
        b = run_pso(inst, cfg, (1.0, 1.0))
        assert a.history == b.history
        assert a.fitness == b.fitness
        assert a.solution == b.solution

    def test_zero_epochs_returns_initial_best(self):
        inst = generate_instance((2, 8, 0.6), seed=102)
        dim = encoding_dim(inst.graph)
        cfg = SearchConfig(population=16, epochs=0, seed=9)
        res = run_pso(inst, cfg, (1.0, 1.0))
        assert len(res.history) == 1
        pop0 = np.random.default_rng(9).random((16, dim))
        expect = min(fitness(inst, row, (1.0, 1.0)) for row in pop0)
        assert res.fitness == pytest.approx(expect, abs=1e-12)

    def test_single_epoch_and_particle_edge(self):
        inst = generate_instance((2, 8, 0.6), seed=102)
        res = run_pso(inst, SearchConfig(population=1, epochs=1, seed=0), (1.0, 1.0))
        assert len(res.history) == 2

    def test_seed_changes_trajectory(self):
        inst = generate_instance((2, 8, 0.6), seed=102)
        a = run_pso(inst, SearchConfig(population=24, epochs=10, seed=1), (1.0, 1.0))
        b = run_pso(inst, SearchConfig(population=24, epochs=10, seed=2), (1.0, 1.0))
        assert a.history.diversity != b.history.diversity


class TestHistoryCsv:
    def test_written_file_round_trips(self, tmp_path):
        inst = generate_instance((2, 8, 0.6), seed=102)
        res = run_ga(inst, SearchConfig(population=12, epochs=6, seed=3), (1.0, 1.0))
        dest = tmp_path / "history.csv"
        write_history_csv(res.history, dest)
        with open(dest, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == HISTORY_CSV_COLUMNS
        assert len(rows) == len(res.history) + 1
        for row, k in zip(rows[1:], range(len(res.history))):
            assert int(row[0]) == res.history.epoch[k]
            assert float(row[1]) == res.history.best_fitness[k]
            assert float(row[4]) == res.history.diversity[k]
            assert float(row[5]) == res.history.exploration_pct[k]

    def test_nan_objectives_survive_round_trip(self, tmp_path):
        inst = single_node_instance(d_s=700.0, d_d=700.0, initial_soc=1.0)
        res = run_pso(inst, SearchConfig(population=6, epochs=2, seed=0), (1.0, 1.0))
        dest = tmp_path / "history.csv"
        write_history_csv(res.history, dest)
        with open(dest, newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(math.isnan(float(r[2])) and math.isnan(float(r[3]))
                   for r in rows[1:])
