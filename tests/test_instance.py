"""Instance generation, validation, and serialization."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evroute.instance import (CHARGER_LEVELS, LEVEL_POWER_KW, Instance,
                              InstanceFormatError, RouteGraph, Station,
                              VehicleParams, generate_graph, generate_instance,
                              load, save, validate)

SHAPES = st.tuples(st.integers(1, 5), st.integers(1, 5),
                   st.floats(0.0, 1.0, allow_nan=False))


def small_instance():
    g = RouteGraph(levels=((1,), (2,)), edges={(1, 2): 300.0},
                   source_dist={1: 300.0}, dest_dist={2: 300.0})
    stations = {
        1: Station(id=1, level="L3", power_kw=50.0, price=0.1, wait_h=1.0,
                   detour_km=10.0),
        2: Station(id=2, level="L1", power_kw=7.0, price=0.2, wait_h=0.5,
                   detour_km=5.0),
    }
    return Instance(params=VehicleParams(), stations=stations, graph=g,
                    seed=0, shape=(2, 1, 1.0))


class TestGenerateGraph:
    def test_golden_seed42_structure(self):
        g = generate_graph(4, 4, 0.5, np.random.default_rng(42))
        assert g.levels == ((0,), (1, 2, 3, 4), (5, 6, 7), (8, 9))
        assert sorted(g.edges) == [(0, 3), (1, 6), (1, 7), (2, 5), (3, 6),
                                   (3, 7), (4, 6), (5, 8), (5, 9), (6, 8),
                                   (6, 9)]
        assert g.edges[(0, 3)] == pytest.approx(306.3920201583643, abs=1e-12)
        assert g.edges[(2, 5)] == pytest.approx(265.95352277980294, abs=1e-12)
        assert g.edges[(6, 9)] == pytest.approx(330.7989711287748, abs=1e-12)
        assert set(g.source_dist) == {0}
        assert set(g.dest_dist) == {8, 9}
        assert g.source_dist[0] == pytest.approx(356.448615, abs=1e-6)
        assert g.dest_dist[9] == pytest.approx(257.992176, abs=1e-6)

    def test_single_level(self):
        g = generate_graph(1, 3, 0.5, np.random.default_rng(0))
        assert len(g.levels) == 1
        assert g.edges == {}
        assert set(g.source_dist) == set(g.levels[0])
        assert set(g.dest_dist) == set(g.levels[-1])

    def test_zero_edge_probability_still_connected(self):
        # per-pair repair guarantees an edge between every consecutive pair,
        # and the bridging repair chains them into an S->D route
        g = generate_graph(5, 4, 0.0, np.random.default_rng(3))
        for k in range(4):
            prev, cur = set(g.levels[k]), set(g.levels[k + 1])
            between = [(i, j) for (i, j) in g.edges if i in prev and j in cur]
            assert len(between) >= 1
        last = set(g.last_layer)
        stack, seen = list(g.first_layer), set(g.first_layer)
        while stack:
            u = stack.pop()
            for v in g.out_neighbors(u):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert seen & last

    def test_two_layer_forced_single_edge(self):
        g = generate_graph(2, 1, 0.0, np.random.default_rng(9))
        assert len(g.edges) == 1

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_graph(0, 4, 0.5, rng)
        with pytest.raises(ValueError):
            generate_graph(2, 0, 0.5, rng)
        with pytest.raises(ValueError):
            generate_graph(2, 4, 1.5, rng)


class TestGenerateInstance:
    def test_golden_seed7_stations(self):
        inst = generate_instance((3, 3, 0.5), seed=7)
        assert inst.graph.levels == ((0, 1, 2), (3, 4), (5, 6, 7))
        s0 = inst.stations[0]
        assert (s0.level, s0.power_kw) == ("L3", 50.0)
        assert s0.price == pytest.approx(0.15118765376043197, abs=1e-15)
        assert s0.wait_h == pytest.approx(0.8469864234494606, abs=1e-15)
        assert s0.detour_km == pytest.approx(9.416399567256699, abs=1e-15)
        s6 = inst.stations[6]
        assert (s6.level, s6.power_kw) == ("L2", 22.0)
        assert s6.price == pytest.approx(0.13549032457542928, abs=1e-15)

    def test_deterministic_per_seed(self, tmp_path):
        a = generate_instance((4, 5, 0.5), seed=11)
        b = generate_instance((4, 5, 0.5), seed=11)
        assert a == b
        save(a, tmp_path / "a.json")
        save(b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_different_seeds_differ(self):
        a = generate_instance((4, 5, 0.5), seed=11)
        b = generate_instance((4, 5, 0.5), seed=12)
        assert a != b

    @settings(max_examples=60, deadline=None)
    @given(shape=SHAPES, seed=st.integers(0, 10**6))
    def test_generated_instances_validate(self, shape, seed):
        inst = generate_instance(shape, seed=seed)
        assert validate(inst, level_power=LEVEL_POWER_KW) == []
        n_levels, max_per, _ = shape
        g = inst.graph
        assert len(g.levels) == n_levels
        assert all(1 <= len(l) <= max_per for l in g.levels)
        for (i, j), d in g.edges.items():
            assert g.layer_of(j) == g.layer_of(i) + 1
            assert d >= 1.0
        for st_ in inst.stations.values():
            assert st_.level in CHARGER_LEVELS
            assert st_.power_kw == LEVEL_POWER_KW[st_.level]
            assert st_.price >= 0.01
            assert st_.wait_h >= 0.0
            assert st_.detour_km >= 0.0

    def test_sample_means_match_population(self):
        # aggregate enough stations/edges for 3-standard-error mean checks
        dists, waits, detours, prices = [], [], [], []
        seed = 0
        while len(prices) < 10000:
            inst = generate_instance((2, 120, 1.0), seed=seed)
            seed += 1
            dists += list(inst.graph.edges.values())
            for s in inst.stations.values():
                waits.append(s.wait_h)
                detours.append(s.detour_km)
                prices.append(s.price)
        for values, mean, sd in ((dists, 300.0, 50.0), (waits, 1.0, 0.1),
                                 (detours, 10.0, 1.0), (prices, 0.134, 0.02)):
            n = len(values)
            assert n >= 10000
            err = abs(sum(values) / n - mean)
            assert err <= 3.0 * sd / math.sqrt(n), (mean, err, n)

    def test_custom_params_carried(self):
        params = VehicleParams(speed_kmh=80.0, capacity_kwh=60.0,
                               km_per_kwh=5.0, initial_soc=0.8)
        inst = generate_instance((2, 2, 1.0), params=params, seed=1)
        assert inst.params == params
        assert inst.range_km == 300.0


class TestValidate:
    def test_clean_instance_passes(self):
        assert validate(small_instance()) == []

    def test_bad_params(self):
        inst = dataclasses.replace(small_instance(),
                                   params=VehicleParams(speed_kmh=0.0))
        msgs = validate(inst)
        assert any("speed" in m for m in msgs)

    def test_initial_soc_out_of_range(self):
        inst = dataclasses.replace(small_instance(),
                                   params=VehicleParams(initial_soc=1.5))
        assert any("initial_soc" in m for m in validate(inst))

    def test_station_node_mismatch(self):
        inst = small_instance()
        broken = dataclasses.replace(
            inst, stations={1: inst.stations[1], 3: dataclasses.replace(
                inst.stations[2], id=3)})
        msgs = validate(broken)
        assert any("missing for nodes [2]" in m for m in msgs)
        assert any("[3] are not graph nodes" in m for m in msgs)

    def test_edge_layer_direction(self):
        g = RouteGraph(levels=((1,), (2,)), edges={(2, 1): 100.0},
                       source_dist={1: 300.0}, dest_dist={2: 300.0})
        inst = dataclasses.replace(small_instance(), graph=g)
        assert any("consecutive layers" in m for m in validate(inst))
        # an edge that skips a layer is rejected too
        g = RouteGraph(levels=((1,), (2,), (3,)),
                       edges={(1, 2): 100.0, (2, 3): 100.0, (1, 3): 150.0},
                       source_dist={1: 300.0}, dest_dist={3: 300.0})
        st3 = dataclasses.replace(small_instance().stations[2], id=3)
        inst = dataclasses.replace(small_instance(), graph=g, shape=(3, 1, 1.0),
                                   stations={**small_instance().stations, 3: st3})
        assert validate(inst) == ["edge (1, 3) goes from layer 0 to layer 2; "
                                  "edges must join consecutive layers"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers(self, bad):
        inst = small_instance()
        for params in (VehicleParams(speed_kmh=bad), VehicleParams(capacity_kwh=bad),
                       VehicleParams(km_per_kwh=bad), VehicleParams(initial_soc=bad)):
            assert validate(dataclasses.replace(inst, params=params)) != []
        for field in ("power_kw", "price", "wait_h", "detour_km"):
            st1 = dataclasses.replace(inst.stations[1], **{field: bad})
            broken = dataclasses.replace(inst, stations={**inst.stations, 1: st1})
            assert any(field in m for m in validate(broken)), field
        for graph in (dataclasses.replace(inst.graph, edges={(1, 2): bad}),
                      dataclasses.replace(inst.graph, source_dist={1: bad}),
                      dataclasses.replace(inst.graph, dest_dist={2: bad})):
            assert any("finite" in m for m in validate(dataclasses.replace(inst, graph=graph)))

    def test_nonpositive_distance(self):
        g = RouteGraph(levels=((1,), (2,)), edges={(1, 2): 0.0},
                       source_dist={1: 300.0}, dest_dist={2: 300.0})
        inst = dataclasses.replace(small_instance(), graph=g)
        assert any("distance must be > 0" in m for m in validate(inst))

    def test_boundary_distance_keys(self):
        g = RouteGraph(levels=((1,), (2,)), edges={(1, 2): 300.0},
                       source_dist={2: 300.0}, dest_dist={2: 300.0})
        inst = dataclasses.replace(small_instance(), graph=g)
        assert any("source_dist keys" in m for m in validate(inst))

    def test_unreachable_destination(self):
        g = RouteGraph(levels=((1,), (2,)), edges={},
                       source_dist={1: 300.0}, dest_dist={2: 300.0})
        inst = dataclasses.replace(small_instance(), graph=g)
        assert validate(inst) == ["no S->D path exists in the graph"]

    def test_shape_mismatch(self):
        inst = dataclasses.replace(small_instance(), shape=(3, 1, 1.0))
        assert any("3 levels" in m for m in validate(inst))

    def test_level_power_map_check(self):
        inst = small_instance()
        assert validate(inst, level_power=LEVEL_POWER_KW) == []
        bad = dataclasses.replace(
            inst, stations={**inst.stations, 1: dataclasses.replace(
                inst.stations[1], power_kw=11.0)})
        msgs = validate(bad, level_power=LEVEL_POWER_KW)
        assert any("does not match level" in m for m in msgs)
        # without the map, any positive power is accepted
        assert validate(bad) == []


class TestSaveLoad:
    def test_roundtrip_exact(self, tmp_path):
        inst = generate_instance((3, 4, 0.6), seed=5)
        path = tmp_path / "inst.json"
        save(inst, path)
        assert load(path) == inst

    def test_roundtrip_small(self, tmp_path):
        inst = small_instance()
        path = tmp_path / "inst.json"
        save(inst, path)
        assert load(path) == inst

    def test_schema_keys(self, tmp_path):
        inst = small_instance()
        path = tmp_path / "inst.json"
        save(inst, path)
        raw = json.loads(path.read_text())
        assert set(raw) == {"params", "stations", "graph", "seed", "shape"}
        assert set(raw["params"]) == {"speed_v", "capacity_C", "mileage_gamma",
                                      "initial_soc_alpha"}
        assert raw["graph"]["edges"] == [[1, 2, 300.0]]

    def test_missing_capacity_rejected(self, tmp_path):
        inst = small_instance()
        path = tmp_path / "inst.json"
        save(inst, path)
        raw = json.loads(path.read_text())
        del raw["params"]["capacity_C"]
        path.write_text(json.dumps(raw))
        with pytest.raises(InstanceFormatError, match="params.capacity_C"):
            load(path)

    def test_invalid_data_rejected(self, tmp_path):
        inst = small_instance()
        path = tmp_path / "inst.json"
        save(inst, path)
        raw = json.loads(path.read_text())
        raw["graph"]["edges"][0][2] = -5.0
        path.write_text(json.dumps(raw))
        with pytest.raises(InstanceFormatError, match="invalid instance"):
            load(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text("{not json")
        with pytest.raises(InstanceFormatError, match="not valid JSON"):
            load(path)

    def test_malformed_edge_record(self, tmp_path):
        inst = small_instance()
        path = tmp_path / "inst.json"
        save(inst, path)
        raw = json.loads(path.read_text())
        raw["graph"]["edges"][0] = [1, 2]
        path.write_text(json.dumps(raw))
        with pytest.raises(InstanceFormatError, match=r"edges\[0\]"):
            load(path)
