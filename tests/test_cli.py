"""End-to-end command-line checks: exit codes, files, manifests, replay."""
import copy
import csv
import functools
import hashlib
import json
import math
import operator
import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evroute import cli, exact
from evroute.cli import (EXIT_INFEASIBLE, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE,
                         EXIT_VALIDATION, OUT_DIR_ENV, PRESETS,
                         REPORT_CSV_COLUMNS, main, read_manifest)
from evroute.exact import epsilon_constraint
from evroute.instance import (Instance, InstanceFormatError, RouteGraph,
                              Station, VehicleParams, generate_instance, load,
                              save, validate)
from evroute.pareto import (FrontPoint, point_classes, read_front_csv,
                            write_front_csv)


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    return tmp_path


@pytest.fixture(scope="module")
def inst_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("instances") / "bench.json"
    save(generate_instance((2, 8, 0.6), seed=102), path)
    return path


@pytest.fixture(scope="module")
def infeasible_file(tmp_path_factory):
    graph = RouteGraph(((1,),), {}, {1: 900.0}, {1: 900.0})
    inst = Instance(params=VehicleParams(),
                    stations={1: Station(id=1, level="L3", power_kw=50.0,
                                         price=0.1, wait_h=1.0, detour_km=5.0)},
                    graph=graph, seed=0, shape=(1, 1, 1.0))
    path = tmp_path_factory.mktemp("instances") / "stranded.json"
    save(inst, path)
    return path


# Retyped, out-of-range and non-finite values a fuzzed instance field gets.
FUZZ_VALUES = ("a", 5, -1, 0, 2.5, None, True, [], {}, [1, 2, 3], {"1": 1},
               math.nan, math.inf, -math.inf, 1e308)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """The JSON document of a four-layer instance, and a scratch directory."""
    workdir = tmp_path_factory.mktemp("fuzz")
    save(generate_instance(PRESETS["instance2"], seed=101), workdir / "base.json")
    return json.loads((workdir / "base.json").read_text()), workdir


def _json_paths(node, prefix=()):
    """Key paths of every value below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def _json_set(doc, path, value):
    functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value


def _add_skip_layer_edge(doc):
    levels = doc["graph"]["levels"]
    doc["graph"]["edges"].append([levels[0][0], levels[2][0], 300.0])
    return doc


def _write_doc(doc, workdir):
    path = workdir / "mutant.json"
    path.write_text(json.dumps(doc))
    return path


def _solve_doc(doc, workdir):
    return main(["solve", "--instance", str(_write_doc(doc, workdir)),
                 "--method", "exact-time", "--out", str(workdir / "mutant.csv")])


class TestGenerate:
    def test_preset_writes_instance_and_manifest(self, outdir, capsys):
        assert main(["generate", "--preset", "instance1", "--seed", "7"]) == EXIT_OK
        out = outdir / "instance-instance1-seed7.json"
        assert out.exists()
        inst = load(out)
        assert validate(inst) == []
        assert inst.shape == (2, 8, 0.6)
        mf = read_manifest(outdir / "instance-instance1-seed7.json.manifest")
        assert mf["command"] == "generate"
        assert mf["seed"] == "7"
        assert "generate" in mf["argv"]
        assert capsys.readouterr().out.startswith("wrote instance with")

    def test_shape_flags(self, outdir):
        rc = main(["generate", "--levels", "2", "--max-per-level", "3",
                   "--p-edge", "0.5", "--seed", "4"])
        assert rc == EXIT_OK
        assert (outdir / "instance-2x3-seed4.json").exists()

    def test_custom_out_and_params(self, outdir):
        dest = outdir / "sub" / "my.json"
        rc = main(["generate", "--preset", "instance1", "--seed", "1",
                   "--capacity-kwh", "80", "--initial-soc", "0.9",
                   "--out", str(dest)])
        assert rc == EXIT_OK
        inst = load(dest)
        assert inst.params.capacity_kwh == 80.0
        assert inst.params.initial_soc == 0.9

    def test_same_seed_same_bytes(self, outdir):
        a, b = outdir / "a.json", outdir / "b.json"
        main(["generate", "--preset", "instance2", "--seed", "11", "--out", str(a)])
        main(["generate", "--preset", "instance2", "--seed", "11", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["generate"],
        ["generate", "--preset", "instance1", "--levels", "3"],
        ["generate", "--levels", "3"],
        ["generate", "--levels", "0", "--max-per-level", "3", "--p-edge", "0.5"],
        ["generate", "--levels", "2", "--max-per-level", "0", "--p-edge", "0.5"],
        ["generate", "--levels", "2", "--max-per-level", "3", "--p-edge", "1.5"],
        ["generate", "--preset", "instance1", "--initial-soc", "1.5"],
        ["generate", "--preset", "instance1", "--speed-kmh", "0"],
        ["generate", "--preset", "nope"],
        ["generate", "--preset", "instance1", "--seed", "108", "--speed-kmh", "nan"],
        ["generate", "--preset", "instance1", "--seed", "108", "--km-per-kwh", "inf"],
        ["generate", "--preset", "instance1", "--seed", "-1"],
        # Above numpy's int64 bound in generate_graph's draw.
        ["generate", "--levels", "2", "--max-per-level", "100000000000000000000",
         "--p-edge", "0.5"],
        # The trip time or the range overflows.
        ["generate", "--preset", "instance1", "--seed", "108", "--speed-kmh", "1e-320"],
        ["generate", "--preset", "instance1", "--seed", "108",
         "--capacity-kwh", "1e-200", "--km-per-kwh", "1e-200"],
        ["generate", "--preset", "instance1", "--seed", "108",
         "--capacity-kwh", "1e200", "--km-per-kwh", "1e200"],
    ])
    def test_usage_errors(self, outdir, capsys, argv):
        assert main(argv) == EXIT_USAGE
        assert not list(outdir.iterdir())
        capsys.readouterr()

    def test_refuses_what_load_refuses(self, outdir, capsys):
        # A start at empty loads, so generate writes it; no plan leaves S.
        rc = main(["generate", "--preset", "instance1", "--seed", "108",
                   "--initial-soc", "0"])
        assert rc == EXIT_OK
        inst_path = outdir / "instance-instance1-seed108.json"
        assert load(inst_path).params.initial_soc == 0.0
        rc = main(["solve", "--instance", str(inst_path), "--method", "eps-front"])
        assert rc == EXIT_INFEASIBLE
        capsys.readouterr()


class TestSolve:
    def test_exact_time_single_point(self, outdir, capsys, inst_file):
        rc = main(["solve", "--instance", str(inst_file), "--method", "exact-time"])
        assert rc == EXIT_OK
        out = outdir / "bench-exact-time.csv"
        points = read_front_csv(out)
        assert len(points) == 1
        msgs = capsys.readouterr().out
        assert "wrote 1-point front" in msgs
        assert "first point: time_h=" in msgs

    def test_eps_front_matches_library(self, outdir, inst_file):
        rc = main(["solve", "--instance", str(inst_file), "--method", "eps-front"])
        assert rc == EXIT_OK
        got = read_front_csv(outdir / "bench-eps-front.csv")
        want = list(epsilon_constraint(load(inst_file)))
        assert [(p.time_h, p.cost) for p in got] == \
            [(p.time_h, p.cost) for p in want]
        assert [p.payload for p in got] == [p.payload for p in want]

    def test_oracle_method(self, outdir, inst_file):
        rc = main(["solve", "--instance", str(inst_file), "--method", "oracle",
                   "--grid", "8"])
        assert rc == EXIT_OK
        points = read_front_csv(outdir / "bench-oracle.csv")
        assert len(points) >= 1
        mf = read_manifest(outdir / "bench-oracle.csv.manifest")
        assert mf["grid"] == "8"

    def test_ga_writes_front_history_manifest(self, outdir, inst_file):
        rc = main(["solve", "--instance", str(inst_file), "--method", "ga",
                   "--pop", "20", "--epochs", "10", "--seed", "3"])
        assert rc == EXIT_OK
        front = read_front_csv(outdir / "bench-ga.csv")
        assert len(front) == 1
        hist = outdir / "bench-ga-history.csv"
        with open(hist, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 12  # header + epochs 0..10
        mf = read_manifest(outdir / "bench-ga.csv.manifest")
        assert mf["population"] == "20"
        assert mf["epochs"] == "10"
        assert mf["seed"] == "3"
        assert mf["weights"] == "1.0,1.0"
        assert mf["history"] == str(hist)

    def test_pso_custom_paths(self, outdir, tmp_path, inst_file):
        front_p = tmp_path / "deep" / "swarm.csv"
        hist_p = tmp_path / "deep" / "swarm-history.csv"
        rc = main(["solve", "--instance", str(inst_file), "--method", "pso",
                   "--pop", "15", "--epochs", "5", "--weights", "2,0.5",
                   "--out", str(front_p), "--history", str(hist_p)])
        assert rc == EXIT_OK
        assert front_p.exists() and hist_p.exists()
        mf = read_manifest(front_p.with_name("swarm.csv.manifest"))
        assert mf["weights"] == "2.0,0.5"

    def test_infeasible_instance_exact(self, outdir, capsys, infeasible_file):
        rc = main(["solve", "--instance", str(infeasible_file),
                   "--method", "exact-time"])
        assert rc == EXIT_INFEASIBLE
        assert "infeasible:" in capsys.readouterr().err

    def test_infeasible_instance_metaheuristic(self, outdir, capsys,
                                                infeasible_file):
        rc = main(["solve", "--instance", str(infeasible_file), "--method",
                   "pso", "--pop", "8", "--epochs", "2"])
        assert rc == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "no feasible plan" in err
        hist = outdir / "stranded-pso-history.csv"
        assert hist.exists()
        assert not (outdir / "stranded-pso.csv").exists()
        mf = read_manifest(outdir / "stranded-pso-history.csv.manifest")
        assert mf["out"] == ""

    def test_oracle_without_feasible_mesh_point(self, outdir, capsys):
        main(["generate", "--preset", "instance1", "--seed", "108",
              "--initial-soc", "0.1"])
        rc = main(["solve", "--instance",
                   str(outdir / "instance-instance1-seed108.json"),
                   "--method", "oracle"])
        assert rc == EXIT_INFEASIBLE
        assert "infeasible: no charge plan on the --grid 50 mesh" in capsys.readouterr().err

    def test_resource_cap_exit(self, outdir, capsys):
        main(["generate", "--preset", "instance4", "--seed", "1"])
        inst_path = outdir / "instance-instance4-seed1.json"
        rc = main(["solve", "--instance", str(inst_path), "--method", "oracle",
                   "--grid", "50"])
        assert rc == EXIT_RESOURCE
        assert "resource cap:" in capsys.readouterr().err

    def test_path_cap_exit(self, outdir, capsys, inst_file, monkeypatch):
        monkeypatch.setattr(exact, "DEFAULT_PATH_CAP", 1)
        rc = main(["solve", "--instance", str(inst_file), "--method", "exact-time"])
        assert rc == EXIT_RESOURCE
        assert "resource cap: graph admits" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", ["60", "1100"])
    def test_subset_table_cap_exit(self, outdir, capsys, levels):
        # One station per layer: the stop subsets double at every layer
        # until the battery prunes them, and 1,100 layers outgrow recursion.
        main(["generate", "--levels", levels, "--max-per-level", "1",
               "--p-edge", "1.0", "--seed", "1", "--out", str(outdir / "chain.json")])
        rc = main(["solve", "--instance", str(outdir / "chain.json"),
                   "--method", "exact-time"])
        assert rc == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert "resource cap: stop-subset table holds" in err
        assert f"of {levels}, above the cap of" in err

    @pytest.mark.parametrize("delta", ["1e-12", "1e-320"])
    def test_tiny_delta_hits_resource_cap(self, outdir, capsys, delta):
        main(["generate", "--preset", "instance1", "--seed", "108"])
        inst_path = outdir / "instance-instance1-seed108.json"
        rc = main(["solve", "--instance", str(inst_path), "--method", "eps-front",
                   "--delta", delta])
        assert rc == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert "resource cap: budget sweep" in err
        assert "Traceback" not in err

    def test_validation_errors(self, outdir, capsys, tmp_path):
        rc = main(["solve", "--instance", str(tmp_path / "missing.json"),
                   "--method", "exact-time"])
        assert rc == EXIT_VALIDATION
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        rc = main(["solve", "--instance", str(garbage), "--method", "exact-time"])
        assert rc == EXIT_VALIDATION
        schema_bad = tmp_path / "schema.json"
        schema_bad.write_text(json.dumps({"params": {}}))
        rc = main(["solve", "--instance", str(schema_bad), "--method", "exact-time"])
        assert rc == EXIT_VALIDATION
        capsys.readouterr()

    @pytest.mark.parametrize("path,value", [
        (("graph", "levels", 0, 0), "a"),
        (("stations", 0), 5),
        (("graph", "edges", 0), 7),
        (("params", "speed_v"), "fast"),
        (("graph", "source_dist"), [300.0]),
        (("shape",), 3),
        (("params", "speed_v"), math.nan),
        (("graph", "edges", 0, 2), math.inf),
        (("stations", 0, "price"), -math.inf),
        pytest.param(("graph", "levels"), [], id="no-levels"),
        # A repeated station id or edge; a callable value maps the document
        # to the new value at path.
        pytest.param(("stations",), lambda doc: doc["stations"] + [
            dict(doc["stations"][0], price=9.0)], id="duplicate-station"),
        pytest.param(("graph", "edges"), lambda doc: doc["graph"]["edges"] + [
            doc["graph"]["edges"][0][:2] + [1.0]], id="duplicate-edge"),
        pytest.param(("params", "speed_v"), 1e-320, id="infinite-trip-time"),
    ])
    def test_malformed_instance_exits_3(self, capsys, fuzz_dir, path, value):
        doc = copy.deepcopy(fuzz_dir[0])
        _json_set(doc, path, value(doc) if callable(value) else value)
        assert _solve_doc(doc, fuzz_dir[1]) == EXIT_VALIDATION
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("params,station,match", [
        pytest.param({}, {"power_kw": 1e-310}, "infinite charging time",
                     id="infinite-charge-time"),
        pytest.param({"capacity_C": 1e300, "mileage_gamma": 1e-297}, {"price": 1e10},
                     "infinite charging cost", id="infinite-charge-cost"),
    ])
    def test_overflowing_charge_exits_3(self, capsys, tmp_path, params, station, match):
        save(generate_instance(PRESETS["instance1"], seed=108), tmp_path / "base.json")
        doc = json.loads((tmp_path / "base.json").read_text())
        doc["params"].update(params)
        for record in doc["stations"]:
            record.update(station)
        assert _solve_doc(doc, tmp_path) == EXIT_VALIDATION
        assert match in capsys.readouterr().err

    def test_skip_layer_edge_exits_3(self, capsys, fuzz_dir):
        doc = _add_skip_layer_edge(copy.deepcopy(fuzz_dir[0]))
        assert _solve_doc(doc, fuzz_dir[1]) == EXIT_VALIDATION
        assert "edges must join consecutive layers" in capsys.readouterr().err

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fuzzed_instance_file(self, fuzz_dir, data):
        doc, workdir = copy.deepcopy(fuzz_dir[0]), fuzz_dir[1]
        op = data.draw(st.sampled_from(["delete", "set", "skip-layer edge",
                                        "duplicate a record"]))
        if op == "skip-layer edge":
            _add_skip_layer_edge(doc)
        elif op == "duplicate a record":
            records = data.draw(st.sampled_from([doc["stations"], doc["graph"]["edges"]]))
            records.append(copy.deepcopy(data.draw(st.sampled_from(records))))
        else:
            path = data.draw(st.sampled_from(list(_json_paths(doc))))
            if op == "delete":
                del functools.reduce(operator.getitem, path[:-1], doc)[path[-1]]
            else:
                _json_set(doc, path, data.draw(st.sampled_from(FUZZ_VALUES)))
        try:
            load(_write_doc(doc, workdir))
            loaded = True
        except InstanceFormatError:
            loaded = False
        rc = _solve_doc(doc, workdir)
        assert rc in ((EXIT_OK, EXIT_INFEASIBLE) if loaded else (EXIT_VALIDATION,))

    @pytest.mark.parametrize("extra", [
        ["--method", "eps-front", "--delta", "-1"],
        ["--method", "eps-front", "--delta", "abc"],
        ["--method", "oracle", "--grid", "0"],
        ["--method", "ga", "--pop", "0", "--epochs", "1"],
        ["--method", "ga", "--pop", "5", "--epochs", "-2"],
        ["--method", "pso", "--pop", "5", "--epochs", "1", "--weights", "1"],
        ["--method", "pso", "--pop", "5", "--epochs", "1", "--weights", "0,0"],
        ["--method", "pso", "--pop", "5", "--epochs", "1", "--weights", "-1,1"],
        ["--method", "pso", "--pop", "5", "--epochs", "1", "--weights", "nan,1"],
        ["--method", "pso", "--pop", "5", "--epochs", "1", "--weights", "inf,1"],
        ["--method", "pso", "--pop", "5", "--epochs", "1", "--weights", "1,nan"],
        ["--method", "eps-front", "--delta", "nan"],
        ["--method", "ga", "--pop", "5", "--epochs", "1", "--seed", "-1"],
    ])
    def test_usage_errors(self, outdir, capsys, inst_file, extra):
        assert main(["solve", "--instance", str(inst_file)] + extra) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_method_is_usage_error(self, outdir, capsys, inst_file):
        rc = main(["solve", "--instance", str(inst_file), "--method", "magic"])
        assert rc == EXIT_USAGE
        capsys.readouterr()


class TestCompare:
    def fronts(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        pa = [FrontPoint(1.0, 5.0), FrontPoint(2.0, 4.0)]
        pb = [FrontPoint(1.5, 4.5), FrontPoint(0.5, 6.0), FrontPoint(1.0, 5.0)]
        write_front_csv(pa, a)
        write_front_csv(pb, b)
        return a, b, pa, pb

    def test_report_and_stdout(self, outdir, capsys, tmp_path):
        a, b, pa, pb = self.fronts(tmp_path)
        rc = main(["compare", str(a), str(b)])
        assert rc == EXIT_OK
        report = outdir / "compare-report.csv"
        with open(report, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == REPORT_CSV_COLUMNS
        want_a = point_classes(pa, pb)
        want_b = point_classes(pb, pa)
        got = {(r[0], int(r[1])): r[4] for r in rows[1:]}
        for i, cls in enumerate(want_a):
            assert got[("A", i)] == cls
        for i, cls in enumerate(want_b):
            assert got[("B", i)] == cls
        out = capsys.readouterr().out
        assert "A points dominated by B:" in out
        assert "mutually nondominated:" in out
        assert "wrote report to" in out
        mf = read_manifest(outdir / "compare-report.csv.manifest")
        assert mf["command"] == "compare"

    def test_classes_against_pairwise_oracle(self, outdir, tmp_path):
        a, b, pa, pb = self.fronts(tmp_path)
        main(["compare", str(a), str(b), "--report", str(tmp_path / "r.csv")])
        with open(tmp_path / "r.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]

        def dom(p, q):
            return (p[0] <= q[0] and p[1] <= q[1]) and (p[0] < q[0] or p[1] < q[1])

        sides = {"A": ([(p.time_h, p.cost) for p in pa],
                       [(p.time_h, p.cost) for p in pb]),
                 "B": ([(p.time_h, p.cost) for p in pb],
                       [(p.time_h, p.cost) for p in pa])}
        for side, idx, t, c, cls in rows:
            mine, other = sides[side]
            p = mine[int(idx)]
            if any(dom(q, p) for q in other):
                want = "dominated"
            elif any(dom(p, q) for q in other):
                want = "dominating"
            else:
                want = "nondominated"
            assert cls == want

    def test_missing_and_malformed_inputs(self, outdir, capsys, tmp_path):
        a, _, _, _ = self.fronts(tmp_path)
        rc = main(["compare", str(a), str(tmp_path / "nope.csv")])
        assert rc == EXIT_VALIDATION
        bad = tmp_path / "bad.csv"
        bad.write_text("time_h,cost\n")
        rc = main(["compare", str(a), str(bad)])
        assert rc == EXIT_VALIDATION
        bad.write_text("time_h,cost,path,charge_plan\nnan,1.0,,\n")
        rc = main(["compare", str(a), str(bad)])
        assert rc == EXIT_VALIDATION
        assert "line 2: NaN" in capsys.readouterr().err


class TestManifests:
    def test_digest_covers_config_not_wall_clock(self, outdir, inst_file):
        main(["solve", "--instance", str(inst_file), "--method", "exact-time"])
        manifest = outdir / "bench-exact-time.csv.manifest"
        lines = manifest.read_text().splitlines()
        digest_idx = next(i for i, ln in enumerate(lines)
                          if ln.startswith("config_digest="))
        recomputed = hashlib.sha256(
            "\n".join(lines[:digest_idx]).encode()).hexdigest()
        assert lines[digest_idx] == f"config_digest=sha256:{recomputed}"
        assert lines[digest_idx + 1].startswith("wall_clock_s=")

    def test_rerun_keeps_digest_changes_clock_only(self, outdir, inst_file):
        argv = ["solve", "--instance", str(inst_file), "--method", "exact-time"]
        main(argv)
        first = read_manifest(outdir / "bench-exact-time.csv.manifest")
        main(argv)
        second = read_manifest(outdir / "bench-exact-time.csv.manifest")
        assert first["config_digest"] == second["config_digest"]
        assert set(first) == set(second)

    def test_replay_from_manifest_is_byte_identical(self, outdir, inst_file):
        argv = ["solve", "--instance", str(inst_file), "--method", "eps-front",
                "--out", str(outdir / "replay.csv")]
        assert main(argv) == EXIT_OK
        out = outdir / "replay.csv"
        original = out.read_bytes()
        mf = read_manifest(outdir / "replay.csv.manifest")
        replay_argv = shlex.split(mf["argv"])
        out.unlink()
        assert main(replay_argv) == EXIT_OK
        assert out.read_bytes() == original

    def test_read_manifest_rejects_junk(self, tmp_path):
        junk = tmp_path / "x.manifest"
        junk.write_text("command=solve\nthis line has no equals sign\n")
        with pytest.raises(ValueError, match="key=value"):
            read_manifest(junk)

    def test_default_outdir_is_cwd(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(OUT_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--preset", "instance1", "--seed", "2"]) == EXIT_OK
        assert (tmp_path / "instance-instance1-seed2.json").exists()
        capsys.readouterr()


class TestSharedParser:
    def test_commands_match_fresh_parsers(self, outdir, capsys, tmp_path_factory):
        # generate, a usage error, then compare through one parser give the
        # exit codes, output and files of each command with its own parser
        fronts = tmp_path_factory.mktemp("fronts")
        a, b = fronts / "a.csv", fronts / "b.csv"
        write_front_csv([FrontPoint(1.0, 5.0), FrontPoint(2.0, 4.0)], a)
        write_front_csv([FrontPoint(1.5, 4.5), FrontPoint(0.5, 6.0)], b)
        commands = [["generate", "--preset", "instance1", "--seed", "3"],
                    ["generate", "--preset", "nope"],
                    ["compare", str(a), str(b)]]

        def run(fresh):
            seen = []
            for argv in commands:
                if fresh:
                    cli._build_parser.cache_clear()
                rc = main(argv)
                seen.append((rc, capsys.readouterr()))
            files = {p.name: p.read_bytes() for p in outdir.iterdir()
                     if not p.name.endswith(".manifest")}
            for p in outdir.iterdir():
                p.unlink()
            return seen, files

        cli._build_parser.cache_clear()
        shared = run(fresh=False)
        assert cli._build_parser.cache_info().misses == 1
        assert [rc for rc, _ in shared[0]] == [EXIT_OK, EXIT_USAGE, EXIT_OK]
        assert "invalid choice: 'nope'" in shared[0][1][1].err
        assert sorted(shared[1]) == ["compare-report.csv",
                                     "instance-instance1-seed3.json"]
        assert run(fresh=True) == shared
