"""Solution evaluation: SOC recursion, objectives, constraint audit, fitness."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evroute.cli import PRESETS
from evroute.exact import min_time
from evroute.instance import (Instance, RouteGraph, Station, VehicleParams,
                              generate_instance)
from evroute.model import (CHARGE_EPS, InfeasibleRouteError, RouteSolution,
                           Violation, check_feasible, driven_km, evaluate,
                           penalized_fitness, try_evaluate)


def station(u, price=0.134, wait=1.0, detour=10.0, level="L3", power=50.0):
    return Station(id=u, level=level, power_kw=power, price=price,
                   wait_h=wait, detour_km=detour)


def line_instance(d_s=300.0, legs=(), d_d=300.0, stations=None,
                  params=VehicleParams()):
    """One chain of nodes 1..k, one node per layer, joined by legs."""
    k = len(legs) + 1
    levels = tuple((i,) for i in range(1, k + 1))
    edges = {(i, i + 1): float(legs[i - 1]) for i in range(1, k)}
    if stations is None:
        stations = {i: station(i) for i in range(1, k + 1)}
    return Instance(params=params, stations=stations,
                    graph=RouteGraph(levels, edges, {1: float(d_s)},
                                     {k: float(d_d)}),
                    seed=0, shape=(k, 1, 1.0))


def diamond_instance():
    """1 -> {2,3} -> 4 with all legs 200 km."""
    levels = ((1,), (2, 3), (4,))
    edges = {(1, 2): 200.0, (1, 3): 200.0, (2, 4): 200.0, (3, 4): 200.0}
    stations = {u: station(u) for u in (1, 2, 3, 4)}
    return Instance(params=VehicleParams(), stations=stations,
                    graph=RouteGraph(levels, edges, {1: 200.0}, {4: 200.0}),
                    seed=0, shape=(3, 2, 1.0))


class TestSocTrace:
    """The SOC trace and SOC violations of check_feasible's report."""

    def test_exact_range_boundary(self):
        inst = line_instance(d_s=300.0, d_d=300.0)
        report = check_feasible(inst, RouteSolution(path=(1,), charge_plan={}))
        assert report.q[1] == pytest.approx(0.5, abs=1e-12)
        assert report.beta == pytest.approx(0.0, abs=1e-12)
        assert report.feasible
        assert report.violations == ()

    def test_source_leg_beyond_range(self):
        inst = line_instance(d_s=700.0, d_d=300.0)
        report = check_feasible(inst, RouteSolution(path=(1,), charge_plan={}))
        assert not report.feasible
        v = report.violations[0]
        assert (v.constraint, v.detail) == ("source-reachability",
                                            "source-reachability at node 1")
        assert v.magnitude == pytest.approx(700 / 600 - 1, abs=1e-12)
        # the trace itself is still fully computed
        assert report.q[1] == pytest.approx(1 - 700 / 600, abs=1e-12)

    def test_hand_recursion_two_nodes(self):
        # y at the second node cannot rescue the arrival there: the detour
        # and leg drain the battery before charging happens
        inst = line_instance(d_s=300.0, legs=(300.0,), d_d=300.0)
        sol = RouteSolution(path=(1, 2), charge_plan={2: 0.6})
        report = check_feasible(inst, sol)
        assert report.q[1] == pytest.approx(0.5, abs=1e-12)
        assert report.q[2] == pytest.approx(0.5 + 0.6 - 310 / 600, abs=1e-9)
        assert report.q[2] == pytest.approx(0.58333333, abs=1e-6)
        assert report.beta == pytest.approx(report.q[2] - 0.5, abs=1e-12)
        assert report.beta == pytest.approx(0.08333333, abs=1e-6)
        v = report.violations[0]
        assert (v.constraint, v.detail) == ("c11", "arrival at node 2")
        assert v.magnitude == pytest.approx(1 / 60, abs=1e-9)

    def test_charging_rescues_later_leg(self):
        # same trip shape, but charging at node 1 (detour 10) up front
        inst = line_instance(d_s=300.0, legs=(300.0,), d_d=200.0)
        sol = RouteSolution(path=(1, 2), charge_plan={1: 0.4})
        report = check_feasible(inst, sol)
        assert report.feasible
        assert report.q[1] == pytest.approx(1 - 310 / 600 + 0.4, abs=1e-12)
        assert report.q[2] == pytest.approx(report.q[1] - 0.5, abs=1e-12)
        assert report.beta == pytest.approx(report.q[2] - 200 / 600, abs=1e-12)

    def test_overcharge_detected(self):
        inst = line_instance(d_s=300.0, d_d=300.0)
        report = check_feasible(inst, RouteSolution(path=(1,), charge_plan={1: 0.7}))
        v = report.violations[0]
        assert (v.constraint, v.detail) == ("c14", "overcharge at node 1")
        # arrival 1 - 310/600, so SOC tops out 0.7 - 310/600 above full
        assert v.magnitude == pytest.approx(0.7 - 310 / 600, abs=1e-9)

    def test_tiny_charge_is_transit(self):
        inst = line_instance(d_s=300.0, d_d=300.0)
        a = check_feasible(inst, RouteSolution((1,), {1: CHARGE_EPS / 2}))
        b = check_feasible(inst, RouteSolution((1,), {}))
        assert a == b

    def test_structural_error_raises(self):
        # a structurally broken path has no trace, and evaluate names the break
        inst = diamond_instance()
        for path, match in [((1, 4), "does not exist"), ((2, 4), "layer 0"),
                            ((), "empty")]:
            sol = RouteSolution(path=path, charge_plan={})
            report = check_feasible(inst, sol)
            assert (report.q, report.beta) == ({}, None)
            with pytest.raises(InfeasibleRouteError, match=match):
                evaluate(inst, sol)
            assert try_evaluate(inst, sol) is None


class TestEvaluate:
    def test_single_node_transit(self):
        inst = line_instance(d_s=300.0, d_d=300.0)
        obj = evaluate(inst, RouteSolution(path=(1,), charge_plan={}))
        assert obj.time_h == pytest.approx(12.0, abs=1e-12)
        assert obj.cost == 0.0

    def test_single_node_with_charge(self):
        inst = line_instance(d_s=300.0, d_d=300.0)
        obj = evaluate(inst, RouteSolution(path=(1,), charge_plan={1: 0.5}))
        # 600 km drive + 10 km detour at 50 km/h, 1 h wait, 50 kWh at 50 kW
        assert obj.time_h == pytest.approx(14.2, abs=1e-12)
        assert obj.cost == pytest.approx(6.7, abs=1e-12)

    def test_zero_charge_equals_no_entry(self):
        inst = line_instance(d_s=300.0, d_d=300.0)
        a = evaluate(inst, RouteSolution((1,), {1: 0.0}))
        b = evaluate(inst, RouteSolution((1,), {}))
        assert a == b

    def test_off_path_entries_inert(self):
        inst = diamond_instance()
        a = evaluate(inst, RouteSolution((1, 2, 4), {2: 0.5, 3: 0.9}))
        b = evaluate(inst, RouteSolution((1, 2, 4), {2: 0.5}))
        assert a == b

    def test_infeasible_raises(self):
        inst = line_instance(d_s=700.0)
        with pytest.raises(InfeasibleRouteError, match="source-reachability"):
            evaluate(inst, RouteSolution((1,), {}))
        assert try_evaluate(inst, RouteSolution((1,), {})) is None

    def test_off_path_charge_bound_enforced(self):
        # instance1/108's min_time plan plus an entry off its path (0, 4)
        inst = generate_instance(PRESETS["instance1"], seed=108)
        plan = min_time(inst).solution
        sol = RouteSolution(plan.path, {**plan.charge_plan, 1: 5.0})
        with pytest.raises(InfeasibleRouteError) as info:
            evaluate(inst, sol)
        assert info.value.violation == Violation("c13", 4.0, "y[1] = 5.0 above 1")
        assert try_evaluate(inst, sol) is None

    def test_pure_function(self):
        inst = line_instance(d_s=300.0, d_d=300.0)
        sol = RouteSolution((1,), {1: 0.3})
        assert evaluate(inst, sol) == evaluate(inst, sol)

    def test_monotone_in_charge(self):
        inst = line_instance(d_s=300.0, d_d=100.0)
        lo = evaluate(inst, RouteSolution((1,), {1: 0.2}))
        hi = evaluate(inst, RouteSolution((1,), {1: 0.3}))
        assert hi.time_h > lo.time_h
        assert hi.cost > lo.cost

    @settings(max_examples=80, deadline=None)
    @given(y1=st.floats(0.0, 1.0), y2=st.floats(0.0, 1.0),
           d_s=st.floats(50.0, 590.0), leg=st.floats(50.0, 590.0),
           d_d=st.floats(50.0, 590.0))
    def test_energy_bookkeeping_closes(self, y1, y2, d_s, leg, d_d):
        inst = line_instance(d_s=d_s, legs=(leg,), d_d=d_d)
        sol = RouteSolution((1, 2), {1: y1, 2: y2})
        report = check_feasible(inst, sol)
        if not report.feasible:
            return
        cg = inst.params.capacity_kwh * inst.params.km_per_kwh
        active = sum(y for y in (y1, y2) if y > CHARGE_EPS)
        lhs = report.beta * cg + driven_km(inst, sol)
        rhs = (inst.params.initial_soc + active) * cg
        assert abs(lhs - rhs) <= 1e-6 * cg


class TestCheckFeasible:
    def test_feasible_solution_clean(self):
        inst = line_instance(d_s=300.0, d_d=300.0)
        report = check_feasible(inst, RouteSolution((1,), {1: 0.5}))
        assert report.feasible
        assert report.violations == ()

    def test_charge_bound(self):
        inst = line_instance(d_s=300.0, d_d=300.0)
        report = check_feasible(inst, RouteSolution((1,), {1: 1.2}))
        v = [v for v in report.violations if v.constraint == "c13"]
        assert len(v) == 1
        assert v[0].magnitude == pytest.approx(0.2, abs=1e-12)
        report = check_feasible(inst, RouteSolution((1,), {1: -0.4}))
        v = [v for v in report.violations if v.constraint == "c13"]
        assert v and v[0].magnitude == pytest.approx(0.4, abs=1e-12)

    def test_off_path_charge_bound_still_checked(self):
        inst = diamond_instance()
        report = check_feasible(inst, RouteSolution((1, 2, 4), {3: 1.5, 2: 0.5}))
        assert any(v.constraint == "c13" for v in report.violations)

    def test_empty_path(self):
        inst = diamond_instance()
        report = check_feasible(inst, RouteSolution((), {}))
        assert {v.constraint for v in report.violations} == {"c3", "c4"}

    def test_missing_edge(self):
        inst = diamond_instance()
        report = check_feasible(inst, RouteSolution((1, 4), {}))
        assert any(v.constraint == "c7" and "(1, 4)" in v.detail
                   for v in report.violations)

    def test_unknown_node(self):
        inst = diamond_instance()
        report = check_feasible(inst, RouteSolution((1, 99), {}))
        assert any(v.constraint == "c7" and "99" in v.detail
                   for v in report.violations)

    def test_wrong_boundary_layers(self):
        inst = diamond_instance()
        report = check_feasible(inst, RouteSolution((2, 4), {}))
        assert any(v.constraint == "c3" for v in report.violations)
        report = check_feasible(inst, RouteSolution((1, 2), {}))
        assert any(v.constraint == "c4" for v in report.violations)

    def test_self_loop(self):
        inst = diamond_instance()
        report = check_feasible(inst, RouteSolution((1, 1, 2, 4), {}))
        assert any(v.constraint == "c12" for v in report.violations)

    def test_repeat_visit_and_duplicate_edge(self):
        inst = diamond_instance()
        # 4 entered twice
        report = check_feasible(inst, RouteSolution((1, 2, 4, 3, 4), {}))
        assert any(v.constraint == "c5" and v.magnitude == 1.0
                   for v in report.violations)
        # (1, 2) driven twice
        report = check_feasible(inst, RouteSolution((1, 2, 1, 2, 4), {}))
        assert any(v.constraint == "c19" for v in report.violations)
        assert any(v.constraint == "c6" for v in report.violations)

    def test_soc_violations_mapped(self):
        inst = line_instance(d_s=700.0)
        report = check_feasible(inst, RouteSolution((1,), {}))
        assert any(v.constraint == "source-reachability" for v in report.violations)

        inst = line_instance(d_s=300.0, legs=(300.0,), d_d=300.0)
        report = check_feasible(inst, RouteSolution((1, 2), {2: 0.6}))
        assert any(v.constraint == "c11" for v in report.violations)

        inst = line_instance(d_s=300.0, d_d=300.0)
        report = check_feasible(inst, RouteSolution((1,), {1: 0.9}))
        assert any(v.constraint == "c14" for v in report.violations)

        inst = line_instance(d_s=300.0, d_d=700.0)
        report = check_feasible(inst, RouteSolution((1,), {1: 0.5}))
        assert any(v.constraint == "c15" for v in report.violations)

    @settings(max_examples=200, deadline=None)
    @given(path=st.lists(st.sampled_from([1, 2, 3, 4, 5]), max_size=5),
           y=st.dictionaries(st.sampled_from([1, 2, 3, 4, 5]),
                             st.floats(-0.5, 1.5), max_size=5))
    def test_evaluate_acts_on_its_verdict(self, path, y):
        # any path over the diamond, node 5 unknown, off-path entries included
        inst = diamond_instance()
        sol = RouteSolution(tuple(path), y)
        report = check_feasible(inst, sol)
        assert (try_evaluate(inst, sol) is None) == (not report.feasible)
        if report.feasible:
            assert evaluate(inst, sol) == try_evaluate(inst, sol)
            return
        with pytest.raises(InfeasibleRouteError) as info:
            evaluate(inst, sol)
        assert info.value.violation == report.violations[0]
        assert report.violations[0].detail in str(info.value)


class TestPenalizedFitness:
    def test_weighted_sum(self):
        # engineered to land exactly on time 12 h and cost 6.7
        inst = line_instance(d_s=250.0, d_d=250.0,
                             stations={1: station(1, wait=1.0, detour=0.0)},
                             params=VehicleParams(initial_soc=0.5))
        sol = RouteSolution((1,), {1: 0.5})
        obj = evaluate(inst, sol)
        assert obj.time_h == pytest.approx(12.0, abs=1e-12)
        assert obj.cost == pytest.approx(6.7, abs=1e-12)
        assert penalized_fitness(inst, sol, (1.0, 1.0)) == pytest.approx(18.7, abs=1e-12)
        assert penalized_fitness(inst, sol, (1.0, 0.0)) == pytest.approx(obj.time_h)
        assert penalized_fitness(inst, sol, (0.0, 1.0)) == pytest.approx(obj.cost)

    def test_infeasible_penalty(self):
        inst = line_instance(d_s=700.0)
        fit = penalized_fitness(inst, RouteSolution((1,), {}), (1.0, 1.0))
        assert fit >= 1e9
        # graded: worse violations, larger penalty
        worse = penalized_fitness(
            line_instance(d_s=900.0), RouteSolution((1,), {}), (1.0, 1.0))
        assert worse > fit

    def test_feasible_below_any_infeasible(self):
        inst = line_instance(d_s=300.0, d_d=300.0)
        feas = penalized_fitness(inst, RouteSolution((1,), {1: 0.5}), (1.0, 1.0))
        assert feas < 1e9

    def test_bad_weights_rejected(self):
        inst = line_instance()
        sol = RouteSolution((1,), {})
        with pytest.raises(ValueError):
            penalized_fitness(inst, sol, (0.0, 0.0))
        with pytest.raises(ValueError):
            penalized_fitness(inst, sol, (-1.0, 1.0))


class TestDrivenKm:
    def test_counts_only_charged_detours(self):
        inst = line_instance(d_s=300.0, legs=(200.0,), d_d=100.0)
        base = driven_km(inst, RouteSolution((1, 2), {}))
        assert base == pytest.approx(600.0)
        charged = driven_km(inst, RouteSolution((1, 2), {1: 0.2}))
        assert charged == pytest.approx(610.0)
        both = driven_km(inst, RouteSolution((1, 2), {1: 0.2, 2: 0.1}))
        assert both == pytest.approx(620.0)
