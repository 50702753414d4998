"""Exact solvers: path enumeration, per-path charge optima, epsilon sweep,
grid oracle. Hand-solvable instances carry the closed-form reference values,
and HiGHS, through evroute.lp, is the reference for the greedy charge solve."""
import dataclasses
import hashlib
import math
from bisect import bisect_left
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evroute import exact, model
from evroute.cli import PRESETS
from evroute.exact import (InfeasibleInstanceError, ResourceCapError,
                           count_paths, enumerate_paths, epsilon_constraint,
                           grid_oracle, min_cost, min_time, weighted_optimum)
from evroute.instance import (Instance, RouteGraph, Station, VehicleParams,
                              generate_instance)
from evroute.lp import OPTIMAL, solve_lp
from evroute.model import _soc_scan, evaluate
from evroute.pareto import dominates, write_front_csv
from reference_checker import reference_oracle, reference_subsets, shuffle_ids


def station(u, price, power, level, wait=1.0, detour=10.0):
    return Station(id=u, level=level, power_kw=power, price=price,
                   wait_h=wait, detour_km=detour)


def forced_stop_line():
    """One station, 800 km trip, 600 km range: must charge y = 0.35."""
    graph = RouteGraph(((1,),), {}, {1: 400.0}, {1: 400.0})
    return Instance(params=VehicleParams(),
                    stations={1: station(1, 0.134, 50.0, "L3")},
                    graph=graph, seed=0, shape=(1, 1, 1.0))


def free_ride_line():
    """550 km trip needs no charging at all."""
    graph = RouteGraph(((1,), (2,)), {(1, 2): 200.0}, {1: 250.0}, {2: 100.0})
    stations = {1: station(1, 0.134, 50.0, "L3"),
                2: station(2, 0.2, 22.0, "L2")}
    return Instance(params=VehicleParams(), stations=stations, graph=graph,
                    seed=0, shape=(2, 1, 1.0))


def priced_diamond(price2, power2, level2, price3, power3, level3):
    """1 -> {2,3} -> 4, 900 km end to end, one mandatory charge stop."""
    levels = ((1,), (2, 3), (4,))
    edges = {(1, 2): 200.0, (1, 3): 200.0, (2, 4): 200.0, (3, 4): 200.0}
    stations = {1: station(1, 0.2, 22.0, "L2"),
                2: station(2, price2, power2, level2),
                3: station(3, price3, power3, level3),
                4: station(4, 0.2, 22.0, "L2")}
    return Instance(params=VehicleParams(), stations=stations,
                    graph=RouteGraph(levels, edges, {1: 250.0}, {4: 250.0}),
                    seed=0, shape=(3, 2, 1.0))


def identical_stops_line():
    """Three identical stations in a row, so that charge vectors which
    permute one another give the same time and cost up to rounding."""
    graph = RouteGraph(((1,), (2,), (3,)), {(1, 2): 300.0, (2, 3): 300.0},
                       {1: 50.0}, {3: 300.0})
    return Instance(params=VehicleParams(initial_soc=0.3),
                    stations={u: station(u, 0.137, 22.0, "L2", wait=0.3, detour=3.0)
                              for u in (1, 2, 3)},
                    graph=graph, seed=0, shape=(3, 1, 1.0))


def tight_range_line():
    """A 200 km range and a short first leg: stopping at station 1 leaves
    0.85 of the battery, so every charge above 0.15 overcharges there."""
    graph = RouteGraph(((1,), (2,), (3,)), {(1, 2): 150.0, (2, 3): 150.0},
                       {1: 20.0}, {3: 100.0})
    return Instance(params=VehicleParams(km_per_kwh=2.0),
                    stations={u: station(u, 0.1 * u, 22.0, "L2") for u in (1, 2, 3)},
                    graph=graph, seed=0, shape=(3, 1, 1.0))


def final_leg_line():
    """Half a battery and a stop that lands on empty: a stop's SOC equals
    its charge, so no bound but the one at D can break."""
    graph = RouteGraph(((1,),), {}, {1: 290.0}, {1: 400.0})
    return Instance(params=VehicleParams(initial_soc=0.5),
                    stations={1: station(1, 0.134, 50.0, "L3")},
                    graph=graph, seed=0, shape=(1, 1, 1.0))


def dead_branch_diamond():
    """priced_diamond with the leg 1 -> 3 beyond a full battery, so every
    row through station 3 dies there, before the last layer."""
    inst = priced_diamond(0.1, 7.0, "L1", 0.3, 50.0, "L3")
    edges = dict(inst.graph.edges)
    edges[(1, 3)] = 700.0
    graph = RouteGraph(inst.graph.levels, edges, inst.graph.source_dist,
                       inst.graph.dest_dist)
    return Instance(params=inst.params, stations=inst.stations, graph=graph,
                    seed=0, shape=inst.shape)


def traced_oracle(inst, grid_n, chunk=None):
    """grid_oracle's front, and per SOC step its layer's node position, the
    rows it advanced and the rows left without a violation."""
    steps = []
    step = model.PlanArrays.step

    def traced(self, state, prev, u, y):
        out = step(self, state, prev, u, y)
        steps.append((u, out[3].size, int((out[3] == 0.0).sum())))
        return out

    with mock.patch.object(model.PlanArrays, "step", traced), \
            mock.patch.object(exact, "ORACLE_CHUNK", chunk or exact.ORACLE_CHUNK):
        front = grid_oracle(inst, grid_n=grid_n)
    return front, steps


def preset1(seed):
    return generate_instance((2, 8, 0.6), seed=seed)


def recount_paths(graph):
    """Independent reference: forward DP over layers."""
    ways = {u: 1 for u in graph.first_layer}
    order = sorted(graph.node_ids(), key=graph.layer_of)
    for u in order:
        for v in graph.out_neighbors(u):
            ways[v] = ways.get(v, 0) + ways.get(u, 0)
    return sum(ways.get(u, 0) for u in graph.last_layer)


class TestPathEnumeration:
    def test_diamond(self):
        inst = priced_diamond(0.1, 50.0, "L3", 0.3, 7.0, "L1")
        assert count_paths(inst.graph) == 2
        assert enumerate_paths(inst.graph) == [(1, 2, 4), (1, 3, 4)]

    def test_counts_match_enumeration_and_reference(self):
        for seed in (42, 101, 102, 108, 202):
            inst = preset1(seed) if seed != 202 else \
                generate_instance((4, 5, 0.5), seed=202)
            graph = inst.graph
            paths = enumerate_paths(graph)
            assert count_paths(graph) == len(paths) == recount_paths(graph)
            assert paths == sorted(paths)
            assert len(set(paths)) == len(paths)
            first, last = set(graph.first_layer), set(graph.last_layer)
            for p in paths:
                assert p[0] in first and p[-1] in last
                for u, v in zip(p, p[1:]):
                    assert v in graph.out_neighbors(u)

    def test_deep_chain(self):
        graph = generate_instance((1100, 1, 1.0), seed=1).graph
        assert enumerate_paths(graph) == [tuple(u for (u,) in graph.levels)]

    def test_path_cap(self):
        graph = preset1(100).graph
        n = count_paths(graph)
        assert n > 1
        with mock.patch.object(exact, "DEFAULT_PATH_CAP", n - 1), \
                pytest.raises(ResourceCapError,
                              match=f"^graph admits {n} S->D paths, above the cap of {n - 1}$"):
            enumerate_paths(graph)


class TestClosedForms:
    def test_free_ride(self):
        inst = free_ride_line()
        lo_t, lo_c = min_time(inst), min_cost(inst)
        for plan in (lo_t, lo_c):
            assert plan.objectives.time_h == pytest.approx(11.0, abs=1e-9)
            assert plan.objectives.cost == 0.0
            assert plan.solution.charge_plan == {}
        front = epsilon_constraint(inst)
        assert len(front) == 1

    def test_forced_single_stop(self):
        inst = forced_stop_line()
        plan = min_time(inst)
        assert plan.solution.charge_plan[1] == pytest.approx(0.35, abs=1e-9)
        assert plan.objectives.time_h == pytest.approx(17.9, abs=1e-9)
        assert plan.objectives.cost == pytest.approx(4.69, abs=1e-9)
        assert min_cost(inst).objectives.as_tuple() == \
            pytest.approx(plan.objectives.as_tuple(), abs=1e-9)
        # mesh with 0.35 = 14/40 on it reproduces the optimum exactly
        oracle = grid_oracle(inst, grid_n=40)
        assert len(oracle) == 1
        pt = oracle.points[0]
        assert pt.time_h == pytest.approx(17.9, abs=1e-9)
        assert pt.cost == pytest.approx(4.69, abs=1e-9)

    def test_cheap_fast_station_wins_both_objectives(self):
        inst = priced_diamond(0.1, 50.0, "L3", 0.3, 7.0, "L1")
        front = epsilon_constraint(inst)
        assert len(front) == 1
        pt = front.points[0]
        assert pt.time_h == pytest.approx(20.2333333333, abs=1e-6)
        assert pt.cost == pytest.approx(5.1666666667, abs=1e-6)
        assert pt.payload.path == (1, 2, 4)
        assert set(pt.payload.charge_plan) == {2}

    def test_cheap_slow_vs_fast_expensive_tradeoff(self):
        inst = priced_diamond(0.1, 7.0, "L1", 0.3, 50.0, "L3")
        top, bottom = min_time(inst), min_cost(inst)
        assert top.objectives.time_h == pytest.approx(20.2333333333, abs=1e-6)
        assert top.objectives.cost == pytest.approx(15.5, abs=1e-6)
        assert set(top.solution.charge_plan) == {3}
        assert bottom.objectives.cost == pytest.approx(5.1666666667, abs=1e-6)
        assert bottom.objectives.time_h == pytest.approx(26.5809523810, abs=1e-6)
        assert set(bottom.solution.charge_plan) == {2}
        front = epsilon_constraint(inst)
        assert len(front) >= 3
        assert front.points[0].time_h == pytest.approx(top.objectives.time_h, abs=1e-9)
        assert front.points[-1].cost == pytest.approx(bottom.objectives.cost, abs=1e-9)

    def test_exact_ties_break_on_the_other_objective(self):
        # Stations 2 and 3 tie exactly in the primary objective, and the
        # later path, through 3, is better in the other one.
        for stations, solve in (((0.3, 50.0, "L3", 0.1, 50.0, "L3"), min_time),
                                ((0.1, 7.0, "L1", 0.1, 50.0, "L3"), min_cost)):
            plan = solve(priced_diamond(*stations))
            assert plan.solution.path == (1, 3, 4)
            assert plan.objectives.time_h == pytest.approx(20.2333333333, abs=1e-6)
            assert plan.objectives.cost == pytest.approx(5.1666666667, abs=1e-6)

    def test_weighted_optimum_closed_form(self):
        inst = priced_diamond(0.1, 7.0, "L1", 0.3, 50.0, "L3")
        plan = weighted_optimum(inst, (1.0, 1.0))
        assert plan.value == pytest.approx(26.5809523810 + 5.1666666667, abs=1e-6)
        assert set(plan.solution.charge_plan) == {2}
        # degenerate weights reduce to the single objectives
        assert weighted_optimum(inst, (1.0, 0.0)).value == \
            pytest.approx(min_time(inst).objectives.time_h, abs=1e-9)
        assert weighted_optimum(inst, (0.0, 1.0)).value == \
            pytest.approx(min_cost(inst).objectives.cost, abs=1e-9)
        # and on the presets the lexicographic extremes give up nothing of
        # their primary objective to the other one
        for shape in PRESETS.values():
            for seed in (101, 202, 303):
                inst = generate_instance(shape, seed=seed)
                assert min_time(inst).objectives.time_h <= \
                    weighted_optimum(inst, (1.0, 0.0)).objectives.time_h
                assert min_cost(inst).objectives.cost <= \
                    weighted_optimum(inst, (0.0, 1.0)).objectives.cost


def one_path_plan(inst, path, objective, cost_cap=None):
    return exact._best_plan(inst, exact._SubsetTable(inst, [path]), objective,
                            cost_cap=cost_cap)


class TestOptimizePath:
    """The best plan along one fixed path: the global scan over that path
    alone."""

    def test_budget_binds_lp(self):
        # stop 3 alone busts the cap, stop 1 alone overcharges; the LP must
        # split 0.4 / 0.1333 across the two stops and sit on the cap
        inst = priced_diamond(0.1, 7.0, "L1", 0.3, 50.0, "L3")
        plan = one_path_plan(inst, (1, 3, 4), "time", cost_cap=12.0)
        assert plan is not None
        assert plan.objectives.cost == pytest.approx(12.0, abs=1e-6)
        assert plan.objectives.time_h == pytest.approx(22.4848484848, abs=1e-6)
        assert plan.solution.charge_plan[1] == pytest.approx(0.4, abs=1e-6)
        assert plan.solution.charge_plan[3] == pytest.approx(0.1333333333, abs=1e-6)

    def test_impossible_budgets_return_none(self):
        inst = priced_diamond(0.1, 7.0, "L1", 0.3, 50.0, "L3")
        assert one_path_plan(inst, (1, 3, 4), "time", cost_cap=5.0) is None

    def test_unconstrained_matches_global_on_single_path(self):
        inst = forced_stop_line()
        plan = one_path_plan(inst, (1,), "cost")
        assert plan.objectives.as_tuple() == \
            pytest.approx(min_cost(inst).objectives.as_tuple(), abs=1e-9)

    def test_plan_objectives_match_model_evaluation(self):
        inst = priced_diamond(0.1, 7.0, "L1", 0.3, 50.0, "L3")
        plan = weighted_optimum(inst, (2.0, 1.0))
        obj = evaluate(inst, plan.solution)
        assert obj.as_tuple() == pytest.approx(plan.objectives.as_tuple(),
                                               abs=1e-9)
        assert plan.value == pytest.approx(2 * obj.time_h + obj.cost, abs=1e-9)

    def test_validation(self):
        inst = priced_diamond(0.1, 7.0, "L1", 0.3, 50.0, "L3")
        for weights in ((-1.0, 1.0), (math.nan, 1.0), (1.0, math.inf), (0.0, 0.0)):
            with pytest.raises(ValueError, match="finite, nonnegative"):
                weighted_optimum(inst, weights)


def lp_charge_value(inst, table, e, weights, cost_cap, held=None):
    """The charge problem of entry e of table as a linear program over the
    charges, with the rows the exact solver built before its greedy closed
    form; held = (weights, bound) adds the row weights . (time, cost) <=
    bound. Returns HiGHS's value, the most by which its plan breaks a row
    and the amount by which it breaks the cost cap (0.0 without a cap), or
    None when HiGHS finds the problem infeasible."""
    g, params = inst.graph, inst.params
    path = table.paths[table.path[e]]
    z, t0, _, _, time_coef, price_coef = table.entry(e)
    k, r, alpha = len(path), params.range_km, params.initial_soc
    legs = [g.source_dist[path[0]]] + [g.edges[step] for step in zip(path, path[1:])]
    depl = []
    acc = 0.0
    for j in range(k):
        acc += legs[j] + (inst.stations[path[j]].detour_km if j in z else 0.0)
        depl.append(acc / r)
    nv = len(z)
    rows, rhs = [], []
    for j in range(k):
        nvars = bisect_left(z, j)
        if nvars:
            rows.append([-1.0] * nvars + [0.0] * (nv - nvars))
            rhs.append(alpha - depl[j])
    for t, j in enumerate(z):
        rows.append([1.0] * (t + 1) + [0.0] * (nv - t - 1))
        rhs.append(1.0 - alpha + depl[j])
    # Reaching D buys what the whole trip uses beyond alpha, summed in the
    # solver's order: (alpha - depl) - d/r can round an ulp away from it.
    rows.append([-1.0] * nv)
    rhs.append(alpha - (depl[-1] + g.dest_dist[path[-1]] / r))
    if cost_cap is not None:
        rows.append(price_coef)
        rhs.append(cost_cap)
    if held is not None:
        (ht, hc), bound = held
        rows.append([ht * x + hc * y for x, y in zip(time_coef, price_coef)])
        rhs.append(bound - ht * t0)
    wt, wc = weights
    coefs = [wt * x + wc * y for x, y in zip(time_coef, price_coef)]
    status, x, val = solve_lp(coefs, rows, rhs, [1.0] * nv)
    if status != OPTIMAL:
        return None
    excess = max([0.0] + [sum(a * xi for a, xi in zip(row, x)) - b
                          for row, b in zip(rows, rhs)])
    # In exact arithmetic: a break below an ulp of the cap still moves the
    # closed form's answer there.
    cap_excess = 0.0 if cost_cap is None else float(max(0, sum(
        Fraction(c) * Fraction(xi) for c, xi in zip(price_coef, x))
        - Fraction(cost_cap)))
    return wt * t0 + val, excess, cap_excess


def greedy_charge_value(table, e, weights, cost_cap):
    """The closed form's (time, cost) for one entry, or None."""
    solved = exact._charge_solve(table, e, *weights,
                                 float("inf") if cost_cap is None else cost_cap)
    return None if solved is None else solved[:2]


def line_path(alpha, legs, stations):
    """The line of stations 1..k, from S over legs[0] to D over legs[k], at
    initial SOC alpha, and the stop-subset table of its one path."""
    k = len(stations)
    graph = RouteGraph(tuple((u,) for u in range(1, k + 1)),
                       {(u, u + 1): legs[u] for u in range(1, k)},
                       {1: legs[0]}, {k: legs[k]})
    inst = Instance(params=VehicleParams(initial_soc=alpha),
                    stations={s.id: s for s in stations}, graph=graph, seed=0,
                    shape=(k, 1, 1.0))
    return inst, exact._SubsetTable(inst, [tuple(range(1, k + 1))])


@st.composite
def charge_problems(draw):
    """A line of 1-5 stations, one stop subset that can make it feasible,
    an objective, and no cap or, for least time, a cost cap placed around
    the subset's least cost and the cost of its least time."""
    k = draw(st.integers(1, 5))
    alpha = draw(st.floats(0.05, 1.0))
    legs = [draw(st.floats(0.0, 1.0)) * alpha * 600.0]
    legs += [draw(st.floats(0.0, 560.0)) for _ in range(k)]
    power = st.sampled_from([7.0, 22.0, 50.0]) | st.floats(5.0, 150.0)
    price = st.sampled_from([0.1, 0.2, 0.3]) | st.floats(0.05, 0.5)
    inst, table = line_path(alpha, legs, [
        Station(id=u, level="L2", power_kw=draw(power), price=draw(price),
                wait_h=draw(st.floats(0.0, 2.0)),
                detour_km=draw(st.floats(0.0, 60.0)))
        for u in range(1, k + 1)])
    subs = [e for e in range(len(table)) if table.m[e]]
    if not subs:
        return None
    e = draw(st.sampled_from(subs))
    objective = draw(st.sampled_from(["time", "cost", "weighted"]))
    weights = {"time": (1.0, 0.0), "cost": (0.0, 1.0)}.get(objective) or \
        (draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0)))
    verts = table.front(e)
    cmin, cmax = verts[-1][1], verts[0][1]
    cost_cap = None
    # A cost cap serves only the budget rounds, which minimize time.
    if objective == "time" and draw(st.booleans()):
        cost_cap = cmin + draw(st.floats(-0.25, 1.25)) * (cmax - cmin)
    return inst, table, e, objective, weights, cost_cap


def one_ulp_price_tie():
    """Two stops whose prices differ by one ulp, capped at the subset's
    least cost: HiGHS beats the closed form's least time by 3e-3 h with a
    plan that breaks the cap by about 1.5e-18, a hair the closed form's
    exact plan does not take."""
    inst, table = line_path(0.5, [150.0, 150.0, 1.0], [
        Station(id=1, level="L2", power_kw=8.0, price=math.nextafter(0.05, 1),
                wait_h=0.0, detour_km=0.0),
        Station(id=2, level="L2", power_kw=7.0, price=0.05, wait_h=0.0,
                detour_km=0.0)])
    e = next(e for e in range(len(table)) if table.entry(e)[0] == (0, 1))
    return inst, table, e, "time", (1.0, 0.0), float(table.cost_lb[e])


class TestChargeSolveAgainstLp:
    @settings(max_examples=500, deadline=None)
    @given(charge_problems())
    @example(one_ulp_price_tie())
    def test_greedy_matches_highs(self, problem):
        if problem is None:
            return
        inst, table, e, objective, weights, cost_cap = problem
        got = greedy_charge_value(table, e, weights, cost_cap)
        ref = lp_charge_value(inst, table, e, weights, cost_cap)
        if (got is None) != (ref is None):
            # Verdicts may differ only at the boundary: where moving the
            # cap by 1e-9 relative flips the closed form's verdict, or
            # where HiGHS, within its feasibility tolerance, accepts a plan
            # that breaks a row by more than 1e-9 (a battery left a hair
            # below empty to meet a cost cap), which is then no feasible
            # plan the closed form missed.
            def nudged(eps):
                return greedy_charge_value(
                    table, e, weights,
                    None if cost_cap is None else cost_cap + eps * (1 + abs(cost_cap)))
            assert nudged(-1e-9) is None
            assert nudged(1e-9) is not None or ref[1] > 1e-9
        elif got is not None:
            # HiGHS may meet the cost cap only within its tolerance, so its
            # value lies between the closed form's at the cap it met and
            # at the cap asked for.
            wt, wc = weights
            tol = 1e-9 * (1 + abs(ref[0]))
            met = greedy_charge_value(table, e, weights,
                                      None if cost_cap is None else cost_cap + ref[2])
            assert wt * met[0] + wc * met[1] - tol <= ref[0] <= \
                wt * got[0] + wc * got[1] + tol
            if objective != "weighted":
                # The least other objective with the primary held within s
                # of its optimum checks that the closed form is the
                # lexicographic optimum. Moving charge between two stops
                # trades the objectives at the ratio of their coefficients,
                # so the slack buys at most s times the steepest ratio r.
                _, _, _, _, time_coef, price_coef = table.entry(e)
                p, q = ((time_coef, price_coef) if objective == "time"
                        else (price_coef, time_coef))
                r = max([abs(q[i] - q[j]) / abs(p[i] - p[j])
                         for i in range(len(p)) for j in range(len(p)) if p[i] != p[j]],
                        default=0.0)
                s = 1e-9 * (1 + abs(ref[0]))
                second = lp_charge_value(inst, table, e, (wc, wt), cost_cap,
                                         held=(weights, ref[0] + s))
                assert second is not None
                tol = 1e-9 * (1 + abs(second[0]))
                assert second[0] - tol <= wc * got[0] + wt * got[1] <= \
                    second[0] + r * s + tol


def table_rows(table):
    """Every entry of a stop-subset table in reference_subsets' layout,
    led by its path."""
    rows = []
    for e in range(len(table)):
        z, t0, lo, hi, _, _ = table.entry(e)
        rows.append((table.paths[table.path[e]], float(table.time_lb[e]),
                     float(table.cost_lb[e]), z, t0, lo, hi))
    return rows


@st.composite
def table_cases(draw):
    """Generated instances at initial SOC 0 to 1, at ranges where some legs
    block and some paths need no stop, with prices on a coarse grid so that
    stops tie in both coefficients, and with ids shuffled out of layer
    order. At SOC 0 the source legs and the first layer's detours are 0 km,
    so that stopping at the first station can save the path."""
    soc = draw(st.sampled_from([1.0, 0.5, 0.0]))
    params = VehicleParams(initial_soc=soc,
                           km_per_kwh=draw(st.sampled_from([6.0, 3.5, 12.0])))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 3)),
             draw(st.sampled_from([0.5, 1.0])))
    inst = generate_instance(shape, params, seed=draw(st.integers(0, 10**6)))
    g = inst.graph
    if soc == 0.0:
        inst = dataclasses.replace(
            inst, graph=RouteGraph(g.levels, g.edges, dict.fromkeys(g.source_dist, 0.0),
                                   g.dest_dist),
            stations={u: dataclasses.replace(s, detour_km=0.0) if u in g.source_dist else s
                      for u, s in inst.stations.items()})
    if draw(st.booleans()):
        inst = dataclasses.replace(inst, stations={
            u: dataclasses.replace(s, price=round(s.price, 2))
            for u, s in inst.stations.items()})
    if draw(st.booleans()):
        inst = shuffle_ids(inst, draw(st.integers(0, 2**32 - 1)))
    return inst


class TestSubsetTable:
    @settings(max_examples=300, deadline=None)
    @given(table_cases())
    @example(forced_stop_line())
    @example(free_ride_line())
    @example(final_leg_line())
    @example(dead_branch_diamond())
    @example(tight_range_line())
    @example(identical_stops_line())
    @example(priced_diamond(0.1, 7.0, "L1", 0.3, 50.0, "L3"))
    @example(one_ulp_price_tie()[0])
    def test_equals_scalar_walk(self, inst):
        # order, stops, t0, lo, hi and both greedy bounds, bit
        # for bit (repr tells every float apart, -0.0 from 0.0 too)
        paths = enumerate_paths(inst.graph)
        table = exact._prepare(inst)
        assert table.paths == paths
        want = [(path,) + row for path in paths for row in reference_subsets(inst, path)]
        assert repr(table_rows(table)) == repr(want)

    def test_blocked_paths_have_no_entries(self):
        inst = dead_branch_diamond()
        table = exact._prepare(inst)
        assert table.paths == [(1, 2, 4), (1, 3, 4)]
        assert table.blocked.tolist() == [-1, 1]
        assert set(table.path.tolist()) == {0}


# sha256 of write_front_csv for epsilon_constraint on every preset, as
# Python 3.10 and 3.11 write it; exact's sums run left to right, so that
# every Python version writes the same bytes.
EPS_FRONT_SHA256 = {
    ("instance1", 101): "9b2df661366bfb69c06c8a65bd5897a4048eeec01c70cbc4853562886b14c26e",
    ("instance1", 202): "060ae238e4994fb58f6d3bcfc67fbf06de3e6749fdada4cb00d9feaed30993ac",
    ("instance1", 303): "819184c15bf745cbca719ae78752344a9bdc0d4cea6dfd33d7adad94ae30ef19",
    ("instance2", 101): "8c58db144f9b4192d8b35f3c3a116d22683870da46a9af862f68f58f49d3b486",
    ("instance2", 202): "ada2b0c473aeba0723e5df8a20769de2473321c6d422cffc95da77f73186885f",
    ("instance2", 303): "3ed27f5dc2f03c0eeafde7c860633ee3ef458a32976d0f3105d990f9ec12f25c",
    ("instance3", 101): "2f95e67ad56233c9361f78ad9125c50715ada71643475dcd9514967a9bc3f82f",
    ("instance3", 202): "f2af2c0d46beb807b656a3df2320ff030e16343719ddd6e61f3c758bb4afa277",
    ("instance3", 303): "dc56f8e6bcd39c28fcf6745ed911526b09da2996359399610465afe04cd86b76",
    ("instance4", 101): "450a4f29f1523b88fe698e579e640cf7424b29edd2a97a4f9d70d1c103c771d1",
    ("instance4", 202): "01f0c67ff59a7cc2af383416a30d4fd93fef5aeb2cfaebb75c1131a94e1c9a7c",
    ("instance4", 303): "8ffd8821376270ba8fb3ddcb52ad5bb62000ef1fa6c8358aecf5721e54a3a987",
}


class TestEpsilonConstraint:
    @pytest.mark.parametrize("preset, seed", sorted(EPS_FRONT_SHA256))
    def test_preset_csv_bytes(self, preset, seed, tmp_path):
        out = tmp_path / "front.csv"
        write_front_csv(epsilon_constraint(generate_instance(PRESETS[preset], seed=seed)), out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == EPS_FRONT_SHA256[preset, seed]

    def test_front_shape_invariants(self):
        for seed in (101, 102, 108):
            inst = preset1(seed)
            front = list(epsilon_constraint(inst))
            times = [p.time_h for p in front]
            costs = [p.cost for p in front]
            assert times == sorted(times)
            assert all(b < a for a, b in zip(costs, costs[1:]))
            for i, p in enumerate(front):
                for q in front[i + 1:]:
                    assert not dominates(p, q) and not dominates(q, p)
            top, bottom = min_time(inst), min_cost(inst)
            assert (times[0], costs[0]) == (top.objectives.time_h,
                                            top.objectives.cost)
            assert (times[-1], costs[-1]) == (bottom.objectives.time_h,
                                              bottom.objectives.cost)

    def test_each_point_is_evaluable_and_matches(self):
        inst = preset1(101)
        for p in epsilon_constraint(inst):
            obj = evaluate(inst, p.payload)
            assert obj.time_h == pytest.approx(p.time_h, abs=1e-9)
            assert obj.cost == pytest.approx(p.cost, abs=1e-9)

    def test_smaller_delta_refines(self):
        inst = priced_diamond(0.1, 7.0, "L1", 0.3, 50.0, "L3")
        coarse = epsilon_constraint(inst, delta=3.0)
        fine = epsilon_constraint(inst, delta=0.25)
        assert len(fine) >= len(coarse)

    def test_huge_delta_keeps_extremes(self):
        inst = priced_diamond(0.1, 7.0, "L1", 0.3, 50.0, "L3")
        front = epsilon_constraint(inst, delta=1e9)
        assert len(front) == 2

    def test_deterministic(self):
        inst = preset1(108)
        a = [(p.time_h, p.cost) for p in epsilon_constraint(inst)]
        b = [(p.time_h, p.cost) for p in epsilon_constraint(inst)]
        assert a == b

    def test_validation(self):
        inst = free_ride_line()
        with pytest.raises(ValueError, match="delta"):
            epsilon_constraint(inst, delta=0.0)
        with pytest.raises(ValueError, match="delta"):
            epsilon_constraint(inst, delta=math.nan)
        # A delta that would plan more rounds x subsets than the evaluation
        # cap stops before the sweep, also where the count overflows a float.
        inst = priced_diamond(0.1, 7.0, "L1", 0.3, 50.0, "L3")
        for delta in (1e-12, 1e-320):
            with pytest.raises(ResourceCapError, match="budget sweep"):
                epsilon_constraint(inst, delta=delta)


@st.composite
def oracle_cases(draw):
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
             draw(st.sampled_from([0.5, 1.0])))
    params = VehicleParams(initial_soc=draw(st.sampled_from([1.0, 0.5, 0.2])),
                           km_per_kwh=draw(st.sampled_from([2.0, 3.0, 6.0])))
    inst = generate_instance(shape, params, seed=draw(st.integers(0, 10**6)))
    return inst, draw(st.integers(1, 6))


class TestOracleSandwich:
    def test_two_sided_bound_on_seeded_instance(self):
        inst = preset1(102)
        front = list(epsilon_constraint(inst))
        hi = front[0].cost
        lo = front[-1].cost
        delta = (hi - lo) / 20.0 if hi - lo > 1e-9 else 0.0
        oracle = list(grid_oracle(inst, grid_n=25))
        max_price = max(s.price for s in inst.stations.values())
        cost_tol = (1 / 25) * inst.params.capacity_kwh * max_price + 1e-4
        time_tol = 2e-5  # SOC tolerance shell, see model feasibility slack
        # oracle never beats the exact front by more than the shell
        for p in front:
            for q in oracle:
                if dominates(q, p):
                    assert p.time_h - q.time_h <= time_tol
                    assert p.cost - q.cost <= cost_tol
        # every oracle point is nearly covered by some exact point
        for q in oracle:
            assert any(p.time_h <= q.time_h + 1e-6
                       and p.cost <= q.cost + delta + 1e-6 for p in front)

    def test_oracle_front_is_nondominated_and_sorted(self):
        inst = preset1(102)
        oracle = list(grid_oracle(inst, grid_n=15))
        times = [p.time_h for p in oracle]
        assert times == sorted(times)
        for i, p in enumerate(oracle):
            for q in oracle[i + 1:]:
                assert not dominates(p, q) and not dominates(q, p)

    def test_full_charge_mesh_only_keeps_transit(self):
        # grid_n=1 means every active stop charges to exactly 1.0, which
        # always overcharges here, so only the pure transit plan survives
        oracle = grid_oracle(free_ride_line(), grid_n=1)
        assert [(p.time_h, p.cost) for p in oracle] == [(11.0, 0.0)]

    @pytest.mark.parametrize("chunk", [exact.ORACLE_CHUNK, 7])
    @settings(max_examples=40, deadline=None)
    @given(oracle_cases())
    @example((generate_instance((2, 2, 1.0), VehicleParams(km_per_kwh=3.0), seed=5), 1))
    @example((identical_stops_line(), 10))
    @example((priced_diamond(0.1, 7.0, "L1", 0.3, 50.0, "L3"), 10))
    def test_equals_scalar_reference(self, chunk, case):
        # points, payloads and order, with chunk 7 crossing chunk boundaries;
        # the diamond's front has many points, and on the identical stops
        # near-ties collapse to the earliest candidate
        inst, grid_n = case
        with mock.patch.object(exact, "ORACLE_CHUNK", chunk):
            got = grid_oracle(inst, grid_n=grid_n)
        assert [repr(p) for p in got] == [repr(p) for p in reference_oracle(inst, grid_n)]

    def test_prefixes_dying_at_the_first_stop(self):
        inst = tight_range_line()
        front, steps = traced_oracle(inst, 20)
        first = model.PlanArrays(inst).pos[1]
        rows = sum(n for u, n, _ in steps if u == first)
        alive = sum(a for u, _, a in steps if u == first)
        assert alive < rows // 4
        # dropped rows are never advanced again: the full mesh would take
        # 3 * 21 ** 3 row steps
        assert sum(n for _, n, _ in steps) < 3 * 21 ** 3 // 10
        assert len(front) > 1
        assert [repr(p) for p in front] == [repr(p) for p in reference_oracle(inst, 20)]

    def test_only_the_final_soc_check_fails(self):
        inst = final_leg_line()
        front, steps = traced_oracle(inst, 30)
        assert all(n == a for _, n, a in steps)
        codes = set()
        for y in [0.0] + [m / 30 for m in range(1, 31)]:
            codes |= {v.constraint for v in _soc_scan(inst, (1,), {1: y})[2]}
        assert codes == {"c15"}
        assert [repr(p) for p in front] == [repr(p) for p in reference_oracle(inst, 30)]

    def test_every_row_dies_before_the_last_layer(self):
        inst = dead_branch_diamond()
        front, steps = traced_oracle(inst, 10)
        dead = model.PlanArrays(inst).pos[3]
        assert [a for u, _, a in steps if u == dead] and \
            all(a == 0 for u, _, a in steps if u == dead)
        assert front and all(p.payload.path == (1, 2, 4) for p in front)
        assert [repr(p) for p in front] == [repr(p) for p in reference_oracle(inst, 10)]

    @pytest.mark.parametrize("make", [
        identical_stops_line, tight_range_line,
        lambda: priced_diamond(0.1, 7.0, "L1", 0.3, 50.0, "L3")])
    def test_one_prefix_per_block(self, make):
        # a chunk below grid_n + 1 leaves one prefix per block, so no step
        # advances more than grid_n + 1 rows
        inst = make()
        front, steps = traced_oracle(inst, 10, chunk=3)
        assert max(n for _, n, _ in steps) == 11
        assert [repr(p) for p in front] == [repr(p) for p in reference_oracle(inst, 10)]

    def test_cap_checked_before_any_array(self):
        with pytest.raises(ResourceCapError, match="cap"):
            grid_oracle(preset1(108), grid_n=10**9)

    def test_cap_checked_before_any_path(self):
        # the candidate count follows from the path count and the layers
        with mock.patch.object(exact, "enumerate_paths", side_effect=AssertionError):
            with pytest.raises(ResourceCapError, match="cap"):
                grid_oracle(preset1(108), grid_n=10**9)

    def test_resource_caps(self):
        # 2 paths * 201 ** 3 candidates exceed DEFAULT_EVAL_CAP
        inst = priced_diamond(0.1, 7.0, "L1", 0.3, 50.0, "L3")
        with pytest.raises(ResourceCapError, match="cap"):
            grid_oracle(inst, grid_n=200)
        with pytest.raises(ValueError, match="grid_n"):
            grid_oracle(inst, grid_n=0)


class TestInfeasibleDiagnosis:
    def test_uncrossable_leg_named(self):
        graph = RouteGraph(((1,),), {}, {1: 700.0}, {1: 100.0})
        inst = Instance(params=VehicleParams(),
                        stations={1: station(1, 0.134, 50.0, "L3")},
                        graph=graph, seed=0, shape=(1, 1, 1.0))
        with pytest.raises(InfeasibleInstanceError, match="S->1"):
            min_time(inst)
        with pytest.raises(InfeasibleInstanceError, match="cannot be crossed"):
            min_cost(inst)
        with pytest.raises(InfeasibleInstanceError):
            epsilon_constraint(inst)
        with pytest.raises(InfeasibleInstanceError):
            weighted_optimum(inst, (1.0, 1.0))

    def test_detour_trap_is_infeasible(self):
        # every leg fits the range, but charging at 2 adds a detour that
        # does not fit, and skipping the charge strands the final leg
        graph = RouteGraph(((1,), (2,)), {(1, 2): 599.0}, {1: 400.0},
                           {2: 10.0})
        stations = {1: station(1, 0.1, 50.0, "L3"),
                    2: station(2, 0.1, 50.0, "L3")}
        inst = Instance(params=VehicleParams(), stations=stations,
                        graph=graph, seed=0, shape=(2, 1, 1.0))
        with pytest.raises(InfeasibleInstanceError, match="no feasible"):
            min_time(inst)
