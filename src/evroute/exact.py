"""Exact bi-objective solvers.

For a fixed path and a fixed set of charging stops, the remaining problem
(how much to buy where) is the fixed-stop gas-station problem, which a greedy
solves exactly. A cost cap makes it parametric in the weight between time
and cost: a walk over the weights at which two stops swap price order
gives each subset's (time, cost) front, and the least time within the cap
is the first point of that front whose cost meets it.
Global optima come from one scan over every path's stop subsets, and the
budget-sweep front sampler builds on that; HiGHS, through
`lp.solve_lp`, is the test reference. The brute-force grid oracle instead
grows one charge mesh per path, station by station, through
model.PlanArrays' SOC step; a zero charge drives past the station, so the
mesh also covers every stop subset. Each charge vector is dropped at its
first bound violation, which is never undone.

min_time/min_cost and every budget round are exact lexicographic optima
with no slack: one scan keeps the best (primary, other objective) pair, so
the primary is never traded for the other and every reported point is
genuinely nondominated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .instance import Instance, RouteGraph
# Unused here; perfbench's traced run wraps evroute.exact.solve_lp by this name.
from .lp import solve_lp  # noqa: F401
from .model import CHARGE_EPS, SOLVER_SOC_SLACK, Objectives, RouteSolution
from .pareto import FrontPoint, ParetoFront, filter_nondominated, staircase

DEFAULT_PATH_CAP = 10**6
DEFAULT_EVAL_CAP = 10**7
TIE_TOL = 1e-9
# (time, cost) weights of the primary and the secondary objective.
_LEX = {"time": ((1.0, 0.0), (0.0, 1.0)), "cost": ((0.0, 1.0), (1.0, 0.0))}
# Slack of a subset's least cost against a budget round's cost cap.
_CAP_SLACK = 1e-9
_INF = float("inf")
# Most rows grid_oracle grows in one array call, small enough to stay in cache.
ORACLE_CHUNK = 1 << 13


class ResourceCapError(RuntimeError):
    pass


class InfeasibleInstanceError(RuntimeError):
    pass


def count_paths(graph: RouteGraph) -> int:
    """Number of S->D paths, by dynamic programming over the DAG."""
    last = set(graph.last_layer)
    counts: dict[int, int] = {}
    for layer in reversed(graph.levels):
        for u in layer:
            if u in last:
                counts[u] = 1
            else:
                counts[u] = sum(counts[v] for v in graph.out_neighbors(u))
    return sum(counts[u] for u in graph.first_layer)


def enumerate_paths(graph: RouteGraph) -> list[tuple[int, ...]]:
    """All S->D paths in lexicographic node-id order.

    Raises ResourceCapError before materializing anything when the DAG
    admits more than DEFAULT_PATH_CAP paths.
    """
    total = count_paths(graph)
    if total > DEFAULT_PATH_CAP:
        raise ResourceCapError(f"graph admits {total} S->D paths, "
                               f"above the cap of {DEFAULT_PATH_CAP}")
    last = set(graph.last_layer)
    paths: list[tuple[int, ...]] = []

    def walk(prefix: tuple[int, ...], u: int) -> None:
        if u in last:
            paths.append(prefix)
            return
        for v in graph.out_neighbors(u):
            walk(prefix + (v,), v)

    for s in sorted(graph.first_layer):
        walk((s,), s)
    return paths


class _PathData:
    """Per-path constants, and per stop subset the data that every charge
    solve of one exact solve shares."""

    __slots__ = ("path", "k", "legs", "d_dest", "delta", "stop_time",
                 "price_coef", "time_coef", "drive_time", "r", "alpha",
                 "subsets", "fronts")

    def __init__(self, instance: Instance, path: tuple[int, ...]):
        g = instance.graph
        p = instance.params
        self.path = path
        self.k = len(path)
        self.legs = [g.source_dist[path[0]]]
        self.legs += [g.edges[(path[i - 1], path[i])] for i in range(1, self.k)]
        self.d_dest = g.dest_dist[path[-1]]
        stations = [instance.stations[u] for u in path]
        self.delta = [s.detour_km for s in stations]
        self.stop_time = [s.detour_km / p.speed_kmh + s.wait_h for s in stations]
        self.price_coef = [p.capacity_kwh * s.price for s in stations]
        self.time_coef = [p.capacity_kwh / s.power_kw for s in stations]
        self.drive_time = (sum(self.legs) + self.d_dest) / p.speed_kmh
        self.r = p.range_km
        self.alpha = p.initial_soc
        self.subsets = [] if self.blocked_leg() is not None else self._subsets()
        self.fronts: dict[tuple[int, ...], list] = {}

    def blocked_leg(self) -> int | None:
        """Index of the first leg (0 leaves S, k enters D) that a full
        battery at every station cannot cross, or None. No stop subset can
        make a path with such a leg feasible."""
        full = [self.alpha] + [1.0] * self.k
        return next((j for j, d in enumerate(self.legs + [self.d_dest])
                     if d > full[j] * self.r + SOLVER_SOC_SLACK * self.r), None)

    def _subsets(self) -> list[tuple]:
        """(time_lb, cost_lb, z, t0, lo, hi) for every stop subset z that
        can make the path feasible, by size and then lexicographically.

        t0 is the trip time without charging time; lo[t] <= Y[t] <= hi[t]
        bound the battery fraction Y[t] bought up to the t-th stop of z;
        time_lb and cost_lb are the subset's least time and least cost.
        """
        k, r, alpha = self.k, self.r, self.alpha
        found = []

        # Charging to the brim at every chosen stop maximizes every prefix
        # SOC, so this greedy pass decides subset feasibility; a depth-first
        # walk shares it between subsets with a common prefix. depl is the
        # battery used up to a node, its stop detour included.
        def walk(j: int, acc: float, prev: float, soc: float,
                 z: tuple[int, ...], depl_z: tuple[float, ...]) -> None:
            if j == k:
                if soc - self.d_dest / r >= -SOLVER_SOC_SLACK:
                    found.append((z, depl_z, prev))
                return
            for stop in (False, True):
                a = acc + (self.legs[j] + (self.delta[j] if stop else 0.0))
                depl = a / r
                left = soc - (depl - prev)
                if left < -SOLVER_SOC_SLACK:
                    continue
                if stop:
                    walk(j + 1, a, depl, 1.0, z + (j,), depl_z + (depl,))
                else:
                    walk(j + 1, a, depl, left, z, depl_z)

        walk(0, 0.0, 0.0, alpha, (), ())
        found.sort(key=lambda f: (len(f[0]), f[0]))
        out = []
        for z, depl_z, depl_end in found:
            t0 = self.drive_time + sum(self.stop_time[j] for j in z)
            need = max(0.0, depl_end + self.d_dest / r - alpha)
            # Arriving at the next stop (or D) must not run below empty;
            # leaving a stop must not run above full.
            lo = [max(0.0, d - alpha) for d in depl_z[1:]] + [need]
            hi = [1.0 - alpha + d for d in depl_z]
            # The least time and the least cost, each by one greedy; with
            # the cap they decide most capped solves without the front.
            a = [self.time_coef[j] for j in z]
            b = [self.price_coef[j] for j in z]
            time_lb = t0 + _dot(a, _greedy(lo, hi, list(zip(a, b))))
            cost_lb = _dot(b, _greedy(lo, hi, list(zip(b, a))))
            out.append((time_lb, cost_lb, z, t0, lo, hi))
        return out

    def front(self, z: tuple[int, ...], lo: list[float], hi: list[float]) -> list:
        """The subset's (time, cost) Pareto front as vertices (A, B, ys) from
        least charging time A to least cost B, where ys are the charges.

        Each vertex is the greedy plan for the stop prices (1 - s) * time
        + s * cost with s between two of the weights at which two stops
        swap price order (a parametric LP, Ehrgott 2005)."""
        verts = self.fronts.get(z)
        if verts is not None:
            return verts
        a = [self.time_coef[j] for j in z]
        b = [self.price_coef[j] for j in z]
        m = len(z)
        cuts = sorted({(a[j] - a[i]) / ((a[j] - a[i]) - (b[j] - b[i]))
                       for i in range(m) for j in range(i + 1, m)
                       if (a[j] - a[i]) * (b[j] - b[i]) < 0})
        keys = [list(zip(a, b))]
        for s0, s1 in zip(cuts, cuts[1:]):
            s = 0.5 * (s0 + s1)
            keys.append([(1.0 - s) * x + s * y for x, y in zip(a, b)])
        keys.append(list(zip(b, a)))
        verts = []
        for key in keys:
            ys = _greedy(lo, hi, key)
            v = (_dot(a, ys), _dot(b, ys), ys)
            if not verts or v[:2] != verts[-1][:2]:
                verts.append(v)
        self.fronts[z] = verts
        return verts


def _greedy(lo: list[float], hi: list[float], key: list) -> list[float]:
    """Cheapest charges within lo <= cumulative charge <= hi for stop prices
    ordered by key: each stop buys what reaches the next cheaper stop or D,
    within a full battery (Khuller, Malekian, Mestre, TALG 2011)."""
    m = len(key)
    ys = []
    prev = 0.0
    for t in range(m):
        n = next((s for s in range(t + 1, m) if key[s] < key[t]), m)
        cum = max(min(lo[n - 1], hi[t], prev + 1.0), lo[t], prev)
        ys.append(cum - prev)
        prev = cum
    return ys


def _dot(xs: list[float], ys: list[float]) -> float:
    return sum(x * y for x, y in zip(xs, ys))


def _first_within(verts: list, cap: float) -> tuple | None:
    """The first point along the polyline verts whose cost is at most cap,
    interpolated on the segment that crosses the cap."""
    prev = None
    for v in verts:
        if v[1] <= cap:
            if prev is None:
                return v
            th = (prev[1] - cap) / (prev[1] - v[1])
            return (prev[0] + th * (v[0] - prev[0]), prev[1] + th * (v[1] - prev[1]),
                    [p + th * (q - p) for p, q in zip(prev[2], v[2])])
        prev = v
    return None


def _charge_solve(pd: _PathData, sub: tuple, wt: float, wc: float,
                  cost_cap: float) -> tuple[float, float, list[float]] | None:
    """The best charges of one entry of pd.subsets, as (time, cost,
    charges), or None; the entry's lower bounds have already checked the
    cap of the empty subset.

    Without a cap, best is least (wt * time + wc * cost, time, cost). Under
    a finite cost_cap it is least time, then least cost, with cost at most
    cost_cap, whatever the weights: the first point of the subset's front
    where the cap holds."""
    _, _, z, t0, lo, hi = sub
    if not z:
        return t0, 0.0, []
    if cost_cap == _INF:
        # Without a cap one greedy at the objective's prices is optimal,
        # with ties broken as the front's ends break them.
        a = [pd.time_coef[j] for j in z]
        b = [pd.price_coef[j] for j in z]
        ys = _greedy(lo, hi, [(wt * x + wc * y, x, y) for x, y in zip(a, b)])
        return t0 + _dot(a, ys), _dot(b, ys), ys
    first = _first_within(pd.front(z, lo, hi), cost_cap)
    if first is None:
        return None
    a, b, ys = first
    return t0 + a, b, ys


def _better(key: tuple[float, float], best: tuple[float, float]) -> bool:
    """Whether key beats best lexicographically: its primary is lower by
    more than TIE_TOL, or ties within TIE_TOL and its secondary is lower by
    more than TIE_TOL."""
    return key[0] < best[0] - TIE_TOL or (
        key[0] <= best[0] + TIE_TOL and key[1] < best[1] - TIE_TOL)


@dataclass(frozen=True)
class PathPlan:
    objectives: Objectives
    solution: RouteSolution
    value: float


def _best_plan(instance: Instance, pdatas: list[_PathData], objective: str,
               weights: tuple[float, float] | None = None,
               cost_cap: float | None = None) -> PathPlan | None:
    """The best plan over every stop subset of every path, in one scan.

    "time" and "cost" are lexicographic: least primary objective, then
    least other objective among its ties. "weighted" minimizes
    weights[0] * time + weights[1] * cost with no secondary, so the first
    of tied subsets wins. Ties that survive break toward the earlier path,
    then fewer stops, then the lexicographically smaller subset. A
    cost_cap is for "time" only, the budget rounds of epsilon_constraint.
    """
    if objective == "weighted":
        (wt, wc), (st, sc) = model.check_weights(weights), (0.0, 0.0)
    else:
        (wt, wc), (st, sc) = _LEX[objective]
    ccap = _INF if cost_cap is None else cost_cap
    best_key = (_INF, _INF)
    best = None
    for pd in pdatas:
        for sub in pd.subsets:
            time_lb, cost_lb = sub[0], sub[1]
            if cost_lb > ccap + _CAP_SLACK or not _better(
                    (wt * time_lb + wc * cost_lb, st * time_lb + sc * cost_lb), best_key):
                continue
            solved = _charge_solve(pd, sub, wt, wc, ccap)
            if solved is None:
                continue
            t, c, ys = solved
            key = (wt * t + wc * c, st * t + sc * c)
            if _better(key, best_key):
                best_key, best = key, (pd.path, sub[2], ys)

    if best is None:
        return None
    path, z, ys = best
    plan = {path[j]: y for j, y in zip(z, ys) if y > CHARGE_EPS}
    sol = RouteSolution(path=path, charge_plan=plan)
    obj = model.evaluate(instance, sol)
    return PathPlan(objectives=obj, solution=sol, value=wt * obj.time_h + wc * obj.cost)


def _prepare(instance: Instance) -> list[_PathData]:
    return [_PathData(instance, p) for p in enumerate_paths(instance.graph)]


def _diagnose(pdatas: list[_PathData]) -> str:
    if not pdatas:
        return "no S->D path exists in the graph"
    pd = pdatas[0]
    j = pd.blocked_leg()
    if j is None:
        return "no feasible charge plan on any path"
    names = ["S"] + [str(u) for u in pd.path] + ["D"]
    return (f"no feasible charge plan on any path; on path "
            f"{'-'.join(str(u) for u in pd.path)} the leg "
            f"{names[j]}->{names[j + 1]} ({(pd.legs + [pd.d_dest])[j]:.1f} km) "
            f"cannot be crossed even charging to full at every station")


def _global_optimum(instance: Instance, objective: str,
                    weights: tuple[float, float] | None = None) -> PathPlan:
    pdatas = _prepare(instance)
    plan = _best_plan(instance, pdatas, objective, weights)
    if plan is None:
        raise InfeasibleInstanceError(_diagnose(pdatas))
    return plan


def min_time(instance: Instance) -> PathPlan:
    """Global time-optimal plan, with cost minimized among its ties."""
    return _global_optimum(instance, "time")


def min_cost(instance: Instance) -> PathPlan:
    """Global cost-optimal plan, with time minimized among its ties."""
    return _global_optimum(instance, "cost")


def weighted_optimum(instance: Instance, weights: tuple[float, float]) -> PathPlan:
    """Global optimum of weights[0] * time_h + weights[1] * cost."""
    return _global_optimum(instance, "weighted", weights)


def _point(plan: PathPlan) -> FrontPoint:
    return FrontPoint(time_h=plan.objectives.time_h, cost=plan.objectives.cost,
                      payload=plan.solution)


def epsilon_constraint(instance: Instance, delta: float | None = None) -> ParetoFront:
    """A budget-step sample of the Pareto front, by a budget sweep.

    Solves for least time unconstrained, then repeatedly re-solves it under
    a cost budget, tightening the budget just below the latest solution's
    cost minus delta until the sweep passes the least-cost extreme or goes
    infeasible. delta=None uses a twentieth of the observed cost range.
    """
    pdatas = _prepare(instance)
    top = _best_plan(instance, pdatas, "time")
    if top is None:
        raise InfeasibleInstanceError(_diagnose(pdatas))
    bottom = _best_plan(instance, pdatas, "cost")
    points = [_point(top), _point(bottom)]

    hi, lo = top.objectives.cost, bottom.objectives.cost
    if delta is None:
        if hi - lo <= TIE_TOL:
            return filter_nondominated(points)
        delta = (hi - lo) / 20.0
    if not delta > 0:
        raise ValueError("delta must be > 0")

    planned = (hi - lo) / delta
    entries = sum(len(pd.subsets) for pd in pdatas)
    if planned * entries > DEFAULT_EVAL_CAP:
        raise ResourceCapError(
            f"budget sweep would run about {planned:.3g} rounds over {entries} "
            f"stop subsets, above the cap of {DEFAULT_EVAL_CAP}")
    eps = hi - delta
    for _ in range(int(planned) + 10):
        if eps < lo - TIE_TOL:
            break
        plan = _best_plan(instance, pdatas, "time", cost_cap=eps)
        if plan is None:
            break
        points.append(_point(plan))
        eps = min(eps, plan.objectives.cost) - delta
    return filter_nondominated(points)


def grid_oracle(instance: Instance, grid_n: int = 50) -> ParetoFront:
    """Brute-force reference front: every path, and every charge vector on
    the {0, 1/grid_n, ..., 1} mesh at its stations, filtered to the
    nondominated set. A zero charge drives past the station.

    Each path's mesh grows one station at a time through
    model.PlanArrays.step: every layer repeats each surviving row once per
    mesh value, last digit fastest, so rows stay in itertools.product
    order. A row whose penalty turns positive is dropped; the penalty never
    decreases, so it could only end infeasible. Growth is depth-first in
    blocks of max(1, ORACLE_CHUNK // (grid_n + 1)) prefixes, so no level
    holds more than max(ORACLE_CHUNK, grid_n + 1) rows. The feasible rows
    that pareto.staircase keeps within their block become points in
    enumeration order, so the result is filter_nondominated over every
    feasible candidate in enumeration order, with the floats evaluate()
    gives.

    Raises ResourceCapError, before any path is listed, when the mesh would
    exceed DEFAULT_EVAL_CAP candidates.
    """
    if grid_n < 1:
        raise ValueError("grid_n must be >= 1")
    # Every S->D path visits one station per layer.
    width = grid_n + 1
    total = count_paths(instance.graph) * width ** len(instance.graph.levels)
    if total > DEFAULT_EVAL_CAP:
        raise ResourceCapError(
            f"grid oracle would evaluate about {total} candidates, "
            f"above the cap of {DEFAULT_EVAL_CAP}")
    arrays = model.PlanArrays(instance)
    mesh = np.arange(width) / grid_n
    block = max(1, ORACLE_CHUNK // width)
    charge = np.tile(mesh, block)
    digit = np.tile(np.arange(width), block)
    points: list[FrontPoint] = []

    def walk(path, nodes, state, ids, j):
        # state and ids, each row's index into the path's mesh, hold the
        # rows alive after layers 0..j-1.
        if not len(ids):
            return
        if j == len(nodes):
            penalty, time, cost = arrays.arrive(state, nodes[-1])
            ok = np.flatnonzero(penalty == 0.0)
            digits = np.unravel_index(ids[ok], (width,) * len(nodes))
            for i in np.sort(staircase(time[ok], cost[ok])).tolist():
                plan = {u: float(mesh[d[i]]) for u, d in zip(path, digits) if d[i]}
                points.append(FrontPoint(float(time[ok[i]]), float(cost[ok[i]]),
                                         RouteSolution(path=path, charge_plan=plan)))
            return
        for start in range(0, len(ids), block):
            part = slice(start, start + block)
            rows = ids[part]
            size = width * len(rows)
            rows = np.repeat(rows * width, width) + digit[:size]
            rstate = tuple(np.repeat(a[part], width) for a in state)
            rstate = arrays.step(rstate, nodes[j - 1] if j else None, nodes[j], charge[:size])
            alive = rstate[3] == 0.0
            walk(path, nodes, tuple(a[alive] for a in rstate), rows[alive], j + 1)

    for path in enumerate_paths(instance.graph):
        nodes = [arrays.pos[u] for u in path]
        first = tuple(np.full(1, v) for v in arrays.start(nodes))
        walk(path, nodes, first, np.zeros(1, dtype=np.int64), 0)
    return filter_nondominated(points)
