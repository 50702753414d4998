"""Exact bi-objective solvers.

For a fixed path and a fixed set of charging stops, the remaining problem
(how much to buy where) is the fixed-stop gas-station problem, which a greedy
solves exactly. A cap on the other objective makes it parametric in the
weight between time and cost: a walk over the weights at which two stops
swap price order gives each subset's (time, cost) front, and a capped
optimum lies on it. Global optima come from enumerating paths and stop
subsets. The budget-sweep front sampler and the brute-force grid oracle
both build on that; HiGHS, through `lp.solve_lp`, is the test reference.

min_time/min_cost and every budget round are lexicographic: they minimize
the primary objective, then the other objective among primary-optimal
solutions, so every reported point is genuinely nondominated.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import model
from .instance import Instance, RouteGraph
# Unused here; perfbench's traced run wraps evroute.exact.solve_lp by this name.
from .lp import solve_lp  # noqa: F401
from .model import CHARGE_EPS, Objectives, RouteSolution
from .pareto import FrontPoint, ParetoFront, filter_nondominated

DEFAULT_PATH_CAP = 10**6
DEFAULT_EVAL_CAP = 10**7
TIE_TOL = 1e-9
LEX_SLACK = 1e-9
_CAP_SLACK = 1e-9
_INF = float("inf")


class PathCountError(RuntimeError):
    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"graph admits {count} S->D paths, above the cap of {cap}")


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


def enumerate_paths(graph: RouteGraph, cap: int = DEFAULT_PATH_CAP) -> list[tuple[int, ...]]:
    """All S->D paths in lexicographic node-id order.

    Raises PathCountError before materializing anything when the DAG admits
    more than cap paths.
    """
    total = count_paths(graph)
    if total > cap:
        raise PathCountError(total, cap)
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
        self.subsets = [] if self.quick_reject() else self._subsets()
        self.fronts: dict[tuple[int, ...], list] = {}

    def quick_reject(self) -> bool:
        """Necessary conditions no charging subset can fix."""
        if self.legs[0] > self.alpha * self.r + _CAP_SLACK * self.r:
            return True
        return any(d > self.r + _CAP_SLACK * self.r for d in self.legs[1:] + [self.d_dest])

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
                if soc - self.d_dest / r >= -1e-9:
                    found.append((z, depl_z, prev))
                return
            for stop in (False, True):
                a = acc + (self.legs[j] + (self.delta[j] if stop else 0.0))
                depl = a / r
                left = soc - (depl - prev)
                if left < -1e-9:
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
            # the caps they decide most capped solves without the front.
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


def _first_within(verts: list, c: int, cap: float) -> tuple | None:
    """The first point along the polyline verts whose coordinate c is at
    most cap, interpolated on the segment that crosses the cap."""
    prev = None
    for v in verts:
        if v[c] <= cap:
            if prev is None:
                return v
            th = (prev[c] - cap) / (prev[c] - v[c])
            return (prev[0] + th * (v[0] - prev[0]), prev[1] + th * (v[1] - prev[1]),
                    [p + th * (q - p) for p, q in zip(prev[2], v[2])])
        prev = v
    return None


def _charge_solve(pd: _PathData, sub: tuple, wt: float, wc: float,
                  cost_cap: float, time_cap: float) -> tuple[float, list[float]] | None:
    """Least wt * time + wc * cost over the charges of one entry of
    pd.subsets within the caps, as (value, charges), or None; the entry's
    lower bounds have already checked the caps of the empty subset.

    With nonnegative weights a capped optimum is Pareto optimal, so it lies
    on the subset's front, between the point where the cost cap starts to
    hold and the point where the time cap stops holding."""
    _, _, z, t0, lo, hi = sub
    if not z:
        return wt * t0, []
    if cost_cap == _INF and time_cap == _INF:
        # Without caps one greedy at the objective's prices is optimal,
        # with ties broken as the front's ends break them.
        a = [pd.time_coef[j] for j in z]
        b = [pd.price_coef[j] for j in z]
        ys = _greedy(lo, hi, [(wt * x + wc * y, x, y) for x, y in zip(a, b)])
        return wt * (t0 + _dot(a, ys)) + wc * _dot(b, ys), ys
    verts = pd.front(z, lo, hi)
    first = _first_within(verts, 1, cost_cap)
    if first is None or first[0] > time_cap - t0:
        return None
    last = _first_within(verts[::-1], 0, time_cap - t0)
    inner = [v for v in verts if first[0] < v[0] < last[0]]
    a, b, ys = min([first] + inner + [last], key=lambda v: wt * v[0] + wc * v[1])
    return wt * (t0 + a) + wc * b, ys


@dataclass(frozen=True)
class PathPlan:
    objectives: Objectives
    solution: RouteSolution
    value: float


def _objective_value(obj: Objectives, objective: str,
                     weights: tuple[float, float] | None) -> float:
    if objective == "time":
        return obj.time_h
    if objective == "cost":
        return obj.cost
    wt, wc = weights
    return wt * obj.time_h + wc * obj.cost


def _optimize_path_data(instance: Instance, pd: _PathData, objective: str,
                        weights: tuple[float, float] | None = None,
                        cost_cap: float | None = None,
                        time_cap: float | None = None,
                        incumbent: float | None = None) -> PathPlan | None:
    if objective == "weighted":
        if weights is None:
            raise ValueError("weighted objective needs weights")
        wt, wc = model.check_weights(weights)
    else:
        wt, wc = (1.0, 0.0) if objective == "time" else (0.0, 1.0)
    ccap = _INF if cost_cap is None else cost_cap
    tcap = _INF if time_cap is None else time_cap
    best_value = _INF if incumbent is None else incumbent
    best: tuple[tuple[int, ...], list[float]] | None = None

    for sub in pd.subsets:
        time_lb, cost_lb = sub[0], sub[1]
        if cost_lb > ccap + _CAP_SLACK or time_lb > tcap + _CAP_SLACK:
            continue
        if wt * time_lb + wc * cost_lb >= best_value - TIE_TOL:
            continue
        solved = _charge_solve(pd, sub, wt, wc, ccap, tcap)
        if solved is not None and solved[0] < best_value - TIE_TOL:
            best_value = solved[0]
            best = (sub[2], solved[1])

    if best is None:
        return None
    z, ys = best
    plan = {pd.path[j]: y for j, y in zip(z, ys) if y > CHARGE_EPS}
    sol = RouteSolution(path=pd.path, charge_plan=plan)
    obj = model.evaluate(instance, sol)
    return PathPlan(objectives=obj, solution=sol,
                    value=_objective_value(obj, objective, weights))


def optimize_path(instance: Instance, path: tuple[int, ...], objective: str = "time",
                  weights: tuple[float, float] | None = None,
                  cost_cap: float | None = None,
                  time_cap: float | None = None) -> PathPlan | None:
    """Best charge plan along one fixed path, or None when no subset of
    stops makes the path feasible under the caps.

    objective is "time", "cost", or "weighted" (with weights). Ties between
    stop subsets break toward fewer stops, then the lexicographically
    smaller subset.
    """
    if objective not in ("time", "cost", "weighted"):
        raise ValueError("objective must be 'time', 'cost', or 'weighted'")
    if objective == "weighted" and weights is None:
        raise ValueError("weighted objective needs weights")
    problem = model.path_structure_error(instance, path)
    if problem is not None:
        raise ValueError(problem)
    return _optimize_path_data(instance, _PathData(instance, path), objective,
                               weights, cost_cap, time_cap)


def _prepare(instance: Instance, path_cap: int = DEFAULT_PATH_CAP) -> list[_PathData]:
    return [_PathData(instance, p)
            for p in enumerate_paths(instance.graph, cap=path_cap)]


def _best_plan(instance: Instance, pdatas: list[_PathData], objective: str,
               weights: tuple[float, float] | None = None,
               cost_cap: float | None = None,
               time_cap: float | None = None) -> PathPlan | None:
    best: PathPlan | None = None
    for pd in pdatas:
        plan = _optimize_path_data(
            instance, pd, objective, weights, cost_cap, time_cap,
            incumbent=None if best is None else best.value)
        if plan is not None and (best is None or plan.value < best.value - TIE_TOL):
            best = plan
    return best


def _lex_solve(instance: Instance, pdatas: list[_PathData], primary: str,
               cost_cap: float | None = None) -> PathPlan | None:
    stage1 = _best_plan(instance, pdatas, primary, cost_cap=cost_cap)
    if stage1 is None:
        return None
    if primary == "time":
        stage2 = _best_plan(instance, pdatas, "cost", cost_cap=cost_cap,
                            time_cap=stage1.objectives.time_h + LEX_SLACK)
    else:
        stage2 = _best_plan(instance, pdatas, "time",
                            cost_cap=stage1.objectives.cost + LEX_SLACK)
    return stage2 if stage2 is not None else stage1


def _diagnose(instance: Instance, pdatas: list[_PathData]) -> str:
    if not pdatas:
        return "no S->D path exists in the graph"
    pd = pdatas[0]
    r = instance.range_km
    soc = pd.alpha
    names = ["S"] + [str(u) for u in pd.path] + ["D"]
    legs = pd.legs + [pd.d_dest]
    for j, d in enumerate(legs):
        soc -= d / r
        if soc < -1e-9:
            return (f"no feasible charge plan on any path; on path "
                    f"{'-'.join(str(u) for u in pd.path)} the leg "
                    f"{names[j]}->{names[j + 1]} ({d:.1f} km) cannot be crossed "
                    f"even charging to full at every station")
        if j < pd.k:
            soc = 1.0
    return "no feasible charge plan on any path"


def min_time(instance: Instance) -> PathPlan:
    """Global time-optimal plan (cost minimized among its ties)."""
    pdatas = _prepare(instance)
    plan = _lex_solve(instance, pdatas, "time")
    if plan is None:
        raise InfeasibleInstanceError(_diagnose(instance, pdatas))
    return plan


def min_cost(instance: Instance) -> PathPlan:
    """Global cost-optimal plan (time minimized among its ties)."""
    pdatas = _prepare(instance)
    plan = _lex_solve(instance, pdatas, "cost")
    if plan is None:
        raise InfeasibleInstanceError(_diagnose(instance, pdatas))
    return plan


def weighted_optimum(instance: Instance, weights: tuple[float, float]) -> PathPlan:
    """Global optimum of weights[0] * time_h + weights[1] * cost."""
    pdatas = _prepare(instance)
    plan = _best_plan(instance, pdatas, "weighted", weights=weights)
    if plan is None:
        raise InfeasibleInstanceError(_diagnose(instance, pdatas))
    return plan


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
    top = _lex_solve(instance, pdatas, "time")
    if top is None:
        raise InfeasibleInstanceError(_diagnose(instance, pdatas))
    bottom = _lex_solve(instance, pdatas, "cost")
    points = [_point(top), _point(bottom)]

    hi, lo = top.objectives.cost, bottom.objectives.cost
    if delta is None:
        if hi - lo <= TIE_TOL:
            return filter_nondominated(points)
        delta = (hi - lo) / 20.0
    if not delta > 0:
        raise ValueError("delta must be > 0")

    eps = hi - delta
    max_rounds = int((hi - lo) / delta) + 10
    rounds = 0
    while eps >= lo - TIE_TOL and rounds < max_rounds:
        rounds += 1
        plan = _lex_solve(instance, pdatas, "time", cost_cap=eps)
        if plan is None:
            break
        points.append(_point(plan))
        eps = min(eps, plan.objectives.cost) - delta
    return filter_nondominated(points)


def grid_oracle(instance: Instance, grid_n: int = 50,
                eval_cap: int = DEFAULT_EVAL_CAP,
                path_cap: int = DEFAULT_PATH_CAP) -> ParetoFront:
    """Brute-force reference front: every path, every stop subset, every
    charge vector on the {0, 1/grid_n, ..., 1} mesh, evaluated through the
    model and filtered to the nondominated set.

    Raises ResourceCapError when the mesh would exceed eval_cap evaluations.
    """
    if grid_n < 1:
        raise ValueError("grid_n must be >= 1")
    paths = enumerate_paths(instance.graph, cap=path_cap)
    total = sum((grid_n + 1) ** len(p) for p in paths)
    if total > eval_cap:
        raise ResourceCapError(
            f"grid oracle would evaluate about {total} candidates, "
            f"above the cap of {eval_cap}")
    mesh = [m / grid_n for m in range(1, grid_n + 1)]
    buf: list[FrontPoint] = []
    for path in paths:
        k = len(path)
        for size in range(k + 1):
            for z in itertools.combinations(range(k), size):
                for ys in itertools.product(mesh, repeat=size):
                    plan = {path[j]: y for j, y in zip(z, ys)}
                    sol = RouteSolution(path=path, charge_plan=plan)
                    obj = model.try_evaluate(instance, sol)
                    if obj is not None:
                        buf.append(FrontPoint(obj.time_h, obj.cost, sol))
                if len(buf) > 50000:
                    buf = list(filter_nondominated(buf))
    return filter_nondominated(buf)
