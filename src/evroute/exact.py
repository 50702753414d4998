"""Exact bi-objective solvers.

For a fixed path and a fixed set of charging stops, the remaining problem
(how much to buy where) is the fixed-stop gas-station problem, which a greedy
solves exactly. A cost cap makes it parametric in the weight between time
and cost: a walk over the weights at which two stops swap price order
gives each subset's (time, cost) front, and the least time within the cap
is the first point of that front whose cost meets it.

Global optima come from one scan over a table of every path's feasible
stop subsets, built for all paths at once with array operations, and the
budget-sweep front sampler builds on that; HiGHS, through `lp.solve_lp`,
is the test reference. The table holds each subset's least time and least
cost, one greedy each, which bound every solve of the scan; the scalar
greedy solves the subsets the scan cannot skip. Float sums run left to
right, so no result depends on the Python version.

The brute-force grid oracle instead grows one charge mesh per path,
station by station, through model.PlanArrays' SOC step; a zero charge
drives past the station, so the mesh also covers every stop subset. Each
charge vector is dropped at its first bound violation, which is never
undone.

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


def _paths_to_d(graph: RouteGraph) -> dict[int, int]:
    """Number of paths from each node to D, by dynamic programming over the
    DAG."""
    last = set(graph.last_layer)
    counts: dict[int, int] = {}
    for layer in reversed(graph.levels):
        for u in layer:
            counts[u] = 1 if u in last else sum(counts[v] for v in graph.out_neighbors(u))
    return counts


def count_paths(graph: RouteGraph) -> int:
    """Number of S->D paths."""
    counts = _paths_to_d(graph)
    return sum(counts[u] for u in graph.first_layer)


def enumerate_paths(graph: RouteGraph) -> list[tuple[int, ...]]:
    """All S->D paths in lexicographic node-id order.

    Raises ResourceCapError before materializing anything when the DAG
    admits more than DEFAULT_PATH_CAP paths.
    """
    counts = _paths_to_d(graph)
    total = sum(counts[u] for u in graph.first_layer)
    if total > DEFAULT_PATH_CAP:
        raise ResourceCapError(f"graph admits {total} S->D paths, "
                               f"above the cap of {DEFAULT_PATH_CAP}")
    # Edges join consecutive layers, so one sweep per layer extends every
    # prefix; keeping only nodes that reach D bounds each sweep by the total.
    paths = [(s,) for s in sorted(graph.first_layer) if counts[s]]
    for _ in graph.levels[1:]:
        paths = [p + (v,) for p in paths for v in graph.out_neighbors(p[-1]) if counts[v]]
    return paths


class _SubsetTable:
    """Every stop subset that can make its path feasible, over a list of
    paths at once, and the data that every charge solve of one exact solve
    shares.

    Entry i takes path paths[path[i]] with stops at its m[i] positions
    stops[i, :m[i]]; entries run path by path, then by number of stops,
    then lexicographically in the stops. t0 is the trip time without
    charging time; lo[i, t] <= Y[t] <= hi[i, t] bound the battery fraction
    Y[t] bought up to the t-th stop. time_lb and cost_lb are the least time
    and the least cost, each by one greedy. Columns from m[i] on are
    padding, except that lo[i, 0] of an empty subset holds the battery
    fraction its trip needs beyond the initial SOC.

    legs holds each path's km, leg 0 leaving S and leg k entering D, and
    blocked the first leg that a full battery at every station cannot
    cross, or -1. No stop subset can make a path with such a leg feasible,
    so it has no entry.

    Raises ResourceCapError as soon as the rows alive after a layer, times
    the layers, exceed DEFAULT_EVAL_CAP.
    """

    def __init__(self, instance: Instance, paths: list[tuple[int, ...]]):
        arrays = model.PlanArrays(instance)
        p = instance.params
        r, alpha = p.range_km, p.initial_soc
        # Every S->D path visits one station per layer.
        k = len(instance.graph.levels)
        # Station positions, stop positions and price ranks in the fewest
        # bytes, so the (entries, k) arrays stay small.
        small = np.min_scalar_type(max(arrays.n, k))
        self.paths = paths
        self._nodes = nodes = np.array([[arrays.pos[u] for u in path] for path in paths],
                                       dtype=small).reshape(-1, k)
        legs = np.empty((len(paths), k + 1))
        legs[:, 0] = arrays.src_km[nodes[:, 0]]
        legs[:, 1:k] = arrays.edge_km[nodes[:, :-1], nodes[:, 1:]]
        legs[:, k] = arrays.dst_km[nodes[:, -1]]
        self.legs = legs
        full = np.ones(k + 1)
        full[0] = alpha
        over = legs > full * r + SOLVER_SOC_SLACK * r
        self.blocked = np.where(over.any(axis=1), over.argmax(axis=1), -1)
        # Every sum here runs left to right, so the floats do not depend on
        # the Python version: sum() compensates from 3.12 on.
        drive = np.zeros(len(paths))
        for j in range(k):
            drive = drive + legs[:, j]
        drive_time = (drive + legs[:, k]) / p.speed_kmh

        # Charging to the brim at every chosen stop maximizes every prefix
        # SOC, so this greedy pass decides subset feasibility. Rows grow one
        # station at a time, each into a stop row and then a drive-past row,
        # and a row is dropped at its first battery break. depl is the
        # battery used up to a station, its stop detour included, and
        # depl_z holds it at each stop.
        path = np.flatnonzero(self.blocked < 0)
        n = len(path)
        acc, prev, soc = np.zeros(n), np.zeros(n), np.full(n, alpha)
        m = np.zeros(n, dtype=np.intp)
        stops = np.zeros((n, k), dtype=small)
        depl_z = np.zeros((n, k))
        for j in range(k):
            leg = legs[path, j]
            a = np.stack([acc + (leg + arrays.detour[nodes[path, j]]), acc + leg], axis=1).ravel()
            depl = a / r
            left = np.repeat(soc, 2) - (depl - np.repeat(prev, 2))
            keep = np.flatnonzero(left >= -SOLVER_SOC_SLACK)
            if len(keep) * k > DEFAULT_EVAL_CAP:
                raise ResourceCapError(
                    f"stop-subset table holds {len(keep)} rows after layer {j + 1} "
                    f"of {k}, above the cap of {DEFAULT_EVAL_CAP} rows x layers")
            parent, stop = keep // 2, keep % 2 == 0
            path, m, stops, depl_z = path[parent], m[parent], stops[parent], depl_z[parent]
            acc, prev = a[keep], depl[keep]
            soc = np.where(stop, 1.0, left[keep])
            at = np.flatnonzero(stop)
            stops[at, m[at]] = j
            depl_z[at, m[at]] = prev[at]
            m[at] += 1
        # Within a path the rows run in decreasing order of their stop
        # flags, which among equal stop counts is increasing lexicographic
        # order of the stops.
        ok = np.flatnonzero(soc - legs[path, k] / r >= -SOLVER_SOC_SLACK)
        order = ok[np.argsort((path * (k + 1) + m)[ok], kind="stable")]
        path, m, stops, depl_z, depl_end = path[order], m[order], stops[order], \
            depl_z[order], prev[order]
        self.path, self.m, self.stops = path, m, stops

        node = nodes[path[:, None], stops]
        stop_time = arrays.detour / p.speed_kmh + arrays.wait
        total = np.zeros(len(path))
        for t in range(k):
            total = np.where(t < m, total + stop_time[node[:, t]], total)
        self.t0 = drive_time[path] + total
        # Arriving at the next stop (or D) must not run below empty;
        # leaving a stop must not run above full.
        need = np.maximum(0.0, depl_end + legs[path, k] / r - alpha)
        # Not zeros_like: zeroing every column first raises peak RSS at 20
        # levels by about 40 MB.
        lo = np.empty_like(depl_z)
        lo[:, :-1] = np.maximum(0.0, depl_z[:, 1:] - alpha)
        lo[:, -1] = 0.0
        lo[np.arange(len(path)), np.maximum(m - 1, 0)] = need
        self.lo, self.hi = lo, np.add(depl_z, 1.0 - alpha, out=depl_z)

        # The least time and the least cost, each by one greedy; with the
        # cap they decide most capped solves without the front.
        self._coef = coef = (p.capacity_kwh / arrays.power, p.capacity_kwh * arrays.price)
        bounds = []
        for x, y in (coef, coef[::-1]):
            dot = np.zeros(len(path))
            for t, ys in _greedy_rows(_rank(x, y).astype(small)[node], lo, self.hi, m):
                dot = dot + x[node[:, t]] * ys
            bounds.append(dot)
        self.time_lb, self.cost_lb = self.t0 + bounds[0], bounds[1]
        self.fronts: dict[int, list] = {}

    def __len__(self) -> int:
        return len(self.path)

    def entry(self, e: int) -> tuple:
        """Entry e as (z, t0, lo, hi, a, b) in Python floats: its stops, its
        bounds, and the time and price coefficient of each stop."""
        m = self.m[e]
        z = self.stops[e, :m]
        node = self._nodes[self.path[e], z]
        return (tuple(z.tolist()), float(self.t0[e]), self.lo[e, :max(m, 1)].tolist(),
                self.hi[e, :m].tolist(), self._coef[0][node].tolist(),
                self._coef[1][node].tolist())

    def front(self, e: int) -> list:
        """Entry e's (time, cost) Pareto front as vertices (A, B, ys) from
        least charging time A to least cost B, where ys are the charges.

        Each vertex is the greedy plan for the stop prices (1 - s) * time
        + s * cost with s between two of the weights at which two stops
        swap price order (a parametric LP, Ehrgott 2005)."""
        verts = self.fronts.get(e)
        if verts is not None:
            return verts
        _, _, lo, hi, a, b = self.entry(e)
        m = len(a)
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
        self.fronts[e] = verts
        return verts


def _rank(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each station's place in the order of the (x, y) pairs, equal pairs
    sharing one, so ranks compare as _greedy's key tuples do."""
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    rank = np.zeros(len(x), dtype=np.intp)
    rank[order[1:]] = np.cumsum((xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1]))
    return rank


def _greedy_rows(rank: np.ndarray, lo: np.ndarray, hi: np.ndarray, m: np.ndarray):
    """_greedy on every row at once, with stop t of row i priced by
    rank[i, t] and only its first m[i] stops real: yields (t, charges) for
    each stop column in turn, the charges zero where t >= m[i]."""
    n, k = rank.shape
    rows = np.arange(n)
    # A padding stop is never the next cheaper one.
    rank = np.where(np.arange(k) < m[:, None], rank, np.iinfo(rank.dtype).max)
    prev = np.zeros(n)
    for t in range(k):
        nxt = m
        for s in range(k - 1, t, -1):
            nxt = np.where(rank[:, s] < rank[:, t], s, nxt)
        cum = np.maximum(np.maximum(np.minimum(np.minimum(lo[rows, nxt - 1], hi[:, t]),
                                               prev + 1.0), lo[:, t]), prev)
        cum = np.where(t < m, cum, prev)
        yield t, cum - prev
        prev = cum


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
    """Left to right, as _SubsetTable's array passes, whatever the Python
    version."""
    total = 0.0
    for x, y in zip(xs, ys):
        total += x * y
    return total


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


def _charge_solve(table: _SubsetTable, e: int, wt: float, wc: float,
                  cost_cap: float) -> tuple[float, float, list[float]] | None:
    """The best charges of entry e of table, as (time, cost, charges), or
    None; the entry's lower bounds have already checked the cap of the
    empty subset.

    Without a cap, best is least (wt * time + wc * cost, time, cost). Under
    a finite cost_cap it is least time, then least cost, with cost at most
    cost_cap, whatever the weights: the first point of the subset's front
    where the cap holds."""
    t0 = float(table.t0[e])
    if not table.m[e]:
        return t0, 0.0, []
    if cost_cap == _INF:
        # Without a cap one greedy at the objective's prices is optimal,
        # with ties broken as the front's ends break them.
        _, _, lo, hi, a, b = table.entry(e)
        ys = _greedy(lo, hi, [(wt * x + wc * y, x, y) for x, y in zip(a, b)])
        return t0 + _dot(a, ys), _dot(b, ys), ys
    first = _first_within(table.front(e), cost_cap)
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


def _best_plan(instance: Instance, table: _SubsetTable, objective: str,
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
    time_lb, cost_lb = table.time_lb.tolist(), table.cost_lb.tolist()
    for e in np.flatnonzero(table.cost_lb <= ccap + _CAP_SLACK).tolist():
        t, c = time_lb[e], cost_lb[e]
        if not _better((wt * t + wc * c, st * t + sc * c), best_key):
            continue
        solved = _charge_solve(table, e, wt, wc, ccap)
        if solved is None:
            continue
        t, c, charges = solved
        key = (wt * t + wc * c, st * t + sc * c)
        if _better(key, best_key):
            best_key, best, ys = key, e, charges

    if best is None:
        return None

    path = table.paths[table.path[best]]
    z = table.stops[best, :table.m[best]].tolist()
    plan = {path[j]: y for j, y in zip(z, ys) if y > CHARGE_EPS}
    sol = RouteSolution(path=path, charge_plan=plan)
    obj = model.evaluate(instance, sol)
    return PathPlan(objectives=obj, solution=sol, value=wt * obj.time_h + wc * obj.cost)


def _prepare(instance: Instance) -> _SubsetTable:
    return _SubsetTable(instance, enumerate_paths(instance.graph))


def _diagnose(table: _SubsetTable) -> str:
    if not table.paths:
        return "no S->D path exists in the graph"
    path, j = table.paths[0], int(table.blocked[0])
    if j < 0:
        return "no feasible charge plan on any path"
    names = ["S"] + [str(u) for u in path] + ["D"]
    return (f"no feasible charge plan on any path; on path "
            f"{'-'.join(str(u) for u in path)} the leg "
            f"{names[j]}->{names[j + 1]} ({table.legs[0, j]:.1f} km) "
            f"cannot be crossed even charging to full at every station")


def _global_optimum(instance: Instance, objective: str,
                    weights: tuple[float, float] | None = None) -> PathPlan:
    table = _prepare(instance)
    plan = _best_plan(instance, table, objective, weights)
    if plan is None:
        raise InfeasibleInstanceError(_diagnose(table))
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
    table = _prepare(instance)
    top = _best_plan(instance, table, "time")
    if top is None:
        raise InfeasibleInstanceError(_diagnose(table))
    bottom = _best_plan(instance, table, "cost")
    points = [_point(top), _point(bottom)]

    hi, lo = top.objectives.cost, bottom.objectives.cost
    if delta is None:
        if hi - lo <= TIE_TOL:
            return filter_nondominated(points)
        delta = (hi - lo) / 20.0
    if not delta > 0:
        raise ValueError("delta must be > 0")

    planned = (hi - lo) / delta
    entries = len(table)
    if planned * entries > DEFAULT_EVAL_CAP:
        raise ResourceCapError(
            f"budget sweep would run about {planned:.3g} rounds over {entries} "
            f"stop subsets, above the cap of {DEFAULT_EVAL_CAP}")
    eps = hi - delta
    for _ in range(int(planned) + 10):
        if eps < lo - TIE_TOL:
            break
        plan = _best_plan(instance, table, "time", cost_cap=eps)
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
