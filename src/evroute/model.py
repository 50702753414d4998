"""Route evaluation: state-of-charge recursion, trip time and charging cost,
feasibility checking, and the scalarized fitness used by the metaheuristics.
PlanArrays runs the same recursion and objectives over a batch of plans as
array operations, for the GA/PSO population kernel and the grid oracle.

A solution is a station path plus a charge plan. A plan entry y_i is the
fraction of battery capacity bought at station i; entries at or below
CHARGE_EPS mean the vehicle drives past without stopping, so they add no
detour, wait, charge time, or cost. Plan entries for nodes not on the path
are inert the same way, except that the 0 <= y <= 1 bound still applies.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .instance import Instance

# Charge amounts at or below this are treated as not stopping at all.
CHARGE_EPS = 1e-9
# Slack applied to battery bound checks so exact-arithmetic optima survive
# floating point re-evaluation.
SOC_TOL = 1e-6
# Slack of the exact solver's battery bound tests, as a battery fraction;
# far tighter than SOC_TOL, the checker's, so the solver's plans pass the checker.
SOLVER_SOC_SLACK = 1e-9
# Base penalty for infeasible or undecodable candidates.
PENALTY_BASE = 1e9


class InfeasibleRouteError(ValueError):
    """Raised by evaluate() when the plan runs the battery out of bounds."""

    def __init__(self, violation: "SocViolation", trace: "SocTrace"):
        self.violation = violation
        self.trace = trace
        where = "destination leg" if violation.node is None else f"node {violation.node}"
        super().__init__(f"{violation.kind} violation at {where} "
                         f"(magnitude {violation.magnitude:.6g})")


@dataclass(frozen=True)
class RouteSolution:
    """Ordered station path and the charge fraction bought at each stop."""

    path: tuple[int, ...]
    charge_plan: Mapping[int, float]


@dataclass(frozen=True)
class Objectives:
    time_h: float
    cost: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.time_h, self.cost)


@dataclass(frozen=True)
class SocViolation:
    kind: str  # source-reachability | arrival | overcharge | departure | final-soc
    node: int | None  # None means the final leg into D
    magnitude: float


@dataclass(frozen=True)
class SocTrace:
    """Departure SOC per path node plus the SOC left on arriving at D.

    When feasible is False, q and beta still hold the values the recursion
    produces, and violation names the first place a bound broke.
    """

    q: dict[int, float]
    beta: float
    feasible: bool
    violation: SocViolation | None


@dataclass(frozen=True)
class Violation:
    constraint: str  # "c3".."c19" or "source-reachability"
    magnitude: float
    detail: str


@dataclass(frozen=True)
class ConstraintReport:
    violations: tuple[Violation, ...]

    @property
    def feasible(self) -> bool:
        return not self.violations


def active_charges(instance: Instance, solution: RouteSolution) -> dict[int, float]:
    """Charge amounts that actually happen: on the path and above CHARGE_EPS,
    in path order."""
    plan = solution.charge_plan
    return {u: float(plan[u]) for u in solution.path
            if plan.get(u, 0.0) > CHARGE_EPS}


def _path_violations(instance: Instance, path: tuple[int, ...]) -> list[Violation]:
    """The structural constraints a path breaks (c3-c7, c12, c19), in
    check_feasible's order; an empty list means the SOC recursion can run
    along it."""
    if not path:
        return [Violation("c3", 1.0, "empty path: no departure from source"),
                Violation("c4", 1.0, "empty path: no arrival at destination")]

    g = instance.graph
    viols: list[Violation] = []
    known = g.node_set()
    for u in dict.fromkeys(path):
        if u not in known:
            viols.append(Violation("c7", 1.0, f"node {u} is not in the graph"))
    if path[0] in known and g.layer_of(path[0]) != 0:
        viols.append(Violation(
            "c3", 1.0,
            f"path starts at node {path[0]} in layer {g.layer_of(path[0])}; "
            "the source connects only to layer 0"))
    if path[-1] in known and g.layer_of(path[-1]) != len(g.levels) - 1:
        viols.append(Violation(
            "c4", 1.0,
            f"path ends at node {path[-1]} in layer {g.layer_of(path[-1])}; "
            "the destination is reached only from the last layer"))

    steps = Counter(zip(path, path[1:]))
    for (i, j), cnt in sorted(steps.items()):
        if i == j:
            viols.append(Violation("c12", float(cnt), f"self loop at node {i}"))
            continue
        if i in known and j in known and (i, j) not in g.edges:
            viols.append(Violation("c7", float(cnt), f"edge ({i}, {j}) does not exist"))
        if cnt > 1:
            viols.append(Violation("c19", float(cnt - 1),
                                   f"edge ({i}, {j}) used {cnt} times"))

    indeg, outdeg = Counter(path[1:]), Counter(path[:-1])
    for u in sorted(set(path)):
        if indeg[u] > 1:
            viols.append(Violation("c5", float(indeg[u] - 1),
                                   f"node {u} is entered {indeg[u]} times"))
        if outdeg[u] > 1:
            viols.append(Violation("c6", float(outdeg[u] - 1),
                                   f"node {u} is left {outdeg[u]} times"))
        balance = (indeg[u] + (1 if u == path[0] else 0)
                   - outdeg[u] - (1 if u == path[-1] else 0))
        if balance != 0:
            viols.append(Violation("c7", float(abs(balance)),
                                   f"flow imbalance {balance} at node {u}"))
    return viols


def _soc_scan(instance: Instance, path: tuple[int, ...],
              plan: Mapping[int, float]):
    """Run the SOC recursion along a structurally valid path.

    Returns (q, beta, violations) where q maps each path node to its
    departure SOC and violations lists every bound break in path order.
    """
    g = instance.graph
    stations = instance.stations
    r = instance.range_km
    soc = instance.params.initial_soc
    q: dict[int, float] = {}
    viols: list[SocViolation] = []
    prev = None
    for u in path:
        y_raw = plan.get(u, 0.0)
        y = y_raw if y_raw > CHARGE_EPS else 0.0
        detour = stations[u].detour_km if y > 0.0 else 0.0
        leg = g.source_dist[u] if prev is None else g.edges[(prev, u)]
        arrival = soc - (detour + leg) / r
        if arrival < -SOC_TOL:
            kind = "source-reachability" if prev is None else "arrival"
            viols.append(SocViolation(kind, u, -arrival))
        soc = arrival + y
        if soc > 1.0 + SOC_TOL:
            viols.append(SocViolation("overcharge", u, soc - 1.0))
        elif soc < -SOC_TOL:
            viols.append(SocViolation("departure", u, -soc))
        q[u] = soc
        prev = u
    beta = soc - g.dest_dist[path[-1]] / r
    if beta < -SOC_TOL:
        viols.append(SocViolation("final-soc", None, -beta))
    elif beta > 1.0 + SOC_TOL:
        viols.append(SocViolation("final-soc", None, beta - 1.0))
    return q, beta, viols


def soc_trace(instance: Instance, solution: RouteSolution) -> SocTrace:
    """SOC recursion along the path.

    Requires a path that breaks none of check_feasible's structural
    constraints (raises ValueError with the first one's detail otherwise).
    The trace is always fully computed; feasibility reflects whether arrival
    SOC stayed >= -SOC_TOL everywhere, departure SOC within [0 - tol,
    1 + tol], and the destination is reached with beta >= -SOC_TOL.
    """
    problems = _path_violations(instance, solution.path)
    if problems:
        raise ValueError(problems[0].detail)
    q, beta, viols = _soc_scan(instance, solution.path, solution.charge_plan)
    return SocTrace(q=q, beta=beta, feasible=not viols,
                    violation=viols[0] if viols else None)


def driven_km(instance: Instance, solution: RouteSolution) -> float:
    """Total km driven: S leg, path legs, D leg, plus detours of actual stops."""
    g = instance.graph
    path = solution.path
    km = g.source_dist[path[0]] + g.dest_dist[path[-1]]
    for i, j in zip(path, path[1:]):
        km += g.edges[(i, j)]
    for u in active_charges(instance, solution):
        km += instance.stations[u].detour_km
    return km


def _objectives(instance: Instance, solution: RouteSolution) -> Objectives:
    p = instance.params
    g = instance.graph
    path = solution.path
    drive = g.source_dist[path[0]] + g.dest_dist[path[-1]]
    for i, j in zip(path, path[1:]):
        drive += g.edges[(i, j)]
    time = drive / p.speed_kmh
    cost = 0.0
    for u, y in active_charges(instance, solution).items():
        st = instance.stations[u]
        time += st.detour_km / p.speed_kmh + st.wait_h + y * p.capacity_kwh / st.power_kw
        cost += y * p.capacity_kwh * st.price
    return Objectives(time_h=time, cost=cost)


def evaluate(instance: Instance, solution: RouteSolution) -> Objectives:
    """Trip time (hours) and charging cost of a feasible solution.

    Raises InfeasibleRouteError when the SOC recursion breaks a bound and
    ValueError when the path itself is malformed.
    """
    tr = soc_trace(instance, solution)
    if not tr.feasible:
        raise InfeasibleRouteError(tr.violation, tr)
    return _objectives(instance, solution)


def try_evaluate(instance: Instance, solution: RouteSolution) -> Objectives | None:
    """evaluate() variant returning None on SOC-infeasible plans."""
    tr = soc_trace(instance, solution)
    if not tr.feasible:
        return None
    return _objectives(instance, solution)


class PlanArrays:
    """An instance as arrays in sorted-id order, and the SOC recursion and
    objectives of many plans at once.

    pos maps each station id to its position. The arrays are adjacency and
    edge km (n, n), source and destination km (n,), and each station's
    detour, wait, power and price (n,).
    """

    def __init__(self, instance: Instance):
        g = instance.graph
        nodes = g.node_ids()
        n = len(nodes)
        self.n = n
        self.pos = {u: i for i, u in enumerate(nodes)}
        self.adj = np.zeros((n, n), dtype=bool)
        self.edge_km = np.zeros((n, n))
        for (i, j), km in g.edges.items():
            self.adj[self.pos[i], self.pos[j]] = True
            self.edge_km[self.pos[i], self.pos[j]] = km
        self.src_km = np.zeros(n)
        self.src_km[[self.pos[u] for u in g.source_dist]] = list(g.source_dist.values())
        self.dst_km = np.zeros(n)
        self.dst_km[[self.pos[u] for u in g.dest_dist]] = list(g.dest_dist.values())
        st = [instance.stations[u] for u in nodes]
        self.detour = np.array([s.detour_km for s in st])
        self.wait = np.array([s.wait_h for s in st])
        self.power = np.array([s.power_kw for s in st])
        self.price = np.array([s.price for s in st])
        self.params = instance.params
        self.range_km = instance.range_km

    def soc_objectives(self, path, charges):
        """(penalty, time, cost) of plans along structurally valid paths.

        path holds one node position per layer and charges one charge per
        layer, each an int or float shared by every plan or a (P,) array.
        The recursion is _soc_scan's and the objectives are _objectives',
        with every float operation in their order, so a plan's time and cost
        are the floats evaluate() gives. penalty is the sum of its SOC
        violation magnitudes in path order; each adds more than SOC_TOL, so
        0 means feasible. The results broadcast like the inputs.
        """
        state = self.start(path)
        for prev, u, y in zip([None, *path], path, charges):
            state = self.step(state, prev, u, y)
        return self.arrive(state, path[-1])

    def start(self, path):
        """(soc, time, cost, penalty) before the first layer of path."""
        drive = self.src_km[path[0]] + self.dst_km[path[-1]]
        for i, j in zip(path, path[1:]):
            drive = drive + self.edge_km[i, j]
        return self.params.initial_soc, drive / self.params.speed_kmh, 0.0, 0.0

    def step(self, state, prev, u, y):
        """The state after buying y at node u, entered from prev (None at
        layer 0). The penalty never decreases: once positive, infeasible."""
        p = self.params
        soc, time, cost, penalty = state
        stop = y > CHARGE_EPS
        detour = np.where(stop, self.detour[u], 0.0)
        leg = self.src_km[u] if prev is None else self.edge_km[prev, u]
        arrival = soc - (detour + leg) / self.range_km
        penalty = np.where(arrival < -SOC_TOL, penalty + -arrival, penalty)
        soc = arrival + np.where(stop, y, 0.0)
        penalty = np.where(soc > 1.0 + SOC_TOL, penalty + (soc - 1.0), penalty)
        penalty = np.where(soc < -SOC_TOL, penalty + -soc, penalty)
        time = np.where(stop, time + (self.detour[u] / p.speed_kmh + self.wait[u]
                                      + y * p.capacity_kwh / self.power[u]), time)
        cost = np.where(stop, cost + y * p.capacity_kwh * self.price[u], cost)
        return soc, time, cost, penalty

    def arrive(self, state, last):
        """(penalty, time, cost) once the leg from last into D is driven."""
        soc, time, cost, penalty = state
        beta = soc - self.dst_km[last] / self.range_km
        penalty = np.where(beta < -SOC_TOL, penalty + -beta, penalty)
        penalty = np.where(beta > 1.0 + SOC_TOL, penalty + (beta - 1.0), penalty)
        return penalty, time, cost


_SOC_KIND_TO_CONSTRAINT = {
    "source-reachability": "source-reachability",
    "arrival": "c11",
    "overcharge": "c14",
    "departure": "c14",
    "final-soc": "c15",
}


def check_feasible(instance: Instance, solution: RouteSolution) -> ConstraintReport:
    """Full constraint audit of an arbitrary solution record.

    Reconstructs the travel indicators (edge uses, source/destination
    attachment, charging flags) from the path and charge plan and grades
    every violated constraint with a magnitude. Binary domains that the
    record cannot express differently (w_S, w_D, z) hold by construction;
    duplicate edge uses surface as c19. Never raises.
    """
    path = solution.path
    viols: list[Violation] = []

    for u, y in sorted(solution.charge_plan.items()):
        if y < -SOC_TOL:
            viols.append(Violation("c13", -float(y), f"y[{u}] = {y} below 0"))
        elif y > 1.0 + SOC_TOL:
            viols.append(Violation("c13", float(y) - 1.0, f"y[{u}] = {y} above 1"))

    structure = _path_violations(instance, path)
    viols += structure
    if not structure:
        _, _, soc_viols = _soc_scan(instance, path, solution.charge_plan)
        for sv in soc_viols:
            where = "destination leg" if sv.node is None else f"node {sv.node}"
            viols.append(Violation(_SOC_KIND_TO_CONSTRAINT[sv.kind],
                                   sv.magnitude, f"{sv.kind} at {where}"))
    return ConstraintReport(tuple(viols))


def check_weights(weights: tuple[float, float]) -> tuple[float, float]:
    """The (time, cost) weight pair, or ValueError unless both are finite
    and nonnegative and not both zero."""
    wt, wc = weights
    if not (0 <= wt < math.inf and 0 <= wc < math.inf) or (wt == 0 and wc == 0):
        raise ValueError("weights must be finite, nonnegative and not both zero")
    return wt, wc


def penalized_fitness(instance: Instance, solution: RouteSolution,
                      weights: tuple[float, float] = (0.5, 0.5)) -> float:
    """Weighted scalarization with a graded infeasibility penalty.

    Feasible: weights[0] * time_h + weights[1] * cost. Infeasible:
    PENALTY_BASE plus the sum of violation magnitudes, which keeps every
    infeasible candidate above every feasible one while still ranking
    infeasible candidates by how badly they fail.
    """
    wt, wc = check_weights(weights)
    report = check_feasible(instance, solution)
    if not report.feasible:
        # Left to right in list order, which the population kernel in
        # metaheuristics repeats; sum() compensates from Python 3.12 on.
        total = 0.0
        for v in report.violations:
            total += v.magnitude
        return PENALTY_BASE + total
    obj = _objectives(instance, solution)
    return wt * obj.time_h + wc * obj.cost
