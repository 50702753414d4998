"""Scalar references for the tests.

reference_verdict is the independent feasibility reference for the fuzz
comparison. It is deliberately coded against a dense sentinel distance
matrix instead of the package's adjacency structures, so the two verdicts
share no code path. Missing edges carry a 100000 km sentinel distance.

reference_oracle is the grid oracle as one model.try_evaluate call per
candidate, the reference for exact.grid_oracle's array mesh.

reference_subsets is the exact solver's stop-subset table of one path as a
depth-first walk with scalar greedy solves, the reference for the table
that exact builds over every path at once.

shuffle_ids permutes an instance's node ids, for the checks that id order
must not matter.
"""
import dataclasses
import itertools

import numpy as np

from evroute import model
from evroute.exact import _dot, _greedy, enumerate_paths
from evroute.instance import RouteGraph
from evroute.model import SOLVER_SOC_SLACK
from evroute.pareto import FrontPoint, filter_nondominated

SENTINEL_KM = 1e5
TOL = 1e-6
ACTIVE_EPS = 1e-9


def build_matrix(instance):
    """(node order, dense matrix) with rows/cols n and n+1 for S and D."""
    g = instance.graph
    nodes = sorted(g.node_set())
    idx = {u: k for k, u in enumerate(nodes)}
    n = len(nodes)
    mat = np.full((n + 2, n + 2), SENTINEL_KM)
    for (i, j), d in g.edges.items():
        mat[idx[i], idx[j]] = d
    for u, d in g.source_dist.items():
        mat[n, idx[u]] = d
    for u, d in g.dest_dist.items():
        mat[idx[u], n + 1] = d
    return nodes, mat


def reference_verdict(instance, solution):
    """(feasible, violated ids) recomputed from the raw decision variables.

    Reconstructs the x_ij / boundary-choice / z binaries from the solution
    and evaluates every constraint formula on the sentinel matrix.
    """
    g = instance.graph
    nodes, mat = build_matrix(instance)
    idx = {u: k for k, u in enumerate(nodes)}
    n = len(nodes)
    s_row, d_col = n, n + 1
    path = list(solution.path)
    plan = dict(solution.charge_plan)
    bad: set[str] = set()

    # bound (13) applies to every supplied charge amount
    for y in plan.values():
        if y < -TOL or y > 1.0 + TOL:
            bad.add("c13")

    if any(u not in idx for u in path):
        bad.add("c7")
        return False, bad
    if not path:
        bad.update(("c3", "c4"))
        return False, bad

    # one departure from S (3) and one arrival at D (4): the boundary legs
    # chosen by the path must exist in the matrix
    if mat[s_row, idx[path[0]]] >= SENTINEL_KM:
        bad.add("c3")
    if mat[idx[path[-1]], d_col] >= SENTINEL_KM:
        bad.add("c4")

    x = np.zeros((n, n), dtype=int)
    for u, v in zip(path, path[1:]):
        if u == v:
            bad.add("c12")
        else:
            x[idx[u], idx[v]] += 1

    if np.any(x > 1):
        bad.add("c19")
    used = np.argwhere(x >= 1)
    if any(mat[i, j] >= SENTINEL_KM for i, j in used):
        bad.add("c7")

    indeg = x.sum(axis=0)
    outdeg = x.sum(axis=1)
    w_s = np.zeros(n, dtype=int)
    w_d = np.zeros(n, dtype=int)
    w_s[idx[path[0]]] = 1
    w_d[idx[path[-1]]] = 1
    if np.any(indeg + w_s > 1):
        bad.add("c5")
    if np.any(outdeg + w_d > 1):
        bad.add("c6")
    # flow conservation (7): arrivals equal departures at every node
    if np.any(indeg + w_s != outdeg + w_d):
        bad.add("c7")

    structural = bad & {"c3", "c4", "c5", "c6", "c7", "c12", "c19"}
    if structural:
        return False, bad

    # SOC recursion (9)-(11), (14), (15) along the reconstructed walk
    cap_range = instance.params.capacity_kwh * instance.params.km_per_kwh
    soc = instance.params.initial_soc
    prev_row = s_row
    for u in path:
        y_raw = plan.get(u, 0.0)
        y = y_raw if y_raw > ACTIVE_EPS else 0.0
        z = 1 if y > 0.0 else 0
        detour = instance.stations[u].detour_km * z
        soc -= (mat[prev_row, idx[u]] + detour) / cap_range
        if soc < -TOL:
            bad.add("source-reachability" if prev_row == s_row else "c11")
        soc += y
        if soc > 1.0 + TOL:
            bad.add("c14")
        if soc < -TOL:
            bad.add("c14")
        prev_row = idx[u]
    soc -= mat[prev_row, d_col] / cap_range
    if soc < -TOL or soc > 1.0 + TOL:
        bad.add("c15")

    return not bad, bad


def reference_oracle(instance, grid_n):
    """filter_nondominated over every feasible candidate of the grid mesh,
    in enumeration order: paths, then charge vectors over {0} and the mesh
    in itertools.product order, where a zero charge drives past."""
    mesh = [m / grid_n for m in range(1, grid_n + 1)]
    points = []
    for path in enumerate_paths(instance.graph):
        for ys in itertools.product([0] + mesh, repeat=len(path)):
            plan = {u: y for u, y in zip(path, ys) if y}
            sol = model.RouteSolution(path=path, charge_plan=plan)
            obj = model.try_evaluate(instance, sol)
            if obj is not None:
                points.append(FrontPoint(obj.time_h, obj.cost, sol))
    return filter_nondominated(points)


def reference_subsets(instance, path):
    """(time_lb, cost_lb, z, t0, lo, hi) for every stop subset z that can
    make path feasible, by size and then lexicographically, with the
    meanings of exact's table; every sum runs left to right. A path with a
    leg that a full battery at every station cannot cross has none."""
    g, p = instance.graph, instance.params
    k, r, alpha = len(path), p.range_km, p.initial_soc
    legs = [g.source_dist[path[0]]] + [g.edges[(path[i - 1], path[i])] for i in range(1, k)]
    d_dest = g.dest_dist[path[-1]]
    stations = [instance.stations[u] for u in path]
    delta = [s.detour_km for s in stations]
    stop_time = [s.detour_km / p.speed_kmh + s.wait_h for s in stations]
    price_coef = [p.capacity_kwh * s.price for s in stations]
    time_coef = [p.capacity_kwh / s.power_kw for s in stations]
    full = [alpha] + [1.0] * k
    if any(d > full[j] * r + SOLVER_SOC_SLACK * r for j, d in enumerate(legs + [d_dest])):
        return []
    drive = 0.0
    for leg in legs:
        drive += leg
    drive_time = (drive + d_dest) / p.speed_kmh
    found = []

    # Charging to the brim at every chosen stop maximizes every prefix SOC,
    # so this greedy pass decides subset feasibility. depl is the battery
    # used up to a node, its stop detour included.
    def walk(j, acc, prev, soc, z, depl_z):
        if j == k:
            if soc - d_dest / r >= -SOLVER_SOC_SLACK:
                found.append((z, depl_z, prev))
            return
        for stop in (False, True):
            a = acc + (legs[j] + (delta[j] if stop else 0.0))
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
        total = 0.0
        for j in z:
            total += stop_time[j]
        t0 = drive_time + total
        need = max(0.0, depl_end + d_dest / r - alpha)
        lo = [max(0.0, d - alpha) for d in depl_z[1:]] + [need]
        hi = [1.0 - alpha + d for d in depl_z]
        a = [time_coef[j] for j in z]
        b = [price_coef[j] for j in z]
        ys_t = _greedy(lo, hi, list(zip(a, b)))
        ys_c = _greedy(lo, hi, list(zip(b, a)))
        out.append((t0 + _dot(a, ys_t), _dot(b, ys_c), z, t0, lo, hi))
    return out


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
