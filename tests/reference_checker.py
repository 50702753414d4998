"""Scalar references for the tests.

reference_verdict is the independent feasibility reference for the fuzz
comparison. It is deliberately coded against a dense sentinel distance
matrix instead of the package's adjacency structures, so the two verdicts
share no code path. Missing edges carry a 100000 km sentinel distance.

reference_oracle is the grid oracle as one model.try_evaluate call per
candidate, the reference for exact.grid_oracle's array mesh.
"""
import itertools

import numpy as np

from evroute import model
from evroute.exact import enumerate_paths
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
