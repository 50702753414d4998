"""The reference LP solver: scipy's HiGHS (Huangfu & Hall, Math. Prog. Comp.
2018) behind one small interface.

The exact solver never calls it. It exists for the tests, which use it as
the reference for the greedy charge solve, and for perfbench, which wraps
it by name. scipy is a test dependency, so it is imported on first call.
"""
from __future__ import annotations

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

# At HiGHS's defaults (presolve on, 1e-7 feasibility tolerances) a plan may
# buy a little less charge than a lower-bound row allows, and the optimum
# then misses the exact one by more than the tests' 1e-9 relative tolerance.
_HIGHS_OPTIONS = {"presolve": False, "primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10}


def solve_lp(c, a_ub, b_ub, upper) -> tuple[str, np.ndarray | None, float | None]:
    """Minimize c @ x subject to a_ub @ x <= b_ub and 0 <= x <= upper.

    Returns (status, x, value); x and value are None unless status is
    "optimal". upper must be finite, so the problem is never unbounded.
    """
    from scipy.optimize import linprog

    c = np.asarray(c, dtype=float).ravel()
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    a_ub = np.asarray(a_ub, dtype=float).reshape(b_ub.size, c.size)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, u) for u in upper],
                  method="highs", options=_HIGHS_OPTIONS)
    if res.status == 2:
        return INFEASIBLE, None, None
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return OPTIMAL, res.x, float(res.fun)
