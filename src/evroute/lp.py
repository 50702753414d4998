"""Dense two-phase simplex for small linear programs.

The test suite uses it as the reference for the exact solver's greedy
charge solve: one LP per (path, stop subset, caps), with at most a handful
of variables. scipy.optimize.linprog in turn is the reference for this
solver.
"""
from __future__ import annotations

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_BLAND_AFTER = 200


class LpError(RuntimeError):
    """Simplex failed to terminate; indicates a bug or pathological input."""


def _pivot(T: np.ndarray, obj: np.ndarray, basis: np.ndarray, r: int, e: int) -> None:
    T[r] /= T[r, e]
    col = T[:, e].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    obj -= obj[e] * T[r]
    basis[r] = e


def _pivot_loop(T: np.ndarray, obj: np.ndarray, basis: np.ndarray,
                enter_cols: int, tol: float, max_iter: int) -> str:
    for it in range(max_iter):
        red = obj[:enter_cols]
        if it < _BLAND_AFTER:
            e = int(np.argmin(red))
            if red[e] >= -tol:
                return OPTIMAL
        else:
            neg = np.flatnonzero(red < -tol)
            if neg.size == 0:
                return OPTIMAL
            e = int(neg[0])
        col = T[:, e]
        rows = np.flatnonzero(col > tol)
        if rows.size == 0:
            return UNBOUNDED
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        cand = rows[ratios <= best + 1e-12]
        r = int(cand[np.argmin(basis[cand])])
        _pivot(T, obj, basis, r, e)
    raise LpError("simplex iteration limit reached")


def solve_lp(c, a_ub, b_ub, upper, tol: float = 1e-9,
             max_iter: int = 2000) -> tuple[str, np.ndarray | None, float | None]:
    """Minimize c @ x subject to a_ub @ x <= b_ub and 0 <= x <= upper.

    Returns (status, x, value); x and value are None unless status is
    "optimal". upper must be finite for every variable, which keeps the
    feasible set compact, so "unbounded" never occurs in practice.
    """
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    a_ub = np.asarray(a_ub, dtype=float).reshape(len(b_ub), n) if len(b_ub) \
        else np.zeros((0, n))
    upper = np.asarray(upper, dtype=float).ravel()
    if n == 0:
        if (b_ub < -tol).any():
            return INFEASIBLE, None, None
        return OPTIMAL, np.zeros(0), 0.0

    A = np.vstack([a_ub, np.eye(n)])
    b = np.concatenate([b_ub, upper])
    m = A.shape[0]

    A = A.copy()
    b = b.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    slack_sign = np.where(neg, -1.0, 1.0)
    art_rows = np.flatnonzero(neg)
    n_art = art_rows.size
    width = n + m + n_art

    T = np.zeros((m, width + 1))
    T[:, :n] = A
    T[np.arange(m), n + np.arange(m)] = slack_sign
    if n_art:
        T[art_rows, n + m + np.arange(n_art)] = 1.0
    T[:, -1] = b
    basis = (n + np.arange(m)).astype(int)
    basis[art_rows] = n + m + np.arange(n_art)

    if n_art:
        obj1 = np.zeros(width + 1)
        obj1[n + m:width] = 1.0
        for r in art_rows:
            obj1 -= T[r]
        status = _pivot_loop(T, obj1, basis, width, tol, max_iter)
        if status != OPTIMAL:
            raise LpError("phase 1 cannot be unbounded")
        # Judge each row by its own leftover artificial, as HiGHS does, so
        # rows that are each within tolerance cannot add up to infeasible.
        if (T[basis >= n + m, -1] > 1e-7).any():
            return INFEASIBLE, None, None

    obj2 = np.zeros(width + 1)
    obj2[:n] = c
    for r in range(m):
        if obj2[basis[r]] != 0.0:
            obj2 -= obj2[basis[r]] * T[r]

    # Drive any leftover zero-level artificials out of the basis so they
    # cannot distort phase 2; a row with no other nonzero entry is redundant.
    for r in range(m):
        if basis[r] >= n + m:
            row = T[r, :n + m]
            nz = np.flatnonzero(np.abs(row) > tol)
            if nz.size:
                _pivot(T, obj2, basis, r, int(nz[0]))

    status = _pivot_loop(T, obj2, basis, n + m, tol, max_iter)
    if status != OPTIMAL:
        return status, None, None
    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r, -1]
    x = np.clip(x, 0.0, upper)
    return OPTIMAL, x, float(c @ x)
