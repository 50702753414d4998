"""Simplex solver cross-checked against scipy.optimize.linprog."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

from evroute.lp import INFEASIBLE, OPTIMAL, solve_lp


def scipy_solve(c, a_ub, b_ub, upper):
    res = linprog(c, A_ub=a_ub if len(a_ub) else None,
                  b_ub=b_ub if len(b_ub) else None,
                  bounds=[(0.0, u) for u in upper], method="highs")
    if res.status == 2:
        return INFEASIBLE, None, None
    assert res.status == 0, res.message
    return OPTIMAL, res.x, res.fun


class TestHandPicked:
    def test_unconstrained_box(self):
        status, x, val = solve_lp([1.0, -2.0], [], [], [1.0, 1.0])
        assert status == OPTIMAL
        assert val == pytest.approx(-2.0)
        assert x[0] == pytest.approx(0.0)
        assert x[1] == pytest.approx(1.0)

    def test_single_coupling_row(self):
        # minimize -x1 - x2 with x1 + x2 <= 1.5 in the unit box
        status, x, val = solve_lp([-1.0, -1.0], [[1.0, 1.0]], [1.5], [1.0, 1.0])
        assert status == OPTIMAL
        assert val == pytest.approx(-1.5)
        assert x[0] + x[1] == pytest.approx(1.5)

    def test_lower_bound_row_forces_charge(self):
        # -x1 - x2 <= -0.8 models "charge at least 0.8 in total"
        status, x, val = solve_lp([2.0, 1.0], [[-1.0, -1.0]], [-0.8], [1.0, 1.0])
        assert status == OPTIMAL
        assert val == pytest.approx(0.8)
        assert x[1] == pytest.approx(0.8)

    def test_infeasible_rows(self):
        status, x, val = solve_lp([1.0], [[-1.0]], [-2.0], [1.0])
        assert status == INFEASIBLE
        assert x is None and val is None

    def test_negative_rhs_feasible(self):
        status, _, val = solve_lp([1.0, 1.0], [[-1.0, 0.0]], [-0.25],
                                  [1.0, 1.0])
        assert status == OPTIMAL
        assert val == pytest.approx(0.25)

    def test_degenerate_ties(self):
        a = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        status, _, val = solve_lp([-1.0, -1.0], a, [0.5, 0.5, 0.5], [1.0, 1.0])
        assert status == OPTIMAL
        assert val == pytest.approx(-1.0)

    def test_rows_each_within_tolerance_are_feasible(self):
        # two rows each 5.96e-8 short: their sum exceeds 1e-7, but each
        # row is within tolerance, and HiGHS calls the problem optimal
        args = ([0.0], [[0.0], [0.0]], [-5.96e-8] * 2, [1.0])
        status, _, val = solve_lp(*args)
        assert status == OPTIMAL == scipy_solve(*args)[0]
        assert val == pytest.approx(0.0)

    def test_zero_variables_edge(self):
        status, x, val = solve_lp([], np.zeros((0, 0)), [], [])
        assert status == OPTIMAL
        assert val == pytest.approx(0.0)
        assert len(x) == 0


@st.composite
def lp_problems(draw):
    nv = draw(st.integers(1, 5))
    nr = draw(st.integers(0, 6))
    fin = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
    c = draw(hnp.arrays(np.float64, (nv,), elements=fin))
    a = draw(hnp.arrays(np.float64, (nr, nv), elements=fin))
    b = draw(hnp.arrays(np.float64, (nr,), elements=fin))
    upper = draw(hnp.arrays(np.float64, (nv,), elements=st.floats(0.1, 3.0)))
    return c, a, b, upper


class TestAgainstScipy:
    @settings(max_examples=300, deadline=None)
    @given(lp_problems())
    def test_status_and_value_match(self, prob):
        c, a, b, upper = prob
        status, x, val = solve_lp(c, a, b, upper)
        ref_status, _, ref_val = scipy_solve(c, a, b, upper)
        assert status == ref_status
        if status == OPTIMAL:
            scale = 1.0 + abs(ref_val)
            assert val == pytest.approx(ref_val, abs=1e-6 * scale)
            # returned point is primal feasible and achieves the value
            assert np.all(x >= -1e-9)
            assert np.all(x <= upper + 1e-9)
            if len(a):
                assert np.all(np.asarray(a) @ x <= np.asarray(b) + 1e-7)
            assert float(np.dot(c, x)) == pytest.approx(val, abs=1e-7 * scale)

    @settings(max_examples=100, deadline=None)
    @given(lp_problems(), st.integers(0, 2 ** 32 - 1))
    def test_charge_shaped_problems(self, prob, seed):
        # rows shaped like the solver's usage: cumulative -1/+1 prefixes
        _, _, _, upper = prob
        nv = len(upper)
        rng = np.random.default_rng(seed)
        rows, rhs = [], []
        for t in range(nv):
            row = np.zeros(nv)
            row[: t + 1] = -1.0
            rows.append(row)
            rhs.append(float(rng.uniform(-1.5, 0.5)))
            row = np.zeros(nv)
            row[: t + 1] = 1.0
            rows.append(row)
            rhs.append(float(rng.uniform(0.0, 2.0)))
        c = rng.uniform(0.1, 3.0, nv)
        a = np.array(rows)
        b = np.array(rhs)
        status, x, val = solve_lp(c, a, b, upper)
        ref_status, _, ref_val = scipy_solve(c, a, b, upper)
        assert status == ref_status
        if status == OPTIMAL:
            assert val == pytest.approx(ref_val, abs=1e-6 * (1 + abs(ref_val)))
