"""Dominance filtering, front comparison, and the front CSV format."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evroute.model import RouteSolution
from evroute.pareto import (DEDUP_TOL, FRONT_CSV_COLUMNS, FrontCsvError,
                            FrontPoint, dominates, filter_nondominated,
                            front_compare, read_front_csv, write_front_csv)

coords = st.floats(0.0, 100.0, allow_nan=False)
point_lists = st.lists(st.tuples(coords, coords), max_size=40).map(
    lambda ps: [FrontPoint(t, c) for t, c in ps])


def brute_nondominated(points):
    """Independent quadratic reference: keep p iff nothing dominates it."""
    out = []
    for p in points:
        if not any(q.time_h <= p.time_h and q.cost <= p.cost
                   and (q.time_h, q.cost) != (p.time_h, p.cost)
                   for q in points):
            out.append(p)
    return out


class TestDominates:
    def test_truth_table(self):
        a, b = FrontPoint(1.0, 2.0), FrontPoint(2.0, 3.0)
        assert dominates(a, b) and not dominates(b, a)
        assert dominates(FrontPoint(1.0, 3.0), b)
        assert dominates(FrontPoint(2.0, 2.0), b)
        assert not dominates(b, b)
        assert not dominates(FrontPoint(1.0, 4.0), b)
        assert not dominates(FrontPoint(3.0, 2.0), b)


class TestFilterNondominated:
    def test_empty(self):
        assert len(filter_nondominated([])) == 0

    def test_single(self):
        front = filter_nondominated([FrontPoint(3.0, 4.0)])
        assert [(p.time_h, p.cost) for p in front] == [(3.0, 4.0)]

    def test_reciprocal_curve_survives_noise(self):
        clean = [FrontPoint(float(i), 12.0 / i) for i in range(1, 7)]
        noisy = clean + [FrontPoint(i + 0.5, 12.0 / i + 0.5)
                         for i in range(1, 7)]
        front = filter_nondominated(noisy)
        assert [(p.time_h, p.cost) for p in front] == \
            [(p.time_h, p.cost) for p in clean]

    def test_equal_time_keeps_cheaper(self):
        front = filter_nondominated([FrontPoint(1.0, 5.0), FrontPoint(1.0, 3.0)])
        assert [(p.time_h, p.cost) for p in front] == [(1.0, 3.0)]

    def test_duplicates_collapse_to_earliest(self):
        a = FrontPoint(1.0, 1.0, payload="first")
        b = FrontPoint(1.0, 1.0, payload="second")
        front = filter_nondominated([a, b])
        assert len(front) == 1
        assert front.points[0].payload == "first"

    def test_near_duplicates_within_tol_collapse(self):
        pts = [FrontPoint(1.0, 1.0), FrontPoint(1.0 + DEDUP_TOL / 2,
                                                1.0 - DEDUP_TOL / 2)]
        assert len(filter_nondominated(pts)) == 1

    def test_close_but_distinct_points_survive(self):
        pts = [FrontPoint(1.0, 2.0), FrontPoint(1.0 + 3e-9, 2.0 - 1e-3)]
        assert len(filter_nondominated(pts)) == 2

    @settings(max_examples=200, deadline=None)
    @given(point_lists)
    def test_matches_quadratic_reference(self, pts):
        front = list(filter_nondominated(pts))
        ref = brute_nondominated(pts)
        # same point set up to DEDUP_TOL collapse
        for p in front:
            assert any(abs(p.time_h - r.time_h) <= DEDUP_TOL
                       and abs(p.cost - r.cost) <= DEDUP_TOL for r in ref)
        for r in ref:
            assert any(abs(p.time_h - r.time_h) <= DEDUP_TOL
                       and abs(p.cost - r.cost) <= DEDUP_TOL for p in front)

    @settings(max_examples=200, deadline=None)
    @given(point_lists)
    def test_shape_invariants(self, pts):
        front = list(filter_nondominated(pts))
        for earlier, later in zip(front, front[1:]):
            assert earlier.time_h <= later.time_h
            assert later.cost < earlier.cost
        for i, p in enumerate(front):
            for q in front[i + 1:]:
                assert not dominates(p, q) and not dominates(q, p)

    @settings(max_examples=100, deadline=None)
    @given(point_lists)
    def test_idempotent(self, pts):
        once = list(filter_nondominated(pts))
        twice = list(filter_nondominated(once))
        assert [(p.time_h, p.cost) for p in once] == \
            [(p.time_h, p.cost) for p in twice]


class TestFrontCompare:
    def test_crossing_pair_is_mutually_nondominated(self):
        a = [FrontPoint(128.7, 102.7)]
        b = [FrontPoint(127.9, 103.1)]
        cmp = front_compare(a, b)
        assert cmp.a_dominated_by_b == 0
        assert cmp.b_dominated_by_a == 0
        assert cmp.mutual_nondominated == 2

    def test_one_sided_domination(self):
        a = [FrontPoint(1.0, 1.0)]
        b = [FrontPoint(2.0, 2.0), FrontPoint(0.5, 3.0)]
        cmp = front_compare(a, b)
        assert cmp.a_dominated_by_b == 0
        assert cmp.b_dominated_by_a == 1
        assert cmp.mutual_nondominated == 2

    def test_empty_sides(self):
        cmp = front_compare([], [FrontPoint(1.0, 1.0)])
        assert (cmp.a_dominated_by_b, cmp.b_dominated_by_a,
                cmp.mutual_nondominated) == (0, 0, 1)

    @settings(max_examples=150, deadline=None)
    @given(point_lists, point_lists)
    def test_swap_symmetry_and_count_conservation(self, a, b):
        ab = front_compare(a, b)
        ba = front_compare(b, a)
        assert ab.a_dominated_by_b == ba.b_dominated_by_a
        assert ab.b_dominated_by_a == ba.a_dominated_by_b
        assert ab.mutual_nondominated == ba.mutual_nondominated
        assert (ab.a_dominated_by_b + ab.b_dominated_by_a
                + ab.mutual_nondominated) == len(a) + len(b)


class TestFrontCsv:
    def roundtrip(self, tmp_path, points):
        dest = tmp_path / "front.csv"
        write_front_csv(points, dest)
        return dest, read_front_csv(dest)

    def test_roundtrip_with_payloads(self, tmp_path):
        points = [
            FrontPoint(12.25, 6.7, RouteSolution((1, 4, 7), {4: 0.5, 7: 0.125})),
            FrontPoint(14.0, 0.0, RouteSolution((2, 5), {})),
            FrontPoint(9.5, 3.0, None),
        ]
        dest, back = self.roundtrip(tmp_path, points)
        assert len(back) == 3
        assert (back[0].time_h, back[0].cost) == (12.25, 6.7)
        assert back[0].payload == RouteSolution((1, 4, 7), {4: 0.5, 7: 0.125})
        assert back[1].payload == RouteSolution((2, 5), {})
        assert back[2].payload is None
        header = dest.read_text().splitlines()[0]
        assert header == ",".join(FRONT_CSV_COLUMNS)

    def test_float_fields_roundtrip_exactly(self, tmp_path):
        pt = FrontPoint(1.0 / 3.0, 0.1 + 0.2)
        _, back = self.roundtrip(tmp_path, [pt])
        assert back[0].time_h == pt.time_h
        assert back[0].cost == pt.cost

    def test_charge_plan_written_in_path_order(self, tmp_path):
        sol = RouteSolution((3, 1, 2), {2: 0.25, 3: 0.5})
        dest = tmp_path / "f.csv"
        write_front_csv([FrontPoint(1.0, 2.0, sol)], dest)
        row = dest.read_text().splitlines()[1]
        assert row.endswith("3-1-2,3:0.5;2:0.25")

    def test_rejects_wrong_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,cost\n1.0,2.0\n")
        with pytest.raises(FrontCsvError, match="line 1"):
            read_front_csv(bad)

    def test_rejects_wrong_field_count(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(FRONT_CSV_COLUMNS) + "\n1.0,2.0,,\n1.0\n")
        with pytest.raises(FrontCsvError, match="line 3"):
            read_front_csv(bad)

    def test_rejects_bad_numeric(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(FRONT_CSV_COLUMNS) + "\nabc,2.0,,\n")
        with pytest.raises(FrontCsvError, match="line 2"):
            read_front_csv(bad)

    def test_rejects_bad_path_and_plan(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(FRONT_CSV_COLUMNS) + "\n1.0,2.0,1-x,\n")
        with pytest.raises(FrontCsvError, match="bad path"):
            read_front_csv(bad)
        bad.write_text(",".join(FRONT_CSV_COLUMNS) + "\n1.0,2.0,1-2,2:zz\n")
        with pytest.raises(FrontCsvError, match="charge_plan"):
            read_front_csv(bad)

    def test_rejects_nan_reads_inf(self, tmp_path):
        bad = tmp_path / "bad.csv"
        for row in ("nan,1.0,,", "1.0,NaN,,", "1.0,2.0,1-2,2:nan"):
            bad.write_text(",".join(FRONT_CSV_COLUMNS) + f"\n{row}\n")
            with pytest.raises(FrontCsvError, match="line 2: NaN"):
                read_front_csv(bad)
        points = [FrontPoint(math.inf, 1.0, RouteSolution((1, 2), {2: math.inf})),
                  FrontPoint(2.0, -math.inf)]
        _, back = self.roundtrip(tmp_path, points)
        assert back == points

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_front_csv(tmp_path / "nope.csv")

    @settings(max_examples=60, deadline=None)
    @given(pairs=st.lists(st.tuples(st.floats(0, 1e6, allow_nan=False),
                                    st.floats(0, 1e6, allow_nan=False)),
                          max_size=12))
    def test_roundtrip_random_coordinates(self, pairs, tmp_path_factory):
        dest = tmp_path_factory.mktemp("csv") / "front.csv"
        points = [FrontPoint(t, c) for t, c in pairs]
        write_front_csv(points, dest)
        back = read_front_csv(dest)
        assert [(p.time_h, p.cost) for p in back] == pairs
