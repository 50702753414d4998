"""Bi-objective dominance tools: filtering, front comparison, and the CSV
format shared by the exact solvers, the metaheuristics, and the CLI."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .model import RouteSolution

# Points whose coordinates both match within this absolute tolerance are
# considered the same point and collapse to the earliest one.
DEDUP_TOL = 1e-9

FRONT_CSV_COLUMNS = ("time_h", "cost", "path", "charge_plan")


class FrontCsvError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class FrontPoint:
    time_h: float
    cost: float
    payload: Any = None


def dominates(a, b) -> bool:
    """True when a is at least as good as b in both objectives and strictly
    better in at least one. Works on anything with time_h and cost."""
    return (a.time_h <= b.time_h and a.cost <= b.cost
            and (a.time_h < b.time_h or a.cost < b.cost))


@dataclass(frozen=True)
class ParetoFront:
    """Mutually nondominated points sorted by increasing time."""

    points: tuple[FrontPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def staircase(times, costs) -> np.ndarray:
    """Indices of the points that cost less than every point before them in
    (time, cost, index) order, in that order: the dominance scan of
    filter_nondominated on finite coordinate arrays."""
    order = np.lexsort((costs, times))  # stable, so the index breaks ties
    ranked = costs[order]
    keep = np.ones(len(ranked), dtype=bool)
    keep[1:] = ranked[1:] < np.minimum.accumulate(ranked)[:-1]
    return order[keep]


def filter_nondominated(points: Iterable[FrontPoint]) -> ParetoFront:
    """Drop dominated points, collapse near-duplicates (DEDUP_TOL per
    coordinate, keeping the earliest point), sort by time."""
    points = list(points)
    kept = staircase(np.array([p.time_h for p in points], dtype=float),
                     np.array([p.cost for p in points], dtype=float))
    merged: list[tuple[float, float, int, FrontPoint]] = []
    for idx in kept.tolist():
        p = points[idx]
        t, c = p.time_h, p.cost
        if merged and abs(t - merged[-1][0]) <= DEDUP_TOL and abs(c - merged[-1][1]) <= DEDUP_TOL:
            if idx < merged[-1][2]:
                merged[-1] = (t, c, idx, p)
            continue
        merged.append((t, c, idx, p))
    final = sorted(merged, key=lambda t: (t[3].time_h, t[3].cost))
    return ParetoFront(tuple(p for _, _, _, p in final))


def point_classes(points: Sequence, against: Sequence) -> tuple[str, ...]:
    """Per-point dominance class of each point relative to another front.

    'dominated' wins when a point is both dominated by one reference point
    and dominating another (possible only if the reference set is not an
    antichain).
    """
    classes = []
    for p in points:
        if any(dominates(q, p) for q in against):
            classes.append("dominated")
        elif any(dominates(p, q) for q in against):
            classes.append("dominating")
        else:
            classes.append("nondominated")
    return tuple(classes)


@dataclass(frozen=True)
class FrontComparison:
    """The point_classes of each side against the other, and their counts."""

    a_classes: tuple[str, ...]
    b_classes: tuple[str, ...]

    @property
    def a_dominated_by_b(self) -> int:
        return self.a_classes.count("dominated")

    @property
    def b_dominated_by_a(self) -> int:
        return self.b_classes.count("dominated")

    @property
    def mutual_nondominated(self) -> int:
        return (len(self.a_classes) - self.a_dominated_by_b
                + len(self.b_classes) - self.b_dominated_by_a)


def front_compare(a: Sequence[FrontPoint], b: Sequence[FrontPoint]) -> FrontComparison:
    """Cross-dominance classes and counts between two point sets.

    a_dominated_by_b counts points of a strictly dominated by some point of
    b (and vice versa); mutual_nondominated counts the remaining points of
    both sets. Swapping the arguments swaps the first two counts.
    """
    return FrontComparison(a_classes=point_classes(a, b), b_classes=point_classes(b, a))


def _format_solution(sol: RouteSolution | None) -> tuple[str, str]:
    if sol is None:
        return "", ""
    path_s = "-".join(str(u) for u in sol.path)
    charge_s = ";".join(f"{u}:{float(sol.charge_plan[u])!r}"
                        for u in sol.path if u in sol.charge_plan)
    return path_s, charge_s


def write_front_csv(points: Iterable[FrontPoint], destination: str | Path) -> None:
    """Write points (payloads must be RouteSolution or None) to CSV."""
    with open(destination, "w", newline="\n", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(FRONT_CSV_COLUMNS)
        for p in points:
            path_s, charge_s = _format_solution(p.payload)
            w.writerow([repr(float(p.time_h)), repr(float(p.cost)), path_s, charge_s])


def _parse_solution(path_s: str, charge_s: str, line: int) -> RouteSolution | None:
    if not path_s:
        return None
    try:
        path = tuple(int(tok) for tok in path_s.split("-"))
    except ValueError as e:
        raise FrontCsvError(line, f"bad path field {path_s!r}") from e
    plan: dict[int, float] = {}
    if charge_s:
        for item in charge_s.split(";"):
            try:
                u, y = item.split(":")
                u, y = int(u), float(y)
            except ValueError as e:
                raise FrontCsvError(line, f"bad charge_plan entry {item!r}") from e
            if math.isnan(y):
                raise FrontCsvError(line, f"NaN in charge_plan entry {item!r}")
            plan[u] = y
    return RouteSolution(path=path, charge_plan=plan)


def read_front_csv(source: str | Path) -> list[FrontPoint]:
    """Parse a front CSV back into FrontPoints with RouteSolution payloads.

    Raises FrontCsvError with a line number on malformed input, NaN among
    it; an infinite objective or charge is read as it is.
    """
    points: list[FrontPoint] = []
    with open(source, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != FRONT_CSV_COLUMNS:
            raise FrontCsvError(1, f"expected header {','.join(FRONT_CSV_COLUMNS)}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(FRONT_CSV_COLUMNS):
                raise FrontCsvError(line, f"expected {len(FRONT_CSV_COLUMNS)} fields, "
                                    f"got {len(row)}")
            try:
                time_h, cost = float(row[0]), float(row[1])
            except ValueError as e:
                raise FrontCsvError(line, f"bad numeric field in {row[:2]}") from e
            if math.isnan(time_h) or math.isnan(cost):
                raise FrontCsvError(line, f"NaN objective in {row[:2]}")
            points.append(FrontPoint(time_h=time_h, cost=cost,
                                     payload=_parse_solution(row[2], row[3], line)))
    return points
