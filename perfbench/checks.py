"""Untimed output checks and the quality figures read from the outputs.

Front CSVs are parsed here with the csv module, not with the program's
reader. Every check is recorded in a ``Ledger``: a failure is counted and
described, never raised.
"""
from __future__ import annotations

import csv
from pathlib import Path

FRONT_COLUMNS = ["time_h", "cost", "path", "charge_plan"]
# A re-evaluated row must reproduce its CSV objectives to this absolute tolerance.
OBJ_TOL = 1e-9
# Oracle dominance beyond this much time counts against the front (h), as in
# scripts/front_experiment.py.
ORACLE_TIME_TOL_H = 1e-6


class Ledger:
    """Counts distinct operations (commands and checks) and the failed ones.

    An operation is named by its key. A command repeated in every set-up or
    pass is one operation, failed if any of its runs failed, so
    ``attempted`` is the same for every run of a workload and one failure
    always moves the failed fraction by 1/attempted.
    """

    def __init__(self) -> None:
        self.failed: dict[str, str | None] = {}

    @property
    def attempted(self) -> int:
        return len(self.failed)

    @property
    def failures(self) -> list[str]:
        return [label for label in self.failed.values() if label is not None]

    def record(self, label: str, ok: bool, key: str | None = None) -> bool:
        key = label if key is None else key
        if self.failed.get(key) is None:
            self.failed[key] = None if ok else label
        return ok

    def value(self, label: str, fn, *args):
        """fn(*args), or None when it raises; either way one operation."""
        try:
            result = fn(*args)
        except Exception as exc:  # a broken output fails its check, never the run
            self.record(f"{label}: {type(exc).__name__}: {exc}", False, key=label)
            return None
        self.record(label, True)
        return result

    def check(self, label: str, fn, *args) -> bool:
        try:
            return self.record(label, bool(fn(*args)))
        except Exception as exc:
            return self.record(f"{label}: {type(exc).__name__}: {exc}", False, key=label)


def read_front(path: Path) -> list[tuple[float, float, tuple[int, ...], dict[int, float]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != FRONT_COLUMNS:
        raise ValueError(f"{path.name}: bad header")
    out = []
    for t, c, p, plan in rows[1:]:
        nodes = tuple(int(u) for u in p.split("-")) if p else ()
        charges = {}
        for item in filter(None, plan.split(";")):
            u, y = item.split(":")
            charges[int(u)] = float(y)
        out.append((float(t), float(c), nodes, charges))
    return out


def rows_reproduce(ev, inst, rows) -> bool:
    """Each row re-evaluates to its CSV objectives and passes the full audit."""
    for t, c, nodes, plan in rows:
        sol = ev.model.RouteSolution(path=nodes, charge_plan=plan)
        obj = ev.model.evaluate(inst, sol)
        if abs(obj.time_h - t) > OBJ_TOL or abs(obj.cost - c) > OBJ_TOL:
            return False
        if not ev.model.check_feasible(inst, sol).feasible:
            return False
    return True


def sorted_antichain(rows) -> bool:
    """At least one row; time strictly increasing and cost strictly decreasing."""
    return bool(rows) and all(a[0] < b[0] and a[1] > b[1] for a, b in zip(rows, rows[1:]))


def weighted(row, weights) -> float:
    return weights[0] * row[0] + weights[1] * row[1]


def soc_slack_value(ev, inst, nodes, weights) -> float:
    """The most a plan on this path can gain over the exact weighted optimum
    by using the slack the model grants every battery bound: its 2k+1 SOC
    bounds (arrival and full battery at each of k stations, final SOC at D)
    each relaxed by ``model.SOC_TOL``, every unit of SOC valued at the
    dearest station's weighted price of a full battery."""
    p = inst.params
    per_soc = max(weights[0] * p.capacity_kwh / st.power_kw
                  + weights[1] * p.capacity_kwh * st.price
                  for st in inst.stations.values())
    return (2 * len(nodes) + 1) * ev.model.SOC_TOL * per_soc


def never_beats_optimum(ev, inst, rows, weights, optimum: float) -> bool:
    """One row, and it beats the exact weighted optimum by no more than the
    model's SOC slack is worth: ``evaluate`` accepts plans up to SOC_TOL past
    a bound, while the exact solver keeps to the bounds."""
    return len(rows) == 1 and weighted(rows[0], weights) >= (
        optimum - soc_slack_value(ev, inst, rows[0][2], weights))


def oracle_respects_front(inst, oracle_rows, front_rows, grid: int) -> bool:
    """No oracle point dominates a front point beyond the grid tolerance."""
    cost_tol = (1.0 / grid) * inst.params.capacity_kwh * max(
        st.price for st in inst.stations.values())
    for ot, oc, *_ in oracle_rows:
        for ft, fc, *_ in front_rows:
            dominates = ot <= ft and oc <= fc and (ot < ft or oc < fc)
            if dominates and (ft - ot > ORACLE_TIME_TOL_H or fc - oc > cost_tol):
                return False
    return True


def report_complete(path: Path, n_a: int, n_b: int) -> bool:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0][0] == "side" and len(rows) == 1 + n_a + n_b


def hv_ratio(rows) -> float:
    """Staircase hypervolume (Zitzler & Thiele 1999) of a time-sorted front
    inside the box its two lexicographic extremes span, over the box area.
    A one-point front counts as 1."""
    if len(rows) == 1:
        return 1.0
    t0, c_max = rows[0][0], rows[0][1]
    t_max, c_min = rows[-1][0], rows[-1][1]
    area = sum((b[0] - a[0]) * (c_max - a[1]) for a, b in zip(rows, rows[1:]))
    return area / ((t_max - t0) * (c_max - c_min))


def gap_pct(rows, weights, optimum: float) -> float:
    """How far the best weighted point of a front is above the exact
    weighted optimum, in percent."""
    best = min(weighted(r, weights) for r in rows)
    return 100.0 * (best - optimum) / optimum
