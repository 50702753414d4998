"""In-memory spans around the calls into each evroute module.

The tracer patches a public function under the name its caller looks it
up by (``evroute.exact.solve_lp`` is the name the subset loop calls, not
``evroute.lp.solve_lp``), so the program itself is not edited. Targets
are resolved by (module, attribute) at start-up; a target the program no
longer has is reported as absent and every metric that needs it is left
out, so the same benchmark code measures a parent commit and a change
that deletes a layer.

Each span is (name, start, end, parent index, command id, outcome). The
runner folds the spans of each command into an ``Aggregate`` keyed by
(span name, parent span name) and drops them, which keeps memory flat on
the half-million-span GA/PSO passes.
"""
from __future__ import annotations

import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One wrapped function: span name, where the caller looks it up, and
    an optional outcome(args, result) recorded with the span."""

    span: str
    module: str
    attr: str
    outcome: Callable | None = None


def _lookup(module: str, attr: str):
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None


def _target_table() -> list[Target]:
    """The wrap table. An outcome that needs a program constant the
    program no longer has is None, and its metric is absent."""
    optimal = _lookup("evroute.lp", "OPTIMAL")
    penalty = _lookup("evroute.model", "PENALTY_BASE")
    failure = _lookup("evroute.metaheuristics", "DecodeFailure")
    return [
        Target("cli.main", "evroute.cli", "main"),
        Target("instance.generate", "evroute.cli", "generate_instance"),
        Target("instance.save", "evroute.cli", "save"),
        Target("instance.load", "evroute.cli", "load"),
        Target("exact.epsilon_constraint", "evroute.exact", "epsilon_constraint"),
        Target("exact.grid_oracle", "evroute.exact", "grid_oracle"),
        Target("exact.enumerate_paths", "evroute.exact", "enumerate_paths",
               lambda args, res: len(res)),
        Target("lp.solve_lp", "evroute.exact", "solve_lp",
               None if optimal is None else (lambda args, res: res[0] != optimal)),
        Target("model.evaluate", "evroute.model", "evaluate"),
        Target("model.try_evaluate", "evroute.model", "try_evaluate",
               lambda args, res: res is not None),
        Target("model.penalized_fitness", "evroute.model", "penalized_fitness",
               None if penalty is None else (lambda args, res: res >= penalty)),
        Target("model.check_feasible", "evroute.model", "check_feasible"),
        Target("metaheuristics.run_ga", "evroute.cli", "run_ga"),
        Target("metaheuristics.run_pso", "evroute.cli", "run_pso"),
        Target("metaheuristics.fitness", "evroute.metaheuristics", "fitness"),
        Target("metaheuristics.decode", "evroute.metaheuristics", "decode",
               None if failure is None else (lambda args, res: isinstance(res, failure))),
        Target("metaheuristics.diversity_metrics", "evroute.metaheuristics",
               "diversity_metrics"),
        Target("metaheuristics.write_history_csv", "evroute.cli", "write_history_csv"),
        Target("pareto.filter_nondominated", "evroute.exact", "filter_nondominated",
               lambda args, res: len(args[0])),
        Target("pareto.front_compare", "evroute.cli", "front_compare"),
        Target("pareto.write_front_csv", "evroute.cli", "write_front_csv"),
        Target("pareto.read_front_csv", "evroute.cli", "read_front_csv"),
    ]


class Aggregate:
    """Per (span name, parent span name): [calls, inclusive s, self s, outcome sum]."""

    def __init__(self) -> None:
        self.rows: dict[tuple[str, str | None], list[float]] = {}

    def add(self, spans: list[tuple]) -> None:
        child = [0.0] * len(spans)
        for name, start, end, parent, _cmd, _out in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _cmd, out) in enumerate(spans):
            key = (name, spans[parent][0] if parent >= 0 else None)
            row = self.rows.setdefault(key, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
            row[3] += int(out or 0)

    def get(self, name: str, field: int, parent: str | None = "*") -> float:
        return sum(row[field] for (n, p), row in self.rows.items()
                   if n == name and (parent == "*" or p == parent))

    def calls(self, name, parent="*"):
        return self.get(name, 0, parent)

    def incl(self, name, parent="*"):
        return self.get(name, 1, parent)

    def self_s(self, name, parent="*"):
        return self.get(name, 2, parent)

    def out(self, name, parent="*"):
        return self.get(name, 3, parent)


class Tracer:
    """Resolves the wrap table once; ``active()`` installs the wrappers for
    the duration of a block and restores the program's own functions."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = [-1]
        self.command = -1
        self.targets: list[Target] = []
        self.absent: list[str] = []
        for t in _target_table():
            fn = _lookup(t.module, t.attr)
            if callable(fn):
                self.targets.append(t)
            else:
                self.absent.append(f"{t.span} ({t.module}.{t.attr})")
        # "<span>:outcome" marks a target whose outcome function was built.
        self.present = ({t.span for t in self.targets}
                        | {f"{t.span}:outcome" for t in self.targets if t.outcome})

    def _wrap(self, t: Target, fn):
        spans, stack, outcome = self.spans, self.stack, t.outcome

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (t.span, start, perf_counter(), parent, self.command, None)
                raise
            finally:
                stack.pop()
            end = perf_counter()
            spans[idx] = (t.span, start, end, parent, self.command,
                          None if outcome is None else outcome(args, res))
            return res

        return wrapper

    @contextmanager
    def active(self):
        saved = []
        try:
            for t in self.targets:
                mod = importlib.import_module(t.module)
                fn = getattr(mod, t.attr)
                saved.append((mod, t.attr, fn))
                setattr(mod, t.attr, self._wrap(t, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def flush(self, into: Aggregate) -> None:
        into.add(self.spans)
        self.spans.clear()


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, spans it needs, value from the pass aggregate). Values
# with unit "count", and fractions of counts, repeat exactly between runs.
LAYER_METRICS: list[tuple[str, str, tuple[str, ...], Callable[[Aggregate], float]]] = [
    ("cli.self_s", "s", ("cli.main",), lambda a: a.self_s("cli.main")),
    ("instance.load_s", "s", ("instance.load",), lambda a: a.incl("instance.load")),
    ("instance.load.calls", "count", ("instance.load",),
     lambda a: a.calls("instance.load")),
    ("exact.epsilon_constraint_s", "s", ("exact.epsilon_constraint",),
     lambda a: a.incl("exact.epsilon_constraint")),
    ("exact.self_s", "s", ("exact.epsilon_constraint", "exact.enumerate_paths"),
     lambda a: a.self_s("exact.epsilon_constraint")
     + a.self_s("exact.enumerate_paths", "exact.epsilon_constraint")),
    ("exact.enumerate_paths_s", "s", ("exact.enumerate_paths",),
     lambda a: a.incl("exact.enumerate_paths")),
    ("exact.paths", "count", ("exact.enumerate_paths",),
     lambda a: a.out("exact.enumerate_paths")),
    ("exact.grid_oracle_s", "s", ("exact.grid_oracle",),
     lambda a: a.incl("exact.grid_oracle")),
    ("exact.oracle_self_s", "s", ("exact.grid_oracle", "exact.enumerate_paths"),
     lambda a: a.self_s("exact.grid_oracle")
     + a.self_s("exact.enumerate_paths", "exact.grid_oracle")),
    ("exact.oracle_feasible_frac", "frac", ("exact.grid_oracle", "model.try_evaluate"),
     lambda a: _frac(a.out("model.try_evaluate", "exact.grid_oracle"),
                     a.calls("model.try_evaluate", "exact.grid_oracle"))),
    ("lp.solve_lp_s", "s", ("lp.solve_lp",), lambda a: a.incl("lp.solve_lp")),
    ("lp.solve_lp.calls", "count", ("lp.solve_lp",), lambda a: a.calls("lp.solve_lp")),
    ("lp.infeasible_frac", "frac", ("lp.solve_lp:outcome",),
     lambda a: _frac(a.out("lp.solve_lp"), a.calls("lp.solve_lp"))),
    ("model.evaluate.calls", "count", ("model.evaluate",),
     lambda a: a.calls("model.evaluate")),
    ("model.evaluate_s", "s", ("model.evaluate",), lambda a: a.incl("model.evaluate")),
    ("model.try_evaluate.calls", "count", ("model.try_evaluate",),
     lambda a: a.calls("model.try_evaluate")),
    ("model.try_evaluate_s", "s", ("model.try_evaluate",),
     lambda a: a.incl("model.try_evaluate")),
    ("model.penalized_fitness.calls", "count", ("model.penalized_fitness",),
     lambda a: a.calls("model.penalized_fitness")),
    ("model.penalized_fitness_s", "s", ("model.penalized_fitness",),
     lambda a: a.incl("model.penalized_fitness")),
    ("model.check_feasible_s", "s", ("model.check_feasible",),
     lambda a: a.incl("model.check_feasible")),
    ("model.infeasible_frac", "frac", ("model.penalized_fitness:outcome",),
     lambda a: _frac(a.out("model.penalized_fitness"),
                     a.calls("model.penalized_fitness"))),
    ("metaheuristics.fitness.calls", "count", ("metaheuristics.fitness",),
     lambda a: a.calls("metaheuristics.fitness")),
    ("metaheuristics.decode_s", "s", ("metaheuristics.decode",),
     lambda a: a.incl("metaheuristics.decode")),
    ("metaheuristics.decode_fail_frac", "frac", ("metaheuristics.decode:outcome",),
     lambda a: _frac(a.out("metaheuristics.decode"), a.calls("metaheuristics.decode"))),
    ("metaheuristics.diversity_s", "s", ("metaheuristics.diversity_metrics",),
     lambda a: a.incl("metaheuristics.diversity_metrics")),
    ("metaheuristics.self_s", "s", ("metaheuristics.run_ga", "metaheuristics.run_pso"),
     lambda a: a.self_s("metaheuristics.run_ga") + a.self_s("metaheuristics.run_pso")),
    ("pareto.filter_nondominated.calls", "count", ("pareto.filter_nondominated",),
     lambda a: a.calls("pareto.filter_nondominated")),
    ("pareto.filter_nondominated_s", "s", ("pareto.filter_nondominated",),
     lambda a: a.incl("pareto.filter_nondominated")),
    ("pareto.filter_points_in", "count", ("pareto.filter_nondominated",),
     lambda a: a.out("pareto.filter_nondominated")),
    ("pareto.front_compare_s", "s", ("pareto.front_compare",),
     lambda a: a.incl("pareto.front_compare")),
    ("pareto.csv_s", "s", ("pareto.write_front_csv", "pareto.read_front_csv"),
     lambda a: a.incl("pareto.write_front_csv") + a.incl("pareto.read_front_csv")),
]

# Read from the traced set-up, whose generate commands run outside the passes.
SETUP_METRICS: list[tuple[str, str, tuple[str, ...], Callable[[Aggregate], float]]] = [
    ("instance.generate_s", "s", ("instance.generate",),
     lambda a: a.incl("instance.generate")),
    ("instance.save_s", "s", ("instance.save",), lambda a: a.incl("instance.save")),
]

def available(tracer: Tracer, metrics) -> list:
    """The metrics whose spans (and outcome functions) the program has."""
    return [m for m in metrics if all(n in tracer.present for n in m[2])]
