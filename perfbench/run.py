"""evroute benchmark: drives ``evroute.cli.main`` in-process, one command at
a time (a closed loop with one client), and prints one JSON result line.

    python3 perfbench/run.py --workload front --seed 0 --seconds 36 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced passes and prints the per-layer metrics instead. The program is
imported from ``src/`` next to this directory; every output goes to a
temporary directory under ``.perfbench-tmp/`` that is removed at exit.
See perfbench/README.md for what each workload and metric means.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Import plus generate is tens of milliseconds, so repeat it for this long
# (and at least SETUP_MIN_REPEATS times) and take the median.
SETUP_SECONDS = 3.0
SETUP_MIN_REPEATS = 11
# Passes per run at the least, whatever --seconds says: a median needs
# three, and a traced run needs two traced passes to compare counts.
MIN_PASSES = 3


def _purge_program() -> None:
    for name in [n for n in sys.modules if n == "evroute" or n.startswith("evroute.")]:
        del sys.modules[name]


def _modules() -> SimpleNamespace:
    return SimpleNamespace(**{m: sys.modules[f"evroute.{m}"]
                              for m in ("cli", "exact", "instance", "model")})


def provenance(workload: str, seed: int) -> dict:
    import numpy
    sha = None
    if (ROOT / ".git").exists():  # the checkout's own repository, not one around it
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() if proc.returncode == 0 else None
        except OSError:
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "workload": workload, "seed": seed,
            "src_lines": src_lines}


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tmp: Path):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.tmp = tmp
        self.ledger = checks.Ledger()
        self.tracer: tracing.Tracer | None = None
        self.notes: list[str] = []

    def command(self, argv: list[str], key: str) -> float:
        """Run one CLI command, one operation under key in the ledger;
        returns its wall time. Output is captured."""
        gc.collect()
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(buf):
            start = perf_counter()
            try:
                code = self.ev.cli.main(argv)
            except Exception as exc:  # a crash is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        tail = buf.getvalue().strip().splitlines()[-1:] or [""]
        self.ledger.record(f"{' '.join(argv[:5])} -> {code} {tail[0]}", code == 0, key)
        return elapsed

    def setup(self) -> list[float]:
        """Import plus generate, repeated; returns the timings."""
        times = []
        budget_start = perf_counter()
        while (len(times) < SETUP_MIN_REPEATS
               or perf_counter() - budget_start < SETUP_SECONDS):
            outdir = self.tmp / f"setup{len(times)}"
            outdir.mkdir()
            _purge_program()
            gc.collect()
            start = perf_counter()
            importlib.import_module("evroute.cli")
            self.ev = _modules()
            elapsed = perf_counter() - start
            elapsed += sum(self.commands("generate",
                                         workloads.generate_commands(self.workload, outdir)))
            times.append(elapsed)
        self.inputs_dir = outdir
        return times

    def commands(self, phase: str, cmds: list[list[str]],
                 agg: tracing.Aggregate | None = None) -> list[float]:
        """Run commands in order, traced into agg when one is given. The
        c-th command of a phase is the same operation in every repeat."""
        times = []
        with self.tracer.active() if agg is not None else nullcontext():
            for c, argv in enumerate(cmds):
                if agg is not None:
                    self.tracer.command = c
                times.append(self.command(argv, f"{phase} {c}"))
                if agg is not None:
                    self.tracer.flush(agg)
        return times

    def run_pass(self, i: int, traced: bool) -> tuple[list[float], tracing.Aggregate | None]:
        outdir = self.tmp / f"pass{i}"
        outdir.mkdir()
        agg = tracing.Aggregate() if traced else None
        cmds = workloads.pass_commands(self.workload, self.insts, outdir, self.refdir)
        return self.commands("pass", cmds, agg), agg

    def run(self) -> tuple[dict, list[str]]:
        setup_times = self.setup()
        if self.trace:
            self.tracer = tracing.Tracer()
            setup_agg = tracing.Aggregate()
            (self.tmp / "setup-traced").mkdir()
            self.commands("generate",
                          workloads.generate_commands(self.workload, self.tmp / "setup-traced"),
                          setup_agg)
        self.insts = workloads.prepare_inputs(self.workload, self.seed, self.inputs_dir)
        self.refdir = self.tmp / "ref"
        self.refdir.mkdir()
        self.commands("reference",
                      workloads.reference_commands(self.workload, self.insts, self.refdir))

        passes: list[tuple[bool, list[float], tracing.Aggregate | None]] = []
        start = perf_counter()
        # Start another pass only if a typical pass still ends within --seconds.
        while (len(passes) < MIN_PASSES
               or perf_counter() - start + statistics.median(sum(t) for _, t, _ in passes)
               <= self.seconds):
            traced = self.trace and len(passes) % 2 == 0
            passes.append((traced, *self.run_pass(len(passes), traced)))

        quality = self.check_outputs(len(passes))
        lines = [f"passes: {len(passes)} "
                 + " ".join(f"{'T' if tr else 'U'}{sum(t):.3f}s" for tr, t, _ in passes)]
        if self.trace:
            metrics = self.layer_metrics(passes, setup_agg)
            lines.append("absent: " + (", ".join(self.tracer.absent) or "none"))
        else:
            untraced = [t for tr, t, _ in passes if not tr]
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "solve_s": (sum(statistics.median(col) for col in zip(*untraced)), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MB"),
                "ops_ok_frac": (1 - len(self.ledger.failures) / self.ledger.attempted,
                                "frac"),
                "front_hv_ratio": (quality[0], "frac"),
                "gap_pct": (quality[1], "%"),
            }
        failed = len(self.ledger.failures)
        lines.append(f"ops: attempted {self.ledger.attempted} failed {failed} "
                     f"ops_failed_frac {failed / self.ledger.attempted:.6g}")
        lines += [f"FAILED: {f}" for f in self.ledger.failures[:20]]
        lines += [f"note: {n}" for n in self.notes]
        lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        lines.append("provenance: " + json.dumps(provenance(self.workload, self.seed)))
        result = {"correct": failed == 0, "attempted": self.ledger.attempted,
                  "failed": failed,
                  "metrics": {name: {"value": value, "unit": unit}
                              for name, (value, unit) in metrics.items()}}
        return result, lines

    def check_outputs(self, n_passes: int) -> tuple[float, float]:
        """Untimed checks of every output; returns (front_hv_ratio, gap_pct)."""
        ev, led, wl = self.ev, self.ledger, self.workload
        first = self.tmp / "pass0"
        for f in sorted(first.glob("*.csv")):
            led.check(f"{f.name} identical in all {n_passes} passes",
                      lambda: all((self.tmp / f"pass{i}" / f.name).read_bytes() == f.read_bytes()
                                  for i in range(1, n_passes)))
        hvs, gaps = [], []
        for inst in self.insts:
            program_inst = led.value(f"load {inst.key}", ev.instance.load, inst.path)
            optimum = led.value(
                f"weighted optimum of {inst.key}",
                lambda: ev.exact.weighted_optimum(program_inst, workloads.WEIGHTS).value)
            for name in workloads.front_files(wl, inst):
                rows = led.value(f"read {name}", checks.read_front, first / name)
                if rows is None:
                    continue
                led.check(f"{name} rows re-evaluate and pass the audit",
                          checks.rows_reproduce, ev, program_inst, rows)
                if not led.check(f"{name} is a time-sorted antichain",
                                 checks.sorted_antichain, rows):
                    continue
                if wl == "meta":
                    led.check(f"{name} does not beat the weighted optimum beyond the SOC slack",
                              checks.never_beats_optimum, ev, program_inst, rows,
                              workloads.WEIGHTS, optimum)
                    margin = optimum - checks.weighted(rows[0], workloads.WEIGHTS) \
                        if optimum is not None else 0.0
                    if margin > 0:  # inside the slack or not, show it
                        slack = checks.soc_slack_value(ev, program_inst, rows[0][2],
                                                       workloads.WEIGHTS)
                        self.notes.append(f"{name} beats the weighted optimum by "
                                          f"{margin:.3g} (SOC slack worth {slack:.3g})")
                if wl == "oracle":
                    ref = led.value(f"read {inst.key}-eps-front.csv", checks.read_front,
                                    self.refdir / f"{inst.key}-eps-front.csv") or []
                    led.check(f"{inst.key}-eps-front.csv rows re-evaluate",
                              checks.rows_reproduce, ev, program_inst, ref)
                    led.check(f"{name} dominates no eps-front point beyond grid tolerance",
                              checks.oracle_respects_front, program_inst, rows, ref, inst.grid)
                    led.check(f"{inst.key}-report.csv lists every point",
                              checks.report_complete, first / f"{inst.key}-report.csv",
                              len(rows), len(ref))
                hvs.append(checks.hv_ratio(rows))
                if optimum is not None:
                    gaps.append(checks.gap_pct(rows, workloads.WEIGHTS, optimum))
        return (statistics.fmean(hvs) if hvs else float("nan"),
                statistics.fmean(gaps) if gaps else float("nan"))

    def layer_metrics(self, passes, setup_agg) -> dict:
        traced = [agg for tr, _, agg in passes if tr]
        per_pass = {}
        for name, unit, _needs, fn in tracing.available(self.tracer, tracing.LAYER_METRICS):
            per_pass[name] = ([fn(a) for a in traced], unit)
        self.ledger.record("trace counts repeat in every traced pass",
                           all(len(set(v)) == 1 for v, u in per_pass.values() if u != "s"))
        metrics = {n: (statistics.median(v) if u == "s" else v[0], u)
                   for n, (v, u) in per_pass.items()}
        for name, unit, _needs, fn in tracing.available(self.tracer, tracing.SETUP_METRICS):
            metrics[name] = (fn(setup_agg), unit)
        t_traced = statistics.median(sum(t) for tr, t, _ in passes if tr)
        t_plain = statistics.median(sum(t) for tr, t, _ in passes if not tr)
        metrics["trace_overhead_frac"] = (t_traced / t_plain - 1.0, "frac")
        return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "evroute" / "__init__.py").is_file():
        print(f"perfbench: no evroute package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        result, lines = Bench(args.workload, args.seed, args.seconds,
                              bool(args.trace), tmp).run()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
