"""The three workloads: their instances, the seeded input variants and the
fixed command set of one pass.

Every workload runs the CLI on a fixed list of (preset, instance seed)
pairs. The default workload seed (0) hands the program the files that
``evroute generate`` writes for those pairs. Any other seed hands it a
metamorphic variant of each file, drawn from the seed:

* node ids are remapped by a random strictly increasing map, so every
  id-ordered walk (path enumeration, the GA/PSO encoding) keeps its order;
* every distance, the detours, the speed and the km per kWh are scaled by
  one power of two, which leaves every trip time and state of charge the
  same to the last bit.

So the bytes the program reads change with the seed while the work it
does and the fronts it must find do not: run-to-run spread measures the
machine, not the luck of a draw of instances whose eps-front cost varies
ten-fold from seed to seed. Prices are left alone, since the program
compares costs against absolute tolerances.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

PRESETS = ("instance1", "instance2", "instance3", "instance4")
DEFAULT_SEED = 0

# Why each workload exists is recorded in BENCHMARK.json.
INSTANCES = {
    "front": tuple((p, s) for p in PRESETS for s in (101, 202, 303)),
    "meta": (("instance1", 108), ("instance4", 202)),
    "oracle": (("instance1", 108), ("instance2", 101), ("instance2", 303)),
}
WORKLOADS = tuple(INSTANCES)

# GA/PSO settings of the acceptance runs: 100 x 300, the first acceptance seed.
META_METHODS = ("ga", "pso")
WEIGHTS = (1.0, 1.0)
META_ARGS = ("--pop", "100", "--epochs", "300", "--seed", "100",
             "--weights", f"{WEIGHTS[0]},{WEIGHTS[1]}")
# The oracle grid of each oracle instance: the finest whose candidate count,
# sum over S->D paths of (grid+1)^k, stays within 1e5. instance1/108 has five
# 2-station paths, so grid 140 gives 5 * 141^2 = 99,405 candidates; instance2/101
# and instance2/303 have six 4-station paths each, so grid 10 gives
# 6 * 11^4 = 87,846. Fixed here so that a change to `generate` cannot
# silently change the oracle workload.
ORACLE_GRIDS = {("instance1", 108): 140, ("instance2", 101): 10, ("instance2", 303): 10}


@dataclass(frozen=True)
class Inst:
    """One instance file the program reads, and its oracle grid."""

    key: str
    path: Path
    grid: int | None


def generate_commands(workload: str, outdir: Path) -> list[list[str]]:
    return [["generate", "--preset", preset, "--seed", str(seed),
             "--out", str(outdir / f"{preset}-{seed}.json")]
            for preset, seed in INSTANCES[workload]]


def apply_variant(path: Path, rng: random.Random) -> None:
    """Rewrite one instance file as a seeded metamorphic variant."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    ids = sorted(st["id"] for st in doc["stations"])
    remap, nxt = {}, rng.randrange(0, 50)
    for u in ids:
        remap[u] = nxt
        nxt += rng.randrange(1, 10)
    km = 2.0 ** rng.choice((-2, -1, 1, 2))

    params = doc["params"]
    params["speed_v"] *= km
    params["mileage_gamma"] *= km
    for st in doc["stations"]:
        st["id"] = remap[st["id"]]
        st["detour_km"] *= km
    g = doc["graph"]
    g["levels"] = [[remap[u] for u in layer] for layer in g["levels"]]
    g["edges"] = [[remap[i], remap[j], d * km] for i, j, d in g["edges"]]
    for side in ("source_dist", "dest_dist"):
        g[side] = {str(remap[int(u)]): d * km for u, d in g[side].items()}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def prepare_inputs(workload: str, seed: int, outdir: Path) -> list[Inst]:
    """Turn freshly generated files into the workload's inputs."""
    insts = []
    for preset, iseed in INSTANCES[workload]:
        key = f"{preset}-{iseed}"
        path = outdir / f"{key}.json"
        if seed != DEFAULT_SEED:
            apply_variant(path, random.Random(f"{workload}:{seed}:{key}"))
        insts.append(Inst(key, path, ORACLE_GRIDS.get((preset, iseed))))
    return insts


def reference_commands(workload: str, insts: list[Inst], refdir: Path) -> list[list[str]]:
    """Untimed commands whose outputs the passes compare against."""
    if workload != "oracle":
        return []
    return [["solve", "--instance", str(i.path), "--method", "eps-front",
             "--out", str(refdir / f"{i.key}-eps-front.csv")] for i in insts]


def pass_commands(workload: str, insts: list[Inst], outdir: Path,
                  refdir: Path) -> list[list[str]]:
    """The fixed command set of one pass; every output lands in outdir."""
    cmds = []
    for i in insts:
        if workload == "front":
            cmds.append(["solve", "--instance", str(i.path), "--method", "eps-front",
                         "--out", str(outdir / f"{i.key}-eps-front.csv")])
        elif workload == "meta":
            for m in META_METHODS:
                cmds.append(["solve", "--instance", str(i.path), "--method", m,
                             *META_ARGS,
                             "--out", str(outdir / f"{i.key}-{m}.csv"),
                             "--history", str(outdir / f"{i.key}-{m}-history.csv")])
        else:
            oracle = outdir / f"{i.key}-oracle.csv"
            cmds.append(["solve", "--instance", str(i.path), "--method", "oracle",
                         "--grid", str(i.grid), "--out", str(oracle)])
            cmds.append(["compare", str(oracle), str(refdir / f"{i.key}-eps-front.csv"),
                         "--report", str(outdir / f"{i.key}-report.csv")])
    return cmds


def front_files(workload: str, inst: Inst) -> list[str]:
    """Front CSVs a pass writes for one instance (file names in outdir)."""
    if workload == "front":
        return [f"{inst.key}-eps-front.csv"]
    if workload == "meta":
        return [f"{inst.key}-{m}.csv" for m in META_METHODS]
    return [f"{inst.key}-oracle.csv"]
