"""Population metaheuristics over a continuous route encoding.

A candidate is a flat vector in [0,1]^(n^2 + 3n) for n stations: a
row-major successor-score matrix, per-station charge fractions, and
source/destination selection scores. decode() turns a vector into a
concrete RouteSolution by an argmax walk restricted to edges that actually
exist, one node per layer since edges join consecutive layers, so every
candidate either decodes to a structurally sound path or is explicitly
marked as failed, never to a malformed one.

run_ga and run_pso scalarize the two objectives with caller-supplied
weights and penalize constraint violations, so they search the full
continuous space while reporting only as-good-or-better feasible plans
over time. A SearchConfig sets their population, epochs and seed; the
operator settings are the paper's, fixed as the module constants
P_CROSSOVER, P_MUTATION and MUTATION_SIGMA (GA) and W_START, W_END, C1, C2
and VELOCITY_LIMIT (PSO). They score a whole population per call with
PopulationFitness.scores, which decodes every row as array operations and
hands the decoded plans to model.PlanArrays, the batched SOC recursion and
objectives that the grid oracle also uses. It gives the same floats as
decode() followed by model.penalized_fitness; fitness() is its one-row
case, and decode() with the model's checker stays the scalar reference.
Both make each epoch's seeded draws one epoch ahead on one worker thread,
in the serial order, so a seed still gives the same history: per epoch the
best fitness and its objectives (same scoring call), diversity and
exploration/exploitation.
"""
from __future__ import annotations

import contextlib
import csv
import math
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import model
from .instance import Instance, RouteGraph
from .model import Objectives, PENALTY_BASE, RouteSolution

# The paper's operator settings. run_ga crosses a parent pair over with
# probability P_CROSSOVER and adds N(0, MUTATION_SIGMA) noise to each gene
# with probability P_MUTATION.
P_CROSSOVER = 0.4
P_MUTATION = 0.4
MUTATION_SIGMA = 0.1
# run_pso ramps inertia from W_START to W_END over the epochs, pulls toward
# the personal and global best with weights C1 and C2, and clamps velocity
# to VELOCITY_LIMIT encoding units.
W_START = 0.1
W_END = 0.5
C1 = 2.5
C2 = 2.5
VELOCITY_LIMIT = 0.2

HISTORY_CSV_COLUMNS = ("epoch", "best_fitness", "best_time_h", "best_cost",
                       "diversity", "exploration_pct")


def encoding_dim(graph: RouteGraph) -> int:
    """Length of the candidate vector for this graph: n^2 + 3n."""
    n = graph.n_nodes
    return n * n + 3 * n


@dataclass(frozen=True)
class DecodeFailure:
    """Marker for vectors that do not describe a complete walk."""
    reason: str


def _argmax_node(candidates: Iterable[int], score) -> int:
    # Strict > with candidates visited in ascending id order implements
    # the lowest-id tie break.
    best_u = -1
    best_s = -math.inf
    for u in sorted(candidates):
        s = score(u)
        if s > best_s:
            best_u, best_s = u, s
    return best_u


def decode(instance: Instance, vector: Sequence[float]) -> RouteSolution | DecodeFailure:
    """Turn an encoding vector into a RouteSolution.

    The source is the highest-scoring first-layer node, the destination
    the highest-scoring last-layer node, and each step follows the
    highest-scoring existing out-edge, one node per layer. The charge plan
    carries the charge gene (clamped to [0,1]) of every visited node.
    Returns DecodeFailure when the walk dead-ends or ends at a last-layer
    node other than the destination. A non-finite entry raises ValueError.
    """
    g = instance.graph
    nodes = sorted(g.node_set())
    n = len(nodes)
    pos = {u: i for i, u in enumerate(nodes)}
    vec = np.asarray(vector, dtype=float)
    want = n * n + 3 * n
    if vec.shape != (want,):
        raise ValueError(f"encoding vector must have length {want}, got {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError("encoding vector must be finite")
    x = vec[:n * n]
    y = vec[n * n:n * n + n]
    src_scores = vec[n * n + n:n * n + 2 * n]
    dest_scores = vec[n * n + 2 * n:]

    src = _argmax_node(g.first_layer, lambda u: src_scores[pos[u]])
    dest = _argmax_node(g.last_layer, lambda u: dest_scores[pos[u]])
    path = [src]
    for _ in g.levels[1:]:
        nbrs = g.out_neighbors(path[-1])
        if not nbrs:
            break
        base = pos[path[-1]] * n
        path.append(_argmax_node(nbrs, lambda v: x[base + pos[v]]))
    if path[-1] != dest:
        return DecodeFailure(f"dead end at node {path[-1]} before node {dest}")
    plan = {u: float(min(1.0, max(0.0, y[pos[u]]))) for u in path}
    return RouteSolution(path=tuple(path), charge_plan=plan)


class PopulationFitness:
    """fitness() for a whole population at once, with the same floats.

    Built once per validated instance and weights on model.PlanArrays.
    scores() on a (P, n^2 + 3n) array returns the P values fitness() gives
    row by row, and their objectives: decode()'s argmax walk, one node per
    layer for all rows together, then PlanArrays.soc_objectives, the SOC
    recursion and objectives of the model with every float operation in the
    scalar code's order. A decoded candidate never breaks a structural
    constraint or c13, so its penalty is the sum of its SOC violation
    magnitudes. A non-finite entry raises ValueError.
    """

    def __init__(self, instance: Instance,
                 weights: tuple[float, float] = (0.5, 0.5)):
        self.weights = model.check_weights(weights)
        self.arrays = model.PlanArrays(instance)
        g = instance.graph
        pos = self.arrays.pos
        self.n = self.arrays.n
        self.has_out = self.arrays.adj.any(axis=1)
        self.depth = len(g.levels)
        # Ascending positions, so argmax's first maximum is the lowest id.
        self.first = np.array(sorted(pos[u] for u in g.first_layer))
        self.last = np.array(sorted(pos[u] for u in g.last_layer))

    def scores(self, population) -> tuple[np.ndarray, np.ndarray]:
        """Fitness (P,) and (time, cost) (P, 2), NaN off feasible plans."""
        pop = np.asarray(population, dtype=float)
        n = self.n
        want = n * n + 3 * n
        if pop.ndim != 2 or pop.shape[1] != want:
            raise ValueError(f"population must have shape (P, {want}), got {pop.shape}")
        if not np.isfinite(pop).all():
            raise ValueError("population must be finite")
        rows = np.arange(len(pop))
        x = pop[:, :n * n].reshape(len(pop), n, n)
        y = np.clip(pop[:, n * n:n * n + n], 0.0, 1.0)
        src = self.first[np.argmax(pop[:, n * n + n + self.first], axis=1)]
        dest = self.last[np.argmax(pop[:, n * n + 2 * n + self.last], axis=1)]

        # One (P,) node array per layer. A row decodes when every node it
        # leaves has an out-edge and the walk ends at dest.
        adj = self.arrays.adj
        path = [src]
        decoded = np.ones(len(pop), dtype=bool)
        for _ in range(self.depth - 1):
            cur = path[-1]
            decoded &= self.has_out[cur]
            scores = np.where(adj[cur], x[rows, cur], -np.inf)
            path.append(np.argmax(scores, axis=1))
        decoded &= path[-1] == dest

        penalty, time, cost = self.arrays.soc_objectives(
            path, [y[rows, u] for u in path])
        wt, wc = self.weights
        value = np.where(penalty > 0.0, PENALTY_BASE + penalty, wt * time + wc * cost)
        feasible = (decoded & (penalty == 0.0))[:, None]
        return (np.where(decoded, value, PENALTY_BASE + n),
                np.where(feasible, np.column_stack((time, cost)), np.nan))


def fitness(instance: Instance, vector: Sequence[float],
            weights: tuple[float, float] = (0.5, 0.5)) -> float:
    """Scalar fitness of one encoding vector (lower is better).

    Decodable candidates get model.penalized_fitness of their decoded plan;
    walks that never complete get a penalty above every decodable
    candidate's base. This is PopulationFitness.scores on a one-row
    population.
    """
    row = np.asarray(vector, dtype=float)[None, :]
    return float(PopulationFitness(instance, weights).scores(row)[0][0])


@dataclass(frozen=True)
class SearchConfig:
    """Population size, epoch count and seed of one run_ga or run_pso call."""
    population: int = 1000
    epochs: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.population < 1:
            raise ValueError("population must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class RunHistory:
    """Column-oriented per-epoch trace; row 0 is the initial population."""
    epoch: tuple[int, ...]
    best_fitness: tuple[float, ...]
    best_time_h: tuple[float, ...]
    best_cost: tuple[float, ...]
    diversity: tuple[float, ...]
    exploration_pct: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.epoch)

    @property
    def exploitation_pct(self) -> tuple[float, ...]:
        return tuple(100.0 - e for e in self.exploration_pct)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one metaheuristic run.

    solution/objectives are None when even the best candidate found never
    decoded to a feasible plan (fitness then reflects the penalty).
    """
    solution: RouteSolution | None
    objectives: Objectives | None
    fitness: float
    history: RunHistory

    @property
    def feasible(self) -> bool:
        return self.objectives is not None


def diversity(population) -> float:
    """Mean absolute deviation from the dimension-wise median."""
    pop = np.asarray(population, dtype=float)
    if pop.ndim != 2 or pop.shape[0] == 0:
        raise ValueError("population must be a nonempty 2-d array")
    # np.median's floats from one sort instead of its partition: the middle
    # row, or the mean of the two middle rows.
    mid = len(pop) // 2
    ranked = np.sort(pop, axis=0)
    med = ranked[mid] if len(pop) % 2 else np.mean(ranked[mid - 1:mid + 1], axis=0)
    dev = pop - med
    return float(np.mean(np.abs(dev, out=dev)))


def diversity_metrics(population, div_max: float | None = None
                      ) -> tuple[float, float, float]:
    """(diversity, exploration %, exploitation %) for one snapshot.

    Exploration is diversity relative to the largest diversity seen so far
    (div_max; defaults to this snapshot's own). An all-identical population
    has zero diversity and counts as pure exploitation.
    """
    div = diversity(population)
    peak = div if div_max is None else max(div, div_max)
    explo = 0.0 if peak <= 0.0 else 100.0 * div / peak
    return div, explo, 100.0 - explo


class _Recorder:
    def __init__(self):
        self.rows: list[tuple] = []
        self.div_max = 0.0

    def add(self, epoch: int, best_fit: float, best_obj, population) -> None:
        div, explo, _ = diversity_metrics(population, self.div_max)
        self.div_max = max(self.div_max, div)
        self.rows.append((epoch, float(best_fit), *map(float, best_obj), div, explo))

    def history(self) -> RunHistory:
        cols = tuple(zip(*self.rows))
        return RunHistory(epoch=tuple(int(e) for e in cols[0]),
                          best_fitness=cols[1], best_time_h=cols[2],
                          best_cost=cols[3], diversity=cols[4],
                          exploration_pct=cols[5])


def _result(instance: Instance, best_vec, best_fit: float,
            rec: _Recorder) -> SearchResult:
    decoded = decode(instance, best_vec)
    sol = None if isinstance(decoded, DecodeFailure) else decoded
    obj = None if sol is None else model.try_evaluate(instance, sol)
    if obj is None:
        sol = None
    return SearchResult(solution=sol, objectives=obj,
                        fitness=float(best_fit), history=rec.history())


def _ahead(draw, count: int):
    """Yield draw() count times; one worker thread makes item k+1 while the
    caller works on item k, so the draws keep their serial order. An error in
    draw() is raised at its item. The worker is joined when the generator
    ends or is closed (use contextlib.closing)."""
    slot = []
    free, full = threading.Semaphore(1), threading.Semaphore(0)
    stop = False

    def work():
        for _ in range(count):
            free.acquire()
            if stop:
                return
            try:
                slot.append((draw(), None))
            except BaseException as exc:  # the caller raises it at this item
                slot.append((None, exc))
            full.release()

    thread = threading.Thread(target=work, name="evroute-draws", daemon=True)
    thread.start()
    try:
        for _ in range(count):
            full.acquire()
            item, exc = slot.pop()
            if exc is not None:
                raise exc
            free.release()
            yield item
    finally:
        stop = True
        free.release()
        thread.join()


def run_ga(instance: Instance, cfg: SearchConfig = SearchConfig(),
           weights: tuple[float, float] = (0.5, 0.5)) -> SearchResult:
    """Elitist genetic algorithm on the route encoding.

    Per epoch: size-2 tournament selection, uniform crossover on parent
    pairs with probability P_CROSSOVER, per-gene Gaussian mutation with
    probability P_MUTATION, then the best cfg.population individuals of
    parents plus offspring survive. Deterministic for a given seed.
    """
    rng = np.random.default_rng(cfg.seed)
    dim = encoding_dim(instance.graph)
    n = cfg.population
    score = PopulationFitness(instance, weights)
    pop = rng.random((n, dim))
    fits, objs = score.scores(pop)
    order = np.argsort(fits, kind="stable")
    pop, fits, objs = pop[order], fits[order], objs[order]

    rec = _Recorder()
    rec.add(0, fits[0], objs[0], pop)
    pairs = n // 2

    def draw():
        tour, coins = rng.integers(0, n, size=(n, 2)), rng.random(pairs)
        swap = (rng.random((pairs, dim)) < 0.5) & (coins < P_CROSSOVER)[:, None]
        return (tour, swap, rng.random((n, dim)) < P_MUTATION,
                rng.normal(0.0, MUTATION_SIGMA, size=(n, dim)))

    with contextlib.closing(_ahead(draw, cfg.epochs)) as draws:
        for epoch, (tour, swap, mut, noise) in enumerate(draws, 1):
            first_wins = fits[tour[:, 0]] <= fits[tour[:, 1]]
            off = pop[np.where(first_wins, tour[:, 0], tour[:, 1])]
            # Known defect, kept bit for bit: where swap holds the even child
            # takes parent b's gene, but the odd child never takes parent a's,
            # so it is always a copy of parent b. A fix moves every GA history,
            # the golden digests and meta gap_pct, so it needs its own change.
            np.copyto(off[0:2 * pairs:2], off[1:2 * pairs:2], where=swap)
            np.multiply(noise, mut, out=noise)
            off += noise
            np.clip(off, 0.0, 1.0, out=off)

            off_fits, off_objs = score.scores(off)
            combined = np.vstack([pop, off])
            all_fits = np.concatenate([fits, off_fits])
            # Stable sort prefers incumbents on exact ties.
            order = np.argsort(all_fits, kind="stable")[:n]
            pop, fits = combined[order], all_fits[order]
            objs = np.vstack([objs, off_objs])[order]
            rec.add(epoch, fits[0], objs[0], pop)
    return _result(instance, pop[0], fits[0], rec)


def run_pso(instance: Instance, cfg: SearchConfig = SearchConfig(),
            weights: tuple[float, float] = (0.5, 0.5)) -> SearchResult:
    """Global-best particle swarm on the route encoding.

    Velocities start at zero and are clamped to +/-VELOCITY_LIMIT,
    positions to [0,1]. Inertia ramps linearly from W_START to W_END over
    the epochs; the global best updates synchronously after the whole
    swarm moves. Deterministic for a given seed.
    """
    rng = np.random.default_rng(cfg.seed)
    dim = encoding_dim(instance.graph)
    n = cfg.population
    x = rng.random((n, dim))
    v = np.zeros((n, dim))
    score = PopulationFitness(instance, weights)
    fits, pbest_objs = score.scores(x)
    pbest = x.copy()
    pbest_fits = fits.copy()
    g_idx = int(np.argmin(pbest_fits))
    gbest = pbest[g_idx].copy()
    gbest_fit = float(pbest_fits[g_idx])
    gbest_obj = pbest_objs[g_idx].copy()

    rec = _Recorder()
    rec.add(0, gbest_fit, gbest_obj, x)
    with contextlib.closing(_ahead(lambda: (C1 * rng.random((n, dim)),
                                            C2 * rng.random((n, dim))),
                                   cfg.epochs)) as draws:
        for epoch, (pull_p, pull_g) in enumerate(draws, 1):
            frac = (epoch - 1) / (cfg.epochs - 1) if cfg.epochs > 1 else 0.0
            # In place, the floats of clip(w*v + c1*r1*(pbest-x) + c2*r2*(gbest-x)).
            v *= W_START + (W_END - W_START) * frac
            pull_p *= pbest - x
            pull_g *= gbest - x
            v += pull_p
            v += pull_g
            np.clip(v, -VELOCITY_LIMIT, VELOCITY_LIMIT, out=v)
            x += v
            np.clip(x, 0.0, 1.0, out=x)
            fits, objs = score.scores(x)
            improved = fits < pbest_fits
            pbest[improved] = x[improved]
            pbest_fits[improved] = fits[improved]
            pbest_objs[improved] = objs[improved]
            g_idx = int(np.argmin(pbest_fits))
            if pbest_fits[g_idx] < gbest_fit:
                gbest_fit = float(pbest_fits[g_idx])
                gbest = pbest[g_idx].copy()
                gbest_obj = pbest_objs[g_idx].copy()
            rec.add(epoch, gbest_fit, gbest_obj, x)
    return _result(instance, gbest, gbest_fit, rec)


def write_history_csv(history: RunHistory, path) -> None:
    """Write a run history as CSV (one row per epoch, repr'd floats)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HISTORY_CSV_COLUMNS)
        for i in range(len(history)):
            writer.writerow([history.epoch[i],
                             repr(history.best_fitness[i]),
                             repr(history.best_time_h[i]),
                             repr(history.best_cost[i]),
                             repr(history.diversity[i]),
                             repr(history.exploration_pct[i])])
