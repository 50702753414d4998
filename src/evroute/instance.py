"""Problem instances: vehicle, charging stations, the layered route DAG,
seeded random generation, validation, and JSON serialization.

The trip runs from an implicit origin S to an implicit destination D.
S connects only to layer-0 stations, D is reached only from last-layer
stations, and every station-to-station edge joins consecutive layers, so
the graph is acyclic by construction and every S->D path visits exactly
one station per layer.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Default charger power by level, kW. Station records carry power_kw
# explicitly, so loaded files may override this map.
LEVEL_POWER_KW = {"L1": 7.0, "L2": 22.0, "L3": 50.0}
CHARGER_LEVELS = ("L1", "L2", "L3")

# Sampling parameters for the synthetic instance family.
DIST_MEAN_KM, DIST_SD_KM, DIST_MIN_KM = 300.0, 50.0, 1.0
WAIT_MEAN_H, WAIT_SD_H = 1.0, 0.1
DETOUR_MEAN_KM, DETOUR_SD_KM = 10.0, 1.0
PRICE_MEAN, PRICE_SD, PRICE_MIN = 0.134, 0.02, 0.01


class InstanceFormatError(ValueError):
    """Raised by load() on files that are structurally broken or invalid."""


@dataclass(frozen=True)
class VehicleParams:
    """Vehicle constants: cruise speed, battery size, efficiency, start SOC."""

    speed_kmh: float = 50.0
    capacity_kwh: float = 100.0
    km_per_kwh: float = 6.0
    initial_soc: float = 1.0

    @property
    def range_km(self) -> float:
        """Distance a full battery covers."""
        return self.capacity_kwh * self.km_per_kwh


@dataclass(frozen=True)
class Station:
    """One charging station and its local attributes.

    price is currency per kWh, wait_h is the fixed stop overhead in hours,
    detour_km is the extra driving needed if and only if the vehicle stops
    here to charge.
    """

    id: int
    level: str
    power_kw: float
    price: float
    wait_h: float
    detour_km: float


@dataclass(frozen=True)
class RouteGraph:
    """Layered DAG of stations plus the S/D boundary distances.

    levels is an ordered partition of node ids; edges maps (i, j) to km with
    i and j in consecutive layers; source_dist/dest_dist give the S->i and
    i->D km for layer-0 and last-layer nodes respectively.
    """

    levels: tuple[tuple[int, ...], ...]
    edges: dict[tuple[int, int], float]
    source_dist: dict[int, float]
    dest_dist: dict[int, float]

    def __post_init__(self):
        layer = {}
        for k, nodes in enumerate(self.levels):
            for u in nodes:
                layer[u] = k
        adj: dict[int, list[int]] = {u: [] for u in layer}
        for (i, j) in self.edges:
            adj.setdefault(i, []).append(j)
            adj.setdefault(j, [])
        object.__setattr__(self, "_layer", layer)
        object.__setattr__(self, "_nodes", frozenset(layer))
        object.__setattr__(self, "_adj", {u: tuple(sorted(v)) for u, v in adj.items()})

    def node_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._layer))

    def node_set(self) -> frozenset[int]:
        return self._nodes

    @property
    def n_nodes(self) -> int:
        return len(self._layer)

    def layer_of(self, node: int) -> int:
        return self._layer[node]

    def out_neighbors(self, node: int) -> tuple[int, ...]:
        return self._adj.get(node, ())

    @property
    def first_layer(self) -> tuple[int, ...]:
        return self.levels[0]

    @property
    def last_layer(self) -> tuple[int, ...]:
        return self.levels[-1]


@dataclass(frozen=True)
class Instance:
    """A complete routing problem: vehicle, stations, graph, provenance."""

    params: VehicleParams
    stations: dict[int, Station]
    graph: RouteGraph
    seed: int
    shape: tuple[int, int, float]  # (n_levels, max_per_level, p_edge)

    @property
    def range_km(self) -> float:
        return self.params.range_km


def generate_graph(n_levels: int, max_per_level: int, p_edge: float,
                   rng: np.random.Generator) -> RouteGraph:
    """Sample a layered route DAG.

    Each layer gets 1..max_per_level nodes; each pair of nodes in
    consecutive layers is joined independently with probability p_edge, and
    a layer pair that ends up with no edge gets one uniformly random edge.
    Per-pair edges alone do not chain into a route, so a second repair
    bridges the deepest source-reachable layer to the next with one random
    edge until the last layer is reachable; the result always admits an
    S->D path. Distances are Normal(300, 50) km clamped below at 1 km.
    """
    if n_levels < 1 or max_per_level < 1:
        raise ValueError("n_levels and max_per_level must be >= 1")
    if not (0.0 <= p_edge <= 1.0):
        raise ValueError("p_edge must be in [0, 1]")
    sizes = rng.integers(1, max_per_level + 1, size=n_levels)
    levels: list[tuple[int, ...]] = []
    next_id = 0
    for s in sizes:
        levels.append(tuple(range(next_id, next_id + int(s))))
        next_id += int(s)

    edges: dict[tuple[int, int], float] = {}
    for k in range(n_levels - 1):
        prev, cur = levels[k], levels[k + 1]
        draws = rng.random((len(prev), len(cur)))
        pairs = [(prev[a], cur[b])
                 for a in range(len(prev)) for b in range(len(cur))
                 if draws[a, b] <= p_edge]
        if not pairs:
            a = int(rng.integers(len(prev)))
            b = int(rng.integers(len(cur)))
            pairs = [(prev[a], cur[b])]
        dists = np.clip(rng.normal(DIST_MEAN_KM, DIST_SD_KM, size=len(pairs)),
                        DIST_MIN_KM, None)
        for pair, d in zip(pairs, dists):
            edges[pair] = float(d)

    while n_levels > 1:
        seen = _reachable(levels, edges)
        if seen & set(levels[-1]):
            break
        # No reachable node in layer deepest+1, so any bridge extends reach.
        deepest = max(k for k, layer in enumerate(levels)
                      if any(u in seen for u in layer))
        from_cands = [u for u in levels[deepest] if u in seen]
        a = from_cands[int(rng.integers(len(from_cands)))]
        b = levels[deepest + 1][int(rng.integers(len(levels[deepest + 1])))]
        edges[(a, b)] = float(max(DIST_MIN_KM,
                                  rng.normal(DIST_MEAN_KM, DIST_SD_KM)))

    src = np.clip(rng.normal(DIST_MEAN_KM, DIST_SD_KM, size=len(levels[0])),
                  DIST_MIN_KM, None)
    dst = np.clip(rng.normal(DIST_MEAN_KM, DIST_SD_KM, size=len(levels[-1])),
                  DIST_MIN_KM, None)
    source_dist = {u: float(d) for u, d in zip(levels[0], src)}
    dest_dist = {u: float(d) for u, d in zip(levels[-1], dst)}
    return RouteGraph(tuple(levels), edges, source_dist, dest_dist)


def generate_instance(shape: tuple[int, int, float],
                      params: VehicleParams = VehicleParams(),
                      seed: int = 0) -> Instance:
    """Generate a full instance deterministically from (shape, seed).

    Station attributes: level uniform over L1/L2/L3 (power from LEVEL_POWER_KW),
    wait Normal(1.0, 0.1) h clamped at 0, detour Normal(10, 1) km clamped at
    0, price Normal(0.134, 0.02) clamped below at 0.01.
    """
    n_levels, max_per_level, p_edge = shape
    rng = np.random.default_rng(seed)
    graph = generate_graph(int(n_levels), int(max_per_level), float(p_edge), rng)
    nodes = graph.node_ids()
    n = len(nodes)
    level_idx = rng.integers(0, len(CHARGER_LEVELS), size=n)
    waits = np.clip(rng.normal(WAIT_MEAN_H, WAIT_SD_H, size=n), 0.0, None)
    detours = np.clip(rng.normal(DETOUR_MEAN_KM, DETOUR_SD_KM, size=n), 0.0, None)
    prices = np.clip(rng.normal(PRICE_MEAN, PRICE_SD, size=n), PRICE_MIN, None)
    stations = {}
    for pos, u in enumerate(nodes):
        lvl = CHARGER_LEVELS[int(level_idx[pos])]
        stations[u] = Station(id=u, level=lvl, power_kw=LEVEL_POWER_KW[lvl],
                              price=float(prices[pos]), wait_h=float(waits[pos]),
                              detour_km=float(detours[pos]))
    return Instance(params=params, stations=stations, graph=graph,
                    seed=int(seed),
                    shape=(int(n_levels), int(max_per_level), float(p_edge)))


def _reachable(levels, edges) -> set[int]:
    """Nodes reachable from layer 0. Edges join consecutive layers, so one
    sweep over the layers, each extending the set by one layer, reaches
    them all."""
    seen = set(levels[0])
    for layer in levels[1:]:
        members = set(layer)
        seen |= {j for i, j in edges if i in seen and j in members}
    return seen


def validate(instance: Instance) -> list[str]:
    """Check every structural invariant; returns one message per violation.

    Empty list means the instance is well formed and at least one S->D
    path exists.
    """
    errs: list[str] = []
    p = instance.params
    for name, value in (("speed_v", p.speed_kmh), ("capacity_C", p.capacity_kwh),
                        ("mileage_gamma", p.km_per_kwh)):
        if not 0 < value < math.inf:
            errs.append(f"params.{name} must be > 0 and finite, got {value}")
    if not errs and not 0 < p.range_km < math.inf:
        errs.append("params.capacity_C * params.mileage_gamma (the range) must be "
                    f"> 0 and finite, got {p.range_km}")
    if not (0.0 <= p.initial_soc <= 1.0):
        errs.append(f"params.initial_soc_alpha must be in [0, 1], got {p.initial_soc}")

    g = instance.graph
    if not g.levels:
        return errs + ["graph.levels is empty"]
    nodes = set()
    for k, layer in enumerate(g.levels):
        if not layer:
            errs.append(f"graph.levels[{k}] is empty")
        for u in layer:
            if u in nodes:
                errs.append(f"node {u} appears in more than one layer")
            nodes.add(u)

    if set(instance.stations) != nodes:
        missing = sorted(nodes - set(instance.stations))
        extra = sorted(set(instance.stations) - nodes)
        if missing:
            errs.append(f"stations missing for nodes {missing}")
        if extra:
            errs.append(f"stations {extra} are not graph nodes")

    for u, st in sorted(instance.stations.items()):
        if st.id != u:
            errs.append(f"station keyed {u} has id {st.id}")
        if st.level not in CHARGER_LEVELS:
            errs.append(f"station {u} has unknown level {st.level!r}")
        if not 0 < st.power_kw < math.inf:
            errs.append(f"station {u} power_kw must be > 0 and finite, got {st.power_kw}")
        for name in ("price", "wait_h", "detour_km"):
            value = getattr(st, name)
            if not 0 <= value < math.inf:
                errs.append(f"station {u} {name} must be >= 0 and finite, got {value}")

    for (i, j), d in sorted(g.edges.items()):
        if i not in nodes or j not in nodes:
            errs.append(f"edge ({i}, {j}) references unknown node")
            continue
        if g.layer_of(j) != g.layer_of(i) + 1:
            errs.append(f"edge ({i}, {j}) goes from layer {g.layer_of(i)} to "
                        f"layer {g.layer_of(j)}; edges must join consecutive layers")
        if not 0 < d < math.inf:
            errs.append(f"edge ({i}, {j}) distance must be > 0 and finite, got {d}")

    if set(g.source_dist) != set(g.first_layer):
        errs.append("graph.source_dist keys must be exactly the layer-0 nodes")
    if set(g.dest_dist) != set(g.last_layer):
        errs.append("graph.dest_dist keys must be exactly the last-layer nodes")
    for side, dists in (("source_dist", g.source_dist), ("dest_dist", g.dest_dist)):
        for u, d in sorted(dists.items()):
            if not 0 < d < math.inf:
                errs.append(f"graph.{side}[{u}] must be > 0 and finite, got {d}")

    n_levels, max_per_level, p_edge = instance.shape
    if len(g.levels) != n_levels:
        errs.append(f"shape says {n_levels} levels but graph has {len(g.levels)}")
    if any(len(l) > max_per_level for l in g.levels):
        errs.append(f"some layer exceeds shape max_per_level={max_per_level}")
    if not (0.0 <= p_edge <= 1.0):
        errs.append(f"shape p_edge must be in [0, 1], got {p_edge}")

    if errs:
        return errs
    # No trip drives more than every edge and detour plus the longest
    # source and destination legs, nor stops at more than every station,
    # each buying a full battery.
    stations = instance.stations.values()
    km = (sum(g.edges.values()) + sum(st.detour_km for st in stations)
          + max(g.source_dist.values()) + max(g.dest_dist.values()))
    drive_h = km / p.speed_kmh
    if not drive_h < math.inf:
        errs.append(f"params.speed_v = {p.speed_kmh} gives an infinite time for the "
                    f"{km} km of edges, detours and end legs")
    elif not drive_h + sum(st.wait_h + p.capacity_kwh / st.power_kw
                           for st in stations) < math.inf:
        errs.append("station wait_h and params.capacity_C / power_kw give an "
                    "infinite charging time")
    if not sum(p.capacity_kwh * st.price for st in stations) < math.inf:
        errs.append("params.capacity_C * station price gives an infinite charging cost")
    if not _reachable(g.levels, g.edges) & set(g.last_layer):
        errs.append("no S->D path exists in the graph")
    return errs


def _instance_to_dict(instance: Instance) -> dict:
    g = instance.graph
    return {
        "params": {
            "speed_v": instance.params.speed_kmh,
            "capacity_C": instance.params.capacity_kwh,
            "mileage_gamma": instance.params.km_per_kwh,
            "initial_soc_alpha": instance.params.initial_soc,
        },
        "stations": [
            {"id": st.id, "level": st.level, "power_kw": st.power_kw,
             "price": st.price, "wait_h": st.wait_h, "detour_km": st.detour_km}
            for _, st in sorted(instance.stations.items())
        ],
        "graph": {
            "levels": [list(l) for l in g.levels],
            "edges": [[i, j, d] for (i, j), d in sorted(g.edges.items())],
            "source_dist": {str(u): d for u, d in sorted(g.source_dist.items())},
            "dest_dist": {str(u): d for u, d in sorted(g.dest_dist.items())},
        },
        "seed": instance.seed,
        "shape": list(instance.shape),
    }


def save(instance: Instance, destination: str | Path) -> None:
    """Write the instance as JSON. load(save(x)) reproduces x exactly."""
    text = json.dumps(_instance_to_dict(instance), indent=2, sort_keys=True)
    Path(destination).write_text(text + "\n", encoding="utf-8")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise InstanceFormatError(f"missing field {where}.{key}")
    return mapping[key]


def load(source: str | Path) -> Instance:
    """Read an instance JSON file; raises InstanceFormatError on schema
    problems (naming the offending field), on a field of the wrong type,
    and on invalid data (listing every violation)."""
    try:
        raw = json.loads(Path(source).read_text(encoding="utf-8"))
    except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
        raise InstanceFormatError(f"not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise InstanceFormatError("top level must be a JSON object")
    try:
        inst = _instance_from_dict(raw)
    except InstanceFormatError:
        raise
    except (TypeError, ValueError, AttributeError, OverflowError) as e:
        raise InstanceFormatError(f"wrongly typed field: {e}") from e
    errs = validate(inst)
    if errs:
        raise InstanceFormatError("invalid instance: " + "; ".join(errs))
    return inst


def _instance_from_dict(raw: dict) -> Instance:
    pr = _require(raw, "params", "$")
    params = VehicleParams(
        speed_kmh=float(_require(pr, "speed_v", "params")),
        capacity_kwh=float(_require(pr, "capacity_C", "params")),
        km_per_kwh=float(_require(pr, "mileage_gamma", "params")),
        initial_soc=float(_require(pr, "initial_soc_alpha", "params")),
    )

    stations = {}
    for idx, rec in enumerate(_require(raw, "stations", "$")):
        where = f"stations[{idx}]"
        st = Station(
            id=int(_require(rec, "id", where)),
            level=str(_require(rec, "level", where)),
            power_kw=float(_require(rec, "power_kw", where)),
            price=float(_require(rec, "price", where)),
            wait_h=float(_require(rec, "wait_h", where)),
            detour_km=float(_require(rec, "detour_km", where)),
        )
        if st.id in stations:
            raise InstanceFormatError(f"{where} repeats station id {st.id}")
        stations[st.id] = st

    gr = _require(raw, "graph", "$")
    levels = tuple(tuple(int(u) for u in l)
                   for l in _require(gr, "levels", "graph"))
    edges = {}
    for idx, item in enumerate(_require(gr, "edges", "graph")):
        if len(item) != 3:
            raise InstanceFormatError(f"graph.edges[{idx}] must be [i, j, d]")
        i, j, d = item
        key = (int(i), int(j))
        if key in edges:
            raise InstanceFormatError(f"graph.edges[{idx}] repeats edge {key}")
        edges[key] = float(d)
    source_dist = {int(u): float(d)
                   for u, d in _require(gr, "source_dist", "graph").items()}
    dest_dist = {int(u): float(d)
                 for u, d in _require(gr, "dest_dist", "graph").items()}

    shape_raw = _require(raw, "shape", "$")
    if len(shape_raw) != 3:
        raise InstanceFormatError("shape must be [n_levels, max_per_level, p_edge]")
    return Instance(
        params=params,
        stations=stations,
        graph=RouteGraph(levels, edges, source_dist, dest_dist),
        seed=int(_require(raw, "seed", "$")),
        shape=(int(shape_raw[0]), int(shape_raw[1]), float(shape_raw[2])),
    )
