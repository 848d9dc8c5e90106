"""Synthetic dataset generator: planted graphs with neighbor-correlated series.

Node series mix a graph-diffused latent factor with independent noise, so the
correlation between two series decays with hop distance; that is exactly the
structure the attention network must exploit to separate edges from 2-3 hop
negative pairs.  Generation is fully deterministic under the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import ValidationError
from .graphs import CaseMatrix, NodeRecord, RouteGraph, build_route_graph

BASE_RATE = 2.0    # per-thousand baseline of the generated series
RATE_SPREAD = 1.0  # per-thousand standard deviation around the baseline


@dataclass(eq=False)
class AnomalyInjection:
    """Multiply one node's counts over an inclusive 1-based week range."""

    node_id: int
    week_lo: int
    week_hi: int
    multiplier: float

    def __post_init__(self):
        if not (np.isfinite(self.multiplier) and self.multiplier > 0):
            raise ValidationError(
                f"anomaly multiplier must be positive and finite, got {self.multiplier!r}")
        if not 1 <= self.week_lo <= self.week_hi:
            raise ValidationError(f"anomaly week range {self.week_lo}..{self.week_hi} "
                                  "must be 1-based and ordered")


@dataclass(eq=False)
class SyntheticSpec:
    nodes: int = 60
    weeks: int = 41
    rho: float = 0.9
    seed: int = 42
    mode: str = "geometric"      # "geometric" (kNN on random points) or "density" (ER)
    knn: int = 5
    density: float = 0.08
    anomalies: list[AnomalyInjection] = field(default_factory=list)

    def __post_init__(self):
        if self.nodes < 2:
            raise ValidationError("need at least 2 nodes")
        if self.weeks < 2:
            raise ValidationError("need at least 2 weeks")
        if not 0.0 <= self.rho <= 1.0:
            raise ValidationError("rho must lie in [0, 1]")
        if self.mode not in ("geometric", "density"):
            raise ValidationError(f"unknown graph mode {self.mode!r}")
        if self.knn < 0:
            raise ValidationError(f"knn must be non-negative, got {self.knn}")
        if not 0.0 <= self.density <= 1.0:
            raise ValidationError(f"density must lie in [0, 1], got {self.density}")
        for a in self.anomalies:
            if not 1 <= a.node_id <= self.nodes:
                raise ValidationError(f"anomaly node {a.node_id} outside 1..{self.nodes}")
            if a.week_hi > self.weeks:
                raise ValidationError(f"anomaly week range {a.week_lo}..{a.week_hi} exceeds "
                                      f"the series length {self.weeks}")


def _knn_edges(positions: np.ndarray, k: int) -> set[tuple[int, int]]:
    n = len(positions)
    d2 = ((positions[:, None, :] - positions[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    edges = set()
    for i in range(n):
        for j in np.argsort(d2[i])[:min(k, n - 1)]:
            edges.add((min(i, int(j)), max(i, int(j))))
    return edges


def _er_edges(n: int, density: float, rng: np.random.Generator) -> set[tuple[int, int]]:
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.add((i, j))
    return edges


def _connect_components(edges: set[tuple[int, int]], positions: np.ndarray) -> None:
    """Join components by their geometrically closest cross pair until connected."""
    n = len(positions)
    while True:
        rows = np.array([e[0] for e in edges] + [e[1] for e in edges], dtype=int)
        cols = np.array([e[1] for e in edges] + [e[0] for e in edges], dtype=int)
        adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
        n_comp, labels = connected_components(adj, directed=False)
        if n_comp <= 1:
            return
        first = labels == labels[0]
        best = None
        for i in np.flatnonzero(first):
            for j in np.flatnonzero(~first):
                dist = float(((positions[i] - positions[j]) ** 2).sum())
                key = (dist, min(i, j), max(i, j))
                if best is None or key < best:
                    best = key
        edges.add((best[1], best[2]))


def _diffused_factors(adjacency: np.ndarray, weeks: int, rng: np.random.Generator) -> np.ndarray:
    """Latent node factors smoothed along edges; rows standardized over time."""
    mix = 0.6  # share of each of the two smoothing rounds taken from the neighbours
    n = adjacency.shape[0]
    hat = adjacency + np.eye(n)
    hat /= hat.sum(axis=1, keepdims=True)
    H = rng.standard_normal((n, weeks))
    for _ in range(2):
        H = (1.0 - mix) * H + mix * (hat @ H)
    H -= H.mean(axis=1, keepdims=True)
    std = H.std(axis=1, keepdims=True)
    std[std == 0] = 1.0
    return H / std


def generate(spec: SyntheticSpec) -> tuple[RouteGraph, CaseMatrix]:
    """Build the planted graph and the raw (count-valued) case matrix."""
    rng = np.random.default_rng(spec.seed)
    positions = rng.uniform(size=(spec.nodes, 2))
    if spec.mode == "geometric":
        edge_set = _knn_edges(positions, spec.knn)
    else:
        edge_set = _er_edges(spec.nodes, spec.density, rng)
    _connect_components(edge_set, positions)

    populations = rng.integers(5_000, 120_000, size=spec.nodes)
    nodes = [
        NodeRecord(
            node_id=i + 1,
            name=f"town_{i + 1:03d}",
            lat=41.5 + positions[i, 1],
            lon=-73.0 + 2.0 * positions[i, 0],
            population=int(populations[i]),
        )
        for i in range(spec.nodes)
    ]
    id_edges = [(i + 1, j + 1) for i, j in sorted(edge_set)]
    graph = build_route_graph(nodes, id_edges)

    factors = _diffused_factors(graph.dense_adjacency(), spec.weeks, rng)
    noise = rng.standard_normal((spec.nodes, spec.weeks))
    series = np.sqrt(spec.rho) * factors + np.sqrt(1.0 - spec.rho) * noise
    rates = np.maximum(BASE_RATE + RATE_SPREAD * series, 0.0)

    counts = np.rint(rates * populations[:, None] / 1000.0)
    for a in spec.anomalies:
        i = graph.index_of(a.node_id)
        counts[i, a.week_lo - 1:a.week_hi] = np.rint(
            counts[i, a.week_lo - 1:a.week_hi] * a.multiplier
        )
    return graph, CaseMatrix(values=counts, weeks=spec.weeks)


def write_dataset(spec: SyntheticSpec, nodes_path, edges_path, cases_path) -> tuple[RouteGraph, CaseMatrix]:
    """Generate and persist the three input CSVs; returns what was written."""
    from . import dataio

    graph, cases = generate(spec)
    dataio.write_nodes(nodes_path, graph.nodes)
    dataio.write_edges(edges_path, graph)
    dataio.write_cases(cases_path, graph, cases)
    return graph, cases
