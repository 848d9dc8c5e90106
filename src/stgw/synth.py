"""Synthetic dataset generator: planted graphs with neighbor-correlated series.

Node series mix a graph-diffused latent factor with independent noise, so the
correlation between two series decays with hop distance; that is exactly the
structure the attention network must exploit to separate edges from 2-3 hop
negative pairs.  Generation is fully deterministic under the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

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
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
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


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """dx·dx + dy·dy between each point of `a` (rows) and each point of `b` (columns)."""
    dx = a[:, None, 0] - b[None, :, 0]
    dy = a[:, None, 1] - b[None, :, 1]
    return np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)  # two (m, k) arrays


def _first_component(adjacency: sp.csr_matrix, start: int = 0) -> np.ndarray:
    """Mask of the nodes joined to node `start` by a path in the symmetric `adjacency`."""
    reached = np.zeros(adjacency.shape[0], dtype=bool)
    reached[start] = True
    frontier = reached.copy()
    while frontier.any():
        frontier = (adjacency @ frontier > 0) & ~reached
        reached |= frontier
    return reached


def _joined(pairs: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """`pairs` plus, while node 0's component is not everything, the closest pair
    between it and the rest, ties going to the smaller (min, max) index pair.

    Each outside node keeps its closest inside distance and partner (the smaller
    index on a tie), updated from the nodes that each join brings inside.
    """
    n = len(positions)
    ends = np.concatenate((pairs, pairs[:, ::-1]))
    adjacency = sp.csr_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(n, n))
    reached, joins = _first_component(adjacency), [pairs]
    entered = np.flatnonzero(reached)
    nearest, partner = np.full(n, np.inf), np.zeros(n, dtype=np.int64)
    while not reached.all():
        outside = np.flatnonzero(~reached)
        d2 = _squared_distances(positions[entered], positions[outside])
        first = d2.argmin(axis=0)  # the smallest index among tied minima
        d2, candidate = d2[first, np.arange(len(outside))], entered[first]
        known, known_partner = nearest[outside], partner[outside]
        closer = (d2 < known) | ((d2 == known) & (candidate < known_partner))
        nearest[outside[closer]], partner[outside[closer]] = d2[closer], candidate[closer]
        tied = outside[nearest[outside] == nearest[outside].min()]
        lo, hi = np.minimum(tied, partner[tied]), np.maximum(tied, partner[tied])
        best = np.lexsort((hi, lo))[0]
        joins.append([[lo[best], hi[best]]])
        # the join adds the whole original component of its outside end
        component = _first_component(adjacency, tied[best])
        reached |= component
        entered = np.flatnonzero(component)
    return np.concatenate(joins)


def _diffused_factors(closed: sp.csr_matrix, weeks: int, rng: np.random.Generator) -> np.ndarray:
    """Latent node factors smoothed along the closed neighborhoods `closed`; rows
    standardized over time."""
    mix = 0.6  # share of each of the two smoothing rounds taken from the neighbours
    hat = closed.astype(float)
    sizes = np.diff(hat.indptr)
    hat.data /= np.repeat(sizes, sizes)
    H = rng.standard_normal((hat.shape[0], weeks))
    for _ in range(2):
        H = (1.0 - mix) * H + mix * (hat @ H)
    H -= H.mean(axis=1, keepdims=True)
    std = H.std(axis=1, keepdims=True)
    std[std == 0] = 1.0
    return H / std


def generate(spec: SyntheticSpec) -> tuple[RouteGraph, CaseMatrix]:
    """Build the planted graph and the raw (count-valued) case matrix."""
    n = spec.nodes
    rng = np.random.default_rng(spec.seed)
    positions = rng.uniform(size=(n, 2))
    if spec.mode == "geometric":
        d2 = _squared_distances(positions, positions)
        np.fill_diagonal(d2, np.inf)
        k = min(spec.knn, n - 1)
        pairs = np.column_stack((np.arange(n).repeat(k),
                                 np.argsort(d2, axis=1)[:, :k].ravel()))
    else:
        i, j = np.triu_indices(n, 1)
        keep = rng.random(i.size) < spec.density
        pairs = np.column_stack((i[keep], j[keep]))

    populations = rng.integers(5_000, 120_000, size=n)
    nodes = [
        NodeRecord(
            node_id=i + 1,
            name=f"town_{i + 1:03d}",
            lat=41.5 + positions[i, 1],
            lon=-73.0 + 2.0 * positions[i, 0],
            population=int(populations[i]),
        )
        for i in range(n)
    ]
    graph = build_route_graph(nodes, _joined(pairs, positions) + 1)

    factors = _diffused_factors(graph.closed_neighborhoods(), spec.weeks, rng)
    noise = rng.standard_normal((n, spec.weeks))
    series = np.sqrt(spec.rho) * factors + np.sqrt(1.0 - spec.rho) * noise
    rates = np.maximum(BASE_RATE + RATE_SPREAD * series, 0.0)

    counts = np.rint(rates * populations[:, None] / 1000.0)
    for a in spec.anomalies:
        i, weeks = graph.index_of(a.node_id), slice(a.week_lo - 1, a.week_hi)
        with np.errstate(over="ignore"):
            counts[i, weeks] = np.rint(counts[i, weeks] * a.multiplier)
        if not np.isfinite(counts[i, weeks]).all():
            raise ValidationError(f"anomaly multiplier {a.multiplier!r} overflows node "
                                  f"{a.node_id}'s counts over weeks {a.week_lo}..{a.week_hi}")
    return graph, CaseMatrix(values=counts, weeks=spec.weeks)


def write_dataset(spec: SyntheticSpec, nodes_path, edges_path, cases_path) -> tuple[RouteGraph, CaseMatrix]:
    """Generate, then create the files' directories and persist the three input CSVs;
    returns what was written."""
    from . import dataio

    graph, cases = generate(spec)
    for path in (nodes_path, edges_path, cases_path):
        dataio.ensure_dir(os.path.dirname(os.path.abspath(path)))
    dataio.write_nodes(nodes_path, graph.nodes)
    dataio.write_edges(edges_path, graph)
    dataio.write_cases(cases_path, graph, cases)
    return graph, cases
