"""The loop form of `stgw.synth.generate`, kept as an oracle.

This is the generator that built its edge set in Python: kNN row by row,
Erdős–Rényi one `rng.random()` per pair, and components joined by a double
loop over the cross pairs, then smoothed over a dense adjacency.  Tests
compare `stgw.synth.generate` against it.
"""

import numpy as np
import scipy.sparse as sp

from stgw.graphs import CaseMatrix, NodeRecord, RouteGraph, build_route_graph
from stgw.synth import BASE_RATE, RATE_SPREAD, SyntheticSpec


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


def _first_component(adjacency: sp.csr_matrix) -> np.ndarray:
    """Mask of the nodes joined to node 0 by a path in the symmetric `adjacency`."""
    reached = np.zeros(adjacency.shape[0], dtype=bool)
    reached[0] = True
    frontier = reached.copy()
    while frontier.any():
        frontier = (adjacency @ frontier > 0) & ~reached
        reached |= frontier
    return reached


def _connect_components(edges: set[tuple[int, int]], positions: np.ndarray) -> None:
    """Join node 0's component to the rest by the geometrically closest cross pair
    until connected."""
    n = len(positions)
    while True:
        rows = np.array([e[0] for e in edges] + [e[1] for e in edges], dtype=int)
        cols = np.array([e[1] for e in edges] + [e[0] for e in edges], dtype=int)
        adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
        first = _first_component(adj)
        if first.all():
            return
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
