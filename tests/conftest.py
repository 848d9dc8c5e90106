import numpy as np
import pytest

from stgw.graphs import NodeRecord, RouteGraph, TransitionMatrix, build_route_graph


def make_nodes(n, population=1000):
    return [NodeRecord(i + 1, f"n{i + 1}", 42.0 + 0.01 * i, -72.0 + 0.01 * i, population)
            for i in range(n)]


def path_graph(n) -> RouteGraph:
    return build_route_graph(make_nodes(n), [(i, i + 1) for i in range(1, n)])


def random_graph(n, p, rng) -> RouteGraph:
    """Connected-ish random graph: a chain plus independent extra edges."""
    edges = [(i, i + 1) for i in range(1, n)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < p:
                edges.append((i, j))
    return build_route_graph(make_nodes(n), edges)


def uniform_transition(graph: RouteGraph) -> TransitionMatrix:
    """Row-stochastic P spreading mass evenly over each closed neighborhood."""
    A = graph.dense_adjacency()
    np.fill_diagonal(A, 1.0)
    return TransitionMatrix(P=A / A.sum(axis=1, keepdims=True))


def random_transition(graph: RouteGraph, rng) -> TransitionMatrix:
    """Row-stochastic P with random positive weights on each closed neighborhood."""
    A = graph.dense_adjacency()
    np.fill_diagonal(A, 1.0)
    P = A * rng.uniform(0.1, 1.0, A.shape)
    return TransitionMatrix(P=P / P.sum(axis=1, keepdims=True))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
