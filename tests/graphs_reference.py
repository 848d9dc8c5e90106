"""Dense, per-slice and assembled forms of the graph computations, kept as oracles.

These are the loop `strong_product`, the dense `check_support`, the dense
powers of `influential_scores` and the dense-adjacency `anomaly_metric` that
`stgw` used while P was an N x N array; they take P as a dense ndarray.
`product_weights` and `symmetrized_laplacian` assemble the (T*N) x (T*N) CSR
matrices that `stgw` used before the product Laplacian became matrix-free, and
`StackedLaplacian` is the matrix-free form that multiplied slice-major vectors.
Tests compare the code in `stgw` against them.
"""

import numpy as np
import scipy.sparse as sp

from stgw.errors import ValidationError


def strong_product_weights(base, P: np.ndarray, slices: int) -> sp.csr_matrix:
    """Product weights built slice by slice from COO triples."""
    n = base.n
    rows, cols, data = [], [], []

    spatial_i = np.array([e[0] for e in base.edges] + [e[1] for e in base.edges], dtype=int)
    spatial_j = np.array([e[1] for e in base.edges] + [e[0] for e in base.edges], dtype=int)
    spatial_w = P[spatial_i, spatial_j]

    diag = np.arange(n)
    diag_w = P[diag, diag]

    for t in range(slices):
        base_off = t * n
        rows.append(spatial_i + base_off)
        cols.append(spatial_j + base_off)
        data.append(spatial_w)
        if t + 1 < slices:
            nxt = base_off + n
            # self arcs forward in time
            rows.append(diag + base_off)
            cols.append(diag + nxt)
            data.append(diag_w)
            # neighbor arcs forward in time, weight p_ji
            rows.append(spatial_i + base_off)
            cols.append(spatial_j + nxt)
            data.append(P[spatial_j, spatial_i])

    nt = n * slices
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nt, nt),
    )


def product_weights(product) -> sp.csr_matrix:
    """W = kron(I_T, S) + kron(shift_T, R) from the product's two N x N blocks."""
    T = product.slice_count
    W = sp.kron(sp.identity(T), product.weights, format="csr")
    if product.temporal is not None:
        W = W + sp.kron(sp.eye(T, k=1), product.temporal, format="csr")
    return W


def symmetrized_laplacian(weights: sp.spmatrix) -> sp.csr_matrix:
    """diag(W_s 1) - W_s for W_s = (W + W^T)/2."""
    W = weights.tocsr()
    W_s = ((W + W.T) * 0.5).tocsr()
    deg = np.asarray(W_s.sum(axis=1)).ravel()
    return (sp.diags(deg) - W_s).tocsr()


def check_support(P: np.ndarray, graph) -> None:
    """Off-diagonal support must sit exactly inside the graph adjacency."""
    adj = graph.dense_adjacency() > 0
    off = P.copy()
    np.fill_diagonal(off, 0.0)
    bad = np.argwhere((off > 0) & ~adj)
    if bad.size:
        i, j = bad[0]
        raise ValidationError(
            f"transition weight on non-edge pair (index {i}, {j}): "
            "support mismatch between P and adjacency"
        )


def influential_scores(P: np.ndarray, max_hop: int = 5) -> np.ndarray:
    """Summed off-diagonal column mass of P^m for m = 1..max_hop, per node."""
    scores = np.zeros(P.shape[0])
    power = np.eye(P.shape[0])
    for _ in range(max_hop):
        power = power @ P
        scores += power.sum(axis=0) - np.diag(power)
    return scores


def anomaly_metric(X: np.ndarray, graph) -> np.ndarray:
    """Ratio of each node's value to its one-hop neighbor mean, shaped (N, T)."""
    adj = graph.dense_adjacency()
    deg = adj.sum(axis=1)
    nbr_sum = adj @ X
    theta = np.empty_like(X)
    zero = nbr_sum == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = X * deg[:, None] / nbr_sum
    theta[~zero] = ratio[~zero]
    theta[zero] = np.maximum(X[zero], 1.0)
    return theta


class StackedLaplacian:
    """The matrix-free product Laplacian as `stgw` applied it to slice-major vectors
    before its product took node-major buffers.

    The three blocks [(S + S^T)/2; R/2; (R/2)^T] are stacked into one (3N, N) CSR
    matrix, so `L @ x` is one sparse product with the (N, T) reshape of x, which
    allocates the whole (3N, T) output, plus two shifted adds, then subtracted
    from the slice-major degrees times x.  Tests require `ProductLaplacian` to give
    the same bytes.
    """

    def __init__(self, graph):
        S = sp.csr_matrix(graph.weights, dtype=float)
        R = sp.csr_matrix(graph.temporal, dtype=float) * 0.5
        self.blocks = sp.vstack(((S + S.T) * 0.5, R, R.T), format="csr")
        n, self.slices = S.shape[0], graph.slice_count
        self.shape = (n * self.slices, n * self.slices)
        within, forward, backward = np.asarray(self.blocks.sum(axis=1)).reshape(3, n)
        degrees = np.tile(within, (self.slices, 1))
        degrees[:-1] += forward
        degrees[1:] += backward
        self.degrees = degrees.reshape(-1)

    def _symmetric_weights(self, x: np.ndarray) -> np.ndarray:
        cols = np.ascontiguousarray(x.reshape(self.slices, -1).T)
        out, n = self.blocks @ cols, len(cols)
        out[:n, :-1] += out[n:2 * n, 1:]
        out[:n, 1:] += out[2 * n:, :-1]
        return out[:n]

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = self.degrees * x.reshape(-1)
        out -= self._symmetric_weights(x).T.reshape(-1)
        return out.reshape(x.shape)

    def apply(self, x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """`L @ x` for a node-major (N, T) x, through the slice-major product."""
        out[...] = (self @ x.T.reshape(-1)).reshape(self.slices, -1).T
        return out

    def toarray(self) -> np.ndarray:
        return np.array([self @ e for e in np.eye(self.shape[0])]).reshape(self.shape).T


class DenseOperator:
    """A dense symmetric matrix A with the `apply` that `graphs._with_lambda_max` takes,
    for bounds on matrices that are no product Laplacian; x is (n, 1)."""

    def __init__(self, A: np.ndarray):
        self.A, self.shape = A, A.shape

    def apply(self, x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        return np.matmul(self.A, x, out=out)
