"""Route graphs, case signals, and the strong-product spatio-temporal graph.

Everything downstream (attention training, wavelet transforms, torque
classification) runs on the structures built here.  The adjacency and the
transition matrix P are CSR matrices on the graph's support.  The product
graph and its Laplacian are kept as N x N blocks and applied slice by slice;
no (T*N) x (T*N) matrix is formed.  Product-graph vertices are indexed
slice-major: vertex ``v = t * N + i`` is base node ``i`` in time slice ``t``
(both 0-based internally).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import NumericError, ValidationError

LAMBDA_SAFETY = 1.01  # margin on the λmax bound, which the Chebyshev domain must cover
LANCZOS_VECTORS = 20  # ARPACK basis size (ncv); smaller matrices are solved densely
LANCZOS_TOL = 1e-3    # relative accuracy of the Ritz value; the residual covers the rest
EIGEN_FLOOR = -1e-9   # numerical zero floor for Laplacian spectra


@dataclass(frozen=True)
class NodeRecord:
    """One city/town: identifier, label, coordinates, population."""

    node_id: int
    name: str
    lat: float
    lon: float
    population: int


@dataclass(frozen=True, eq=False)
class RouteGraph:
    """Undirected, self-loop-free spatial graph over a fixed node order.

    `adjacency` is a binary CSR matrix; `edges` holds each undirected edge once
    as an index pair (i, j) with i < j.  Isolated nodes are retained and listed
    in `isolated_ids` so the caller can decide whether to drop them.
    """

    nodes: tuple[NodeRecord, ...]
    adjacency: sp.csr_matrix
    edges: tuple[tuple[int, int], ...]
    isolated_ids: tuple[int, ...]
    _id_to_index: dict = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def node_ids(self) -> list[int]:
        return [rec.node_id for rec in self.nodes]

    @property
    def populations(self) -> np.ndarray:
        return np.array([rec.population for rec in self.nodes], dtype=float)

    def index_of(self, node_id: int) -> int:
        return self._id_to_index[node_id]

    def dense_adjacency(self) -> np.ndarray:
        return self.adjacency.toarray().astype(float)

    def closed_neighborhoods(self) -> sp.csr_matrix:
        """Canonical binary CSR of adjacency plus identity: the 2E + N support of P."""
        return self.adjacency + sp.identity(self.n, dtype=np.int8, format="csr")


@dataclass(frozen=True, eq=False)
class CaseMatrix:
    """N x T signal matrix; row order matches the RouteGraph node order."""

    values: np.ndarray
    weeks: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValidationError("case matrix must be 2-dimensional (nodes x weeks)")
        if vals.shape[1] != self.weeks:
            raise ValidationError(
                f"case matrix has {vals.shape[1]} columns, expected T={self.weeks}"
            )
        if not np.all(np.isfinite(vals) & (vals >= 0)):
            raise ValidationError("case matrix entries must be finite and non-negative")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def vertex_signal(self) -> np.ndarray:
        """Flatten to the product-graph vertex order (v = t*N + i)."""
        return np.ascontiguousarray(self.values.T).reshape(-1)


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic attention matrix P with strictly positive diagonal.

    `P` is a read-only canonical CSR matrix (from the GAT: the 2E + N closed
    neighborhoods); the constructor takes anything `sp.csr_matrix` accepts.
    Rejecting a square matrix sets the error's `row` to the first bad row.
    """

    P: sp.csr_matrix

    def __post_init__(self):
        P = sp.csr_matrix(self.P, dtype=float, copy=True)
        if P.shape[0] != P.shape[1]:
            raise ValidationError("transition matrix must be square")
        P.sum_duplicates()
        faults = (
            (P.tocoo().row[~(np.isfinite(P.data) & (P.data >= 0))],
             "transition matrix entries must be finite and non-negative"),
            (np.flatnonzero(np.abs(np.asarray(P.sum(axis=1)).ravel() - 1.0) > 1e-9),
             "transition matrix rows must sum to 1 within 1e-9"),
            (np.flatnonzero(P.diagonal() <= 0),
             "transition matrix diagonal must be strictly positive"),
        )
        for rows, message in faults:
            if len(rows):
                error = ValidationError(message)
                error.row = int(rows[0])
                raise error
        for array in (P.data, P.indices, P.indptr):
            array.flags.writeable = False
        object.__setattr__(self, "P", P)

    @property
    def n(self) -> int:
        return self.P.shape[0]

    def check_support(self, graph: RouteGraph) -> None:
        """Positive off-diagonal entries must sit inside the graph adjacency."""
        # positive entries where the 0/1 support pattern is 0, in row-major order
        rows, cols = ((self.P > 0) > graph.closed_neighborhoods()).nonzero()
        if rows.size:
            raise ValidationError(
                f"transition weight on non-edge pair (index {rows[0]}, {cols[0]}): "
                "support mismatch between P and adjacency"
            )


@dataclass(frozen=True, eq=False)
class SpatioTemporalGraph:
    """Directed product graph of `slice_count` copies of an N-node graph, as two blocks.

    `weights[i, j]` is the arc (i,t) -> (j,t) inside every slice and
    `temporal[i, j]` the arc (i,t) -> (j,t+1) into the next one, so the
    product weights are kron(I_T, weights) + kron(shift_T, temporal).  A
    single slice needs no `temporal` block.
    """

    weights: sp.csr_matrix
    base_node_count: int
    slice_count: int
    temporal: sp.csr_matrix | None = None

    @property
    def node_count(self) -> int:
        return self.base_node_count * self.slice_count

    @property
    def arc_count(self) -> int:
        forward = 0 if self.temporal is None else self.temporal.nnz
        return self.slice_count * self.weights.nnz + (self.slice_count - 1) * forward


class ProductLaplacian:
    """diag(d) - W_s for the symmetrized product weights W_s = (W + W^T)/2, matrix-free.

    W_s is block tridiagonal over the slices: `within` = (S + S^T)/2 on the
    diagonal blocks, `forward` = R/2 above them and its transpose below, for
    the product's within-slice block S and temporal block R.  `L @ x` works on
    the (T, N) reshape of the slice-major vector x, so row block t of W_s x is
    within x_t + forward x_{t+1} + forward^T x_{t-1}.
    """

    def __init__(self, graph: SpatioTemporalGraph):
        S = sp.csr_matrix(graph.weights, dtype=float)
        self.within = ((S + S.T) * 0.5).tocsr()
        self.slices = graph.slice_count
        n = self.within.shape[0]
        self.shape = (n * self.slices, n * self.slices)
        degrees = np.tile(_row_sums(self.within), (self.slices, 1))
        self.forward = self.backward = None
        if graph.temporal is not None and self.slices > 1:
            self.forward = (sp.csr_matrix(graph.temporal, dtype=float) * 0.5).tocsr()
            self.backward = self.forward.T.tocsr()
            degrees[:-1] += _row_sums(self.forward)
            degrees[1:] += _row_sums(self.backward)
        self.degrees = degrees.reshape(-1)

    def _symmetric_weights(self, x: np.ndarray) -> np.ndarray:
        """W_s x as an (N, T) array: column t is row block t."""
        # one C-ordered copy serves all three products; multiplying whole
        # columns and dropping one is cheaper than copying two column ranges
        cols = np.ascontiguousarray(x.reshape(self.slices, -1).T)
        out = self.within @ cols
        if self.forward is not None:
            out[:, :-1] += (self.forward @ cols)[:, 1:]
            out[:, 1:] += (self.backward @ cols)[:, :-1]
        return out

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = self.degrees * x.reshape(-1)
        out -= self._symmetric_weights(x).T.reshape(-1)
        return out.reshape(x.shape)

    def toarray(self) -> np.ndarray:
        """The dense (T*N) x (T*N) Laplacian, for the small-graph eigensolvers:
        L applied to each identity column e_j gives column j."""
        return np.array([self @ e for e in np.eye(self.shape[0])]).reshape(self.shape).T


def _row_sums(block: sp.csr_matrix) -> np.ndarray:
    return np.asarray(block.sum(axis=1)).ravel()


@dataclass(frozen=True, eq=False)
class SymmetricLaplacian:
    """Laplacian of the symmetrized weights of a directed graph (PSD)."""

    matrix: ProductLaplacian
    lambda_max_estimate: float  # upper bound on the spectrum; the lambda_* fields say how
    lambda_method: str = "given"  # or "lanczos", "dense", "gershgorin"
    lambda_matvecs: int = 0
    lambda_residual: float = 0.0  # Ritz residual ||Lv - θv|| of a "lanczos" bound

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def converged(self) -> bool:
        """False when the eigensolver failed and the bound is Gershgorin's."""
        return self.lambda_method != "gershgorin"


def normalize_cases(raw: CaseMatrix, populations: np.ndarray,
                    node_ids: list[int] | None = None) -> CaseMatrix:
    """Scale raw counts to per-thousand-population rates.

    out[i, t] = 1000 * raw[i, t] / population_i
    """
    pops = np.asarray(populations, dtype=float)
    if pops.shape[0] != raw.values.shape[0]:
        raise ValidationError("population vector length does not match case matrix")
    bad = np.flatnonzero(~(pops > 0))
    if bad.size:
        which = node_ids[bad[0]] if node_ids is not None else bad[0]
        raise ValidationError(f"node {which} has zero or missing population")
    return CaseMatrix(values=1000.0 * raw.values / pops[:, None], weeks=raw.weeks)


def build_route_graph(nodes: list[NodeRecord], edges: list[tuple[int, int]]) -> RouteGraph:
    """Assemble a validated RouteGraph from node records and undirected id pairs.

    Duplicate and reversed-duplicate edges collapse to one; isolated nodes are
    kept but reported through `isolated_ids`.
    """
    ids = [rec.node_id for rec in nodes]
    seen: set[int] = set()
    for nid in ids:
        if nid in seen:
            raise ValidationError(f"duplicate node_id {nid}")
        seen.add(nid)
    for rec in nodes:
        if rec.population < 1:
            raise ValidationError(f"node {rec.node_id} has population < 1")
    id_to_index = {nid: k for k, nid in enumerate(ids)}

    n = len(nodes)
    pair_set = set()
    for src, dst in edges:
        if src not in id_to_index or dst not in id_to_index:
            missing = src if src not in id_to_index else dst
            raise ValidationError(f"edge references unknown node_id {missing}")
        if src == dst:
            raise ValidationError(f"self-loop edge on node_id {src}")
        i, j = sorted((id_to_index[src], id_to_index[dst]))
        pair_set.add((i, j))
    pairs = tuple(sorted(pair_set))

    if pairs:
        rows = np.array([p[0] for p in pairs] + [p[1] for p in pairs])
        cols = np.array([p[1] for p in pairs] + [p[0] for p in pairs])
        data = np.ones(rows.size, dtype=np.int8)
        adjacency = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    else:
        adjacency = sp.csr_matrix((n, n), dtype=np.int8)

    degree = np.asarray(adjacency.sum(axis=1)).ravel()
    isolated = tuple(ids[i] for i in range(n) if degree[i] == 0)

    return RouteGraph(
        nodes=tuple(nodes),
        adjacency=adjacency,
        edges=pairs,
        isolated_ids=isolated,
        _id_to_index=id_to_index,
    )


def strong_product(base: RouteGraph, transition: TransitionMatrix, slices: int) -> SpatioTemporalGraph:
    """The directed spatio-temporal graph of `slices` copies of `base`.

    Spatial arcs (i,t) -> (j,t) carry p_ij (the block P - diag P), and
    temporal arcs run strictly forward, (i,t) -> (j,t+1) carrying p_ji (the
    block P^T, with p_ii for j = i; the transposed-orientation convention,
    which the Laplacian symmetrization downstream absorbs).
    """
    if slices < 2:
        raise ValidationError("strong product needs at least 2 time slices")
    if transition.n != base.n:
        raise ValidationError("transition matrix size does not match graph")
    transition.check_support(base)

    P = transition.P
    temporal = P.T.tocsr()
    temporal.eliminate_zeros()
    return SpatioTemporalGraph(weights=P - sp.diags(P.diagonal()), base_node_count=base.n,
                               slice_count=slices, temporal=temporal)


def laplacian(g: SpatioTemporalGraph) -> SymmetricLaplacian:
    """Symmetrized Laplacian of the directed weights, with its λmax bound.

    Each arc is averaged with its reverse, W_s = (W + W^T)/2, and the returned
    operator is the standard Laplacian diag(W_s 1) - W_s of those symmetric
    weights.  Taking degrees from the symmetrized weights (rather than the raw
    out-weights) keeps the spectrum non-negative with smallest eigenvalue 0;
    the first and last time slices of a product graph are not flow-balanced,
    so the raw-out-degree variant would be indefinite and the spectral kernels
    (defined on [0, lambda_max]) could not be applied.
    """
    return _with_lambda_max(ProductLaplacian(g))


def _with_lambda_max(matrix: ProductLaplacian) -> SymmetricLaplacian:
    """Attach an upper bound on the largest eigenvalue of a symmetric matrix.

    Lanczos (ARPACK `eigsh` from a seeded start, so the bound repeats bit for
    bit) gives the top Ritz pair (θ, v); once θ has converged, θ + ||Lv - θv||
    bounds λmax from above (Zhou & Li 2011).  If ARPACK fails, the Gershgorin
    bound 2 max d (W_s is non-negative with a zero diagonal) is used with a
    warning and `lambda_method` "gershgorin".
    """
    n = matrix.shape[0]
    if n <= LANCZOS_VECTORS:  # ARPACK needs n > ncv
        top = np.linalg.eigvalsh(matrix.toarray()).max(initial=0.0)
        return SymmetricLaplacian(matrix, LAMBDA_SAFETY * float(top), lambda_method="dense")

    matvecs = 0

    def matvec(x):
        nonlocal matvecs
        matvecs += 1
        return matrix @ x

    op = LinearOperator(matrix.shape, matvec=matvec, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        theta, vecs = eigsh(op, k=1, which="LA", ncv=LANCZOS_VECTORS, tol=LANCZOS_TOL, v0=v0)
    except ArpackError as exc:  # no convergence, or the zero matrix (no Krylov space)
        warnings.warn(f"Lanczos failed ({exc}); using Gershgorin bound")
        return SymmetricLaplacian(matrix, 2.0 * float(matrix.degrees.max()),
                                  lambda_method="gershgorin", lambda_matvecs=matvecs,
                                  lambda_residual=float("nan"))
    ritz, v = float(theta[0]), vecs[:, 0]
    residual = float(np.linalg.norm(op.matvec(v) - ritz * v))
    return SymmetricLaplacian(matrix, LAMBDA_SAFETY * (ritz + residual),
                              lambda_method="lanczos", lambda_matvecs=matvecs,
                              lambda_residual=residual)


def _single_slice(base: RouteGraph) -> SpatioTemporalGraph:
    return SpatioTemporalGraph(weights=base.adjacency.astype(float), base_node_count=base.n,
                               slice_count=1)


def base_laplacian(base: RouteGraph) -> SymmetricLaplacian:
    """Unweighted Laplacian of the route graph itself, with its λmax bound."""
    return laplacian(_single_slice(base))


def canonical_sign(vec: np.ndarray) -> np.ndarray:
    """Flip the vector if needed so its largest-magnitude entry is positive."""
    anchor = np.argmax(np.abs(vec))
    return -vec if vec[anchor] < 0 else vec.copy()


def downsample_mask(base: RouteGraph) -> set[int]:
    """Node ids to hide for display: negative entries of the top Laplacian eigenvector.

    The eigenvector sign is canonicalized with `canonical_sign`, making the
    mask invariant to the eigensolver's sign choice.
    """
    if base.n == 0:
        return set()
    L = ProductLaplacian(_single_slice(base)).toarray()
    try:
        _, eigvecs = np.linalg.eigh(L)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigensolver failure on route graph Laplacian: {exc}")
    vec = canonical_sign(eigvecs[:, -1])
    hidden = np.flatnonzero(vec < 0)
    ids = base.node_ids
    return {ids[i] for i in hidden}
