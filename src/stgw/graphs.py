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

import re
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import NumericError, ValidationError

LAMBDA_SAFETY = 1.01  # margin on the λmax bound, which the Chebyshev domain must cover
LANCZOS_TOL = 1e-3    # relative accuracy of the Ritz value; the residual covers the rest
LANCZOS_STEPS = 500   # step cap; a Lanczos still short of LANCZOS_TOL falls back to Gershgorin
LANCZOS_CHECK = 10    # steps between convergence tests, each an eigh of the small T_m
EIGEN_FLOOR = -1e-9   # numerical zero floor for Laplacian spectra
# the characters a node name may not hold: a line break, which a CSV row cannot hold, and
# those that XML 1.0 cannot hold, escaped or not, since the SVG report writes node names
NOT_IN_NAME = re.compile("[\x00-\x08\x0a-\x1f\ufffe\uffff]")


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
    """Undirected, self-loop-free spatial graph over its nodes in ascending node_id.

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
    single slice needs no `temporal` block: left out, it is an empty one.
    """

    weights: sp.csr_matrix
    base_node_count: int
    slice_count: int
    temporal: sp.csr_matrix | None = None

    def __post_init__(self):
        if self.temporal is None:
            object.__setattr__(self, "temporal", sp.csr_matrix(self.weights.shape))

    @property
    def node_count(self) -> int:
        return self.base_node_count * self.slice_count

    @property
    def arc_count(self) -> int:
        return self.slice_count * self.weights.nnz + (self.slice_count - 1) * self.temporal.nnz


class ProductLaplacian:
    """diag(d) - W_s for the symmetrized product weights W_s = (W + W^T)/2, matrix-free.

    W_s is block tridiagonal over the slices: `within` = (S + S^T)/2 on the
    diagonal blocks, `forward` = R/2 above them and `backward` = (R/2)^T below,
    for the product's within-slice block S and temporal block R.  `apply`
    multiplies node-major (N, T) vectors, whose column t is slice t: row block
    t of W_s x is column t of `within` x, column t + 1 of `forward` x and
    column t - 1 of `backward` x.  `L @ x` takes slice-major vectors.
    """

    def __init__(self, graph: SpatioTemporalGraph):
        S = sp.csr_matrix(graph.weights, dtype=float)
        R = sp.csr_matrix(graph.temporal, dtype=float) * 0.5
        self.within, self.forward, self.backward = (S + S.T) * 0.5, R, R.T.tocsr()
        n, self.slices = S.shape[0], graph.slice_count
        self.shape = (n * self.slices, n * self.slices)
        within, forward, backward = (np.asarray(block.sum(axis=1)).ravel()
                                     for block in (self.within, self.forward, self.backward))
        degrees = np.tile(within[:, None], (1, self.slices))
        degrees[:, :-1] += forward[:, None]
        degrees[:, 1:] += backward[:, None]
        self.degrees = degrees  # node-major, as `apply` takes its vectors

    def apply(self, x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """out = L x for C-contiguous node-major (N, T) float arrays; allocates nothing.

        `scratch` is overwritten.  Each entry is d x - (W_s x), with W_s x summed
        within + forward + backward, so the bytes do not depend on the layout
        that x came in.
        """
        flat, shifted = out.reshape(-1), scratch.reshape(-1)
        spmm(self.within, x, out)
        # the shifted adds run along the flattened rows, contiguous, so numpy needs no
        # buffer; the column each leaves unused is zeroed first, so an add that wraps
        # into the next row adds +0.0, which keeps every sum's bytes (spmm's sums
        # start at +0.0, so they and sums of them are never -0.0)
        spmm(self.forward, x, scratch)
        scratch[:, 0] = 0.0
        flat[:-1] += shifted[1:]
        spmm(self.backward, x, scratch)
        scratch[:, -1] = 0.0
        flat[1:] += shifted[:-1]
        np.multiply(self.degrees, x, out=scratch)
        return np.subtract(scratch, out, out=out)

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        cols = np.ascontiguousarray(x.reshape(self.slices, -1).T)
        out = self.apply(cols, np.empty_like(cols), np.empty_like(cols))
        return out.T.reshape(x.shape)

    def toarray(self) -> np.ndarray:
        """The dense (T*N) x (T*N) Laplacian, for the small-graph eigensolvers:
        L applied to each identity column e_j gives column j."""
        return np.array([self @ e for e in np.eye(self.shape[0])]).reshape(self.shape).T


def spmm(A: sp.csr_matrix, B: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`A @ B` for a CSR matrix A and C-contiguous B, written into C-contiguous `out`.

    scipy's `A @ B` always allocates its result; this calls the same kernel on `out`.
    That kernel, `scipy.sparse._sparsetools.csr_matvecs(n_row, n_col, n_vecs, indptr,
    indices, data, B, out)` with B and out flattened, is private to scipy, which may
    change it without notice; `tests/test_graphs.py::TestSpmm` checks it against `A @ B`.
    """
    if (B.shape[0] != A.shape[1] or out.shape != (A.shape[0], B.shape[1])
            or not A.dtype == B.dtype == out.dtype == np.float64
            or not (B.flags.c_contiguous and out.flags.c_contiguous)):
        raise ValueError("spmm needs C-contiguous float64 operands of matching shapes")
    flat = out.reshape(-1)  # views, both operands being C-contiguous
    flat.fill(0.0)
    _sparsetools.csr_matvecs(A.shape[0], A.shape[1], B.shape[1], A.indptr, A.indices, A.data,
                             B.reshape(-1), flat)
    return out


@dataclass(frozen=True, eq=False)
class SymmetricLaplacian:
    """Laplacian of the symmetrized weights of a directed graph (PSD)."""

    matrix: ProductLaplacian
    lambda_max_estimate: float  # upper bound on the spectrum; the lambda_* fields say how
    lambda_method: str = "given"  # or "lanczos", "gershgorin"
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
    raise_first(~(pops > 0), lambda k: f"node {k if node_ids is None else node_ids[k]} "
                                       "has zero or missing population")
    return CaseMatrix(values=1000.0 * raw.values / pops[:, None], weeks=raw.weeks)


def raise_first(bad, message) -> None:
    """Raise message(k) for the first True k of `bad`: the `reject(bad, message)` that
    `build_route_graph` gives the input rules below (`dataio._reject` adds file and line)."""
    k = np.flatnonzero(bad)
    if k.size:
        raise ValidationError(message(k[0]))


def check_nodes(nodes: list[NodeRecord], reject) -> None:
    """Population >= 1, each node_id once (its second appearance is the bad record), and
    no character in a name that a CSV row or XML cannot hold."""
    ids = np.array([rec.node_id for rec in nodes], dtype=np.int64)
    reject(np.array([rec.population for rec in nodes]) < 1, lambda k: "population must be >= 1")
    first = np.zeros(len(ids), dtype=bool)
    first[np.unique(ids, return_index=True)[1]] = True
    reject(~first, lambda k: f"duplicate node_id {ids[k]}")
    found = [NOT_IN_NAME.search(rec.name) for rec in nodes]
    reject(np.array([m is not None for m in found], dtype=bool),
           lambda k: f"name {nodes[k].name!r} holds U+{ord(found[k].group()):04X}, which "
                     f"{'a CSV row' if ord(found[k].group()) in (10, 13) else 'XML'} cannot hold")


def check_self_loops(ends: np.ndarray, reject) -> None:
    """No edge of the (E, 2) id pairs `ends` from a node to itself."""
    reject(ends[:, 0] == ends[:, 1], lambda k: f"self-loop edge on node_id {ends[k, 0]}")


def check_endpoints(ends: np.ndarray, ids: np.ndarray, reject) -> None:
    """Every end of the (E, 2) id pairs `ends` is one of the node ids `ids`."""
    known = np.isin(ends, ids)
    reject(~known.all(axis=1),
           lambda k: f"edge references unknown node_id {ends[k][~known[k]][0]}")


def build_route_graph(nodes: list[NodeRecord],
                      edges: list[tuple[int, int]] | np.ndarray) -> RouteGraph:
    """Assemble a validated RouteGraph from node records and undirected id pairs,
    given as a list of tuples or as an (E, 2) integer array.  The graph holds the
    nodes in ascending node_id, whatever their order in `nodes`.

    Duplicate and reversed-duplicate edges collapse to one; isolated nodes are
    kept but reported through `isolated_ids`.
    """
    ids = np.array([rec.node_id for rec in nodes], dtype=np.int64)
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    check_nodes(nodes, raise_first)
    check_self_loops(ends, raise_first)
    check_endpoints(ends, ids, raise_first)
    nodes, ids = sorted(nodes, key=lambda rec: rec.node_id), np.sort(ids)  # one node order

    # each edge as the key i * n + j of its index pair with i < j, once, ascending
    n, index = len(ids), np.sort(np.searchsorted(ids, ends), axis=1)
    i, j = np.divmod(np.unique(index[:, 0] * n + index[:, 1]), n)
    adjacency = sp.csr_matrix((np.ones(2 * i.size, dtype=np.int8),
                               (np.concatenate((i, j)), np.concatenate((j, i)))), shape=(n, n))
    return RouteGraph(
        nodes=tuple(nodes),
        adjacency=adjacency,
        edges=tuple(zip(i.tolist(), j.tolist())),
        isolated_ids=tuple(ids[np.diff(adjacency.indptr) == 0].tolist()),
        _id_to_index=dict(zip(ids.tolist(), range(n))),
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
    L = ProductLaplacian(g)
    return _with_lambda_max(L, _lanczos_start(L))


def _lanczos_start(L: ProductLaplacian) -> np.ndarray:
    """The node-major (N, T) Lanczos start for the product L: v₀ ⊗ s₁ + v_π ⊗ s_T.

    L is block tridiagonal in time, the same in every slice but the end ones, so
    its eigenvectors lie close to v ⊗ s_k, for the time modes
    s_k(t) = sin(kπ(t+1)/(T+1)) and v an eigenvector of the one-slice symbol at
    ω = kπ/(T+1).  For a symmetric P that symbol is D − within − cos ω · coupling
    (coupling = forward + backward, D the interior degrees).  Its largest
    eigenvalue is convex in cos ω, so it peaks at an end: ω = 0, where the symbol
    is M₀, the one-slice Laplacian of weights P − diag P + Pᵀ, or ω = π, where it
    is M_π = D − within + coupling (a P with a large diagonal puts it there).
    Both ends are needed: L then commutes with time reversal, under which s₁ is
    even and, for an even T, s_T odd.  An asymmetric P adds i sin ω (forward −
    backward) to the symbol, whose peak can then lie between the ends.

    v₀ and v_π are the top Ritz vectors of M₀ and M_π, each from its own vector
    seeded with 0, which serves in its place if that Lanczos breaks down or does
    not converge; that only changes the product's step count.  A single slice
    starts from the first seeded vector.
    """
    n, slices = L.within.shape[0], L.slices
    seeded = np.random.default_rng(0).standard_normal((2, n, 1))
    if slices == 1:
        return seeded[0]
    coupling = L.forward + L.backward
    degrees = sp.diags(np.asarray((L.within + coupling).sum(axis=1)).ravel())
    ends = []
    for symbol, guess in zip(((degrees - L.within - coupling).tocsr(),
                              (degrees - L.within + coupling).tocsr()), seeded):
        _, top, _, _, failure = _top_ritz_pair(lambda x, out, _: spmm(symbol, x, out), guess)
        top = guess if failure else top
        ends.append(top.ravel() / np.linalg.norm(top))
    wave = np.sin(np.pi * np.arange(1, slices + 1) / (slices + 1))
    return np.column_stack(ends) @ np.vstack((wave, wave * (-1.0) ** np.arange(slices)))


def _with_lambda_max(matrix: ProductLaplacian, start: np.ndarray) -> SymmetricLaplacian:
    """Attach an upper bound on the largest eigenvalue of a symmetric matrix.

    Lanczos from `start`, node-major (N, T) as `matrix.apply` takes it (`laplacian`
    gives `_lanczos_start`), gives the top Ritz pair (θ, v); once θ has converged,
    θ + ||Lv - θv|| bounds an eigenvalue from above (Zhou & Li 2011): λmax when
    the start has a component along λmax's eigenvector.  If Lanczos breaks down
    (β = 0: the Krylov space is invariant, so θ need not be λmax) or has not
    converged within LANCZOS_STEPS, the Gershgorin bound 2 max d (W_s is
    non-negative with a zero diagonal) is used with a warning and
    `lambda_method` "gershgorin".
    """
    theta, _, residual, m, failure = _top_ritz_pair(matrix.apply, start)
    if failure is not None:
        warnings.warn(f"Lanczos failed ({failure}); using Gershgorin bound")
        return SymmetricLaplacian(matrix, 2.0 * float(matrix.degrees.max(initial=0.0)),
                                  lambda_method="gershgorin", lambda_matvecs=m,
                                  lambda_residual=float("nan"))
    return SymmetricLaplacian(matrix, LAMBDA_SAFETY * (theta + residual),
                              lambda_method="lanczos", lambda_matvecs=2 * m + 1,
                              lambda_residual=residual)


def _top_ritz_pair(apply, start: np.ndarray):
    """Top Ritz pair of a symmetric operator by Lanczos from `start`.

    `apply(x, out, scratch)` writes the operator times x into `out`, for arrays
    shaped like `start`.  Returns (θ, v, ||Av - θv||, m, failure) after m steps:
    every LANCZOS_CHECK steps T_m is solved, and the first pass stops once the
    top Ritz value meets ARPACK's test, |β_m y_m| ≤ LANCZOS_TOL θ.  A second
    pass repeats the first one's arithmetic to rebuild v = Q_m y, and one more
    product gives the residual: 2m + 1 products in all.  `failure` names a
    breakdown or a step cap reached, and then v is None and the residual nan.
    Five buffers shaped like `start` serve both passes and the residual.
    """
    q_prev, q, w, scratch, v = np.empty((5, *start.shape))
    last = min(start.size, LANCZOS_STEPS)  # T_n holds the whole spectrum in exact arithmetic
    alphas, betas = [], []
    for m, (_, alpha, beta) in enumerate(_lanczos(apply, start, q_prev, q, w, scratch), 1):
        alphas.append(alpha)
        betas.append(beta)
        if beta == 0.0:
            return float("nan"), None, float("nan"), m, "breakdown"
        if m % LANCZOS_CHECK == 0 or m in (last, LANCZOS_STEPS):
            values, vectors = np.linalg.eigh(np.diag(alphas) + np.diag(betas[:-1], -1))
            theta, y = float(values[-1]), vectors[:, -1]
            if abs(beta * y[-1]) <= LANCZOS_TOL * theta:
                break
        if m == LANCZOS_STEPS:
            return float("nan"), None, float("nan"), m, f"no convergence in {m} steps"

    v.fill(0.0)
    for weight, (q_j, _, _) in zip(y, _lanczos(apply, start, q_prev, q, w, scratch)):
        np.multiply(q_j, weight, out=scratch)
        v += scratch
    v /= np.linalg.norm(v)
    apply(v, w, scratch)
    np.multiply(v, theta, out=scratch)
    w -= scratch
    return theta, v, float(np.linalg.norm(w)), m, None


def _lanczos(apply, start: np.ndarray, q_prev, q, w, scratch):
    """Plain three-term Lanczos: yield (q_j, α_j, β_j) for j = 1, 2, ..., one product each.

    Runs in the four given buffers and allocates none: q_j is a view of one of
    them that a later step overwrites, and `scratch` is free at each yield.
    Only q_{j-1}, q_j and the next residual are held, so orthogonality is not
    kept; a lost one only repeats converged Ritz values, and the caller's explicit
    residual checks the vector it rebuilds.  Stops after yielding β_j = 0.
    """
    np.divide(start, np.linalg.norm(start), out=q)
    beta = None
    while True:
        apply(q, w, scratch)
        if beta is not None:
            q_prev *= beta
            w -= q_prev
        alpha = float(np.vdot(q, w))
        np.multiply(q, alpha, out=scratch)
        w -= scratch
        beta = float(np.linalg.norm(w))
        yield q, alpha, beta
        if beta == 0.0:
            return
        w /= beta
        q_prev, q, w = q, w, q_prev


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
