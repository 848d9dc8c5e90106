"""Two-layer multi-head graph attention network trained on edge classification.

Attention runs over the graph's closed neighborhoods only, as an edge list of
2E + N entries (each edge both ways, plus every node's self-loop): per-head
logits on the entries, a segment softmax per row, and sparse products for the
aggregation and its transpose.  A layer runs all of its heads in one pass, but
layer 1 runs as two fixed head groups, the first ceil(H/2) heads and the rest;
when a second CPU is free, training runs the second group, and half of each Adam
step, on a worker thread.  Training allocates every array of an epoch once.
Gradients are hand-derived reverse-mode in plain numpy/scipy, so training stays
dependency-free and bit-reproducible for a fixed seed, config, numpy/scipy build
and BLAS thread count, on one CPU or two.  The trained second-layer attention
matrix is the transition matrix consumed by the strong-product construction.
"""

from __future__ import annotations

import functools
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NumericError, ValidationError, check_section
from .graphs import CaseMatrix, RouteGraph, TransitionMatrix, spmm

LEAKY_SLOPE = 0.35
Q_CLAMP = 1e-12
HEADS, HIDDEN, OUT = 7, 122, 88  # layer-1 heads, layer-1 head width, layer-2 width

TRAIN, VALIDATION, TEST = 0, 1, 2
_SPLIT_CODE = {"train": TRAIN, "validation": VALIDATION, "test": TEST}

# `train` gives layer 1's second head group a thread from this many layer-1 output
# values (N*H*O) on.  Median epoch on 2 vCPUs with one BLAS thread, serial against
# threaded: 4.7 against 5.1 ms at 51,240 values (N=60, T=41), 9.4 against 8.2 ms at
# 85,400 (N=100, T=104), 13.5 against 11.3 ms at 128,100 (N=150) and 34 against 23 ms
# at 341,600 (N=400)
_THREAD_MIN_VALUES = 100_000
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _second_cpu_free(values: int) -> bool:
    """Whether to train a layer 1 of `values` output values on two threads: from
    `_THREAD_MIN_VALUES` values on, with two CPUs, and with BLAS held to one thread
    (one of its variables set, and each one set saying 1)."""
    settings = [os.environ[name] for name in _BLAS_THREAD_VARIABLES if name in os.environ]
    return (values >= _THREAD_MIN_VALUES and _cpu_count() >= 2 and bool(settings)
            and all(setting.strip() == "1" for setting in settings))


def _under_errstate(state: dict, call):
    with np.errstate(**state):
        return call()


class _Worker:
    """Runs lists of zero-argument calls: the first in the caller, the rest after it
    or, if `threaded`, meanwhile on one thread of its own, under the caller's numpy
    error state (which numpy keeps per thread).  Their exceptions reach the caller;
    `close` ends the thread."""

    def __init__(self, threaded: bool = False):
        self._pool = ThreadPoolExecutor(max_workers=1) if threaded else None

    def run(self, calls) -> None:
        if self._pool is None:
            for call in calls:
                call()
            return
        state = np.geterr()
        futures = [self._pool.submit(_under_errstate, state, call) for call in calls[1:]]
        try:
            calls[0]()
        finally:  # the thread is done with the caller's arrays before either goes on
            for future in futures:
                future.result()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()


_SERIAL = _Worker()


def _row_halves(fn, *arrays) -> list:
    """fn over the first and over the second half of the rows of `arrays`, as two calls."""
    cut = (len(arrays[0]) + 1) // 2
    return [functools.partial(fn, *(a[:cut] for a in arrays)),
            functools.partial(fn, *(a[cut:] for a in arrays))]


def elu(x, out=None, scratch=None):
    """x for x >= 0, exp(x) - 1 below; written into `out` when given, which may be
    `x` itself if `scratch`, an array of x's shape, is given too."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x) if out is None else out
    tmp = out if scratch is None else scratch
    # expm1(x) > x below zero; the operand order keeps -0.0
    np.minimum(0.0, x, out=tmp)
    np.expm1(tmp, out=tmp)
    np.maximum(tmp, x, out=out)
    return out if out.ndim else float(out)


def _elu_slope(y, out):
    """The derivative of elu at u, from y = elu(u): min(y, 0) + 1, which is
    expm1(u) + 1 = exp(u) below zero and exactly 1 from -0.0 up; into `out`."""
    np.minimum(y, 0.0, out=out)
    out += 1.0
    return out


def _sigmoid(x, out, scratch):
    """1 / (1 + exp(-x)) into `out` (which may be `x`), through `scratch`, as
    exp(min(x, 0)) / (1 + exp(-|x|)): no exp overflows, and each value is the
    same double as 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below."""
    np.abs(x, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)
    scratch += 1.0
    np.minimum(x, 0.0, out=out)
    np.exp(out, out=out)
    out /= scratch
    return out


def sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = _sigmoid(x, np.empty_like(x), np.empty_like(x))
    return out if out.ndim else float(out)


@dataclass(eq=False)
class GatLayerParams:
    """One attention layer of H heads: linear maps W (H x O x F) and score vectors a (H x 2O).

    Per-head lists are stacked into new arrays; stacked arrays are kept as they are.
    """

    weights: np.ndarray
    attn: np.ndarray

    def __post_init__(self):
        if len(self.weights) != len(self.attn) or not len(self.weights):
            raise ValidationError("layer needs matching, non-empty weight/attention lists")
        shape = np.shape(self.weights[0])
        if len(shape) != 2 or any(np.shape(W) != shape for W in self.weights):
            raise ValidationError("all heads must share input and output dimensions")
        if any(np.shape(a) != (2 * shape[0],) for a in self.attn):
            raise ValidationError("attention vector length must be twice the head dimension")
        self.weights = np.asarray(self.weights, dtype=float)
        self.attn = np.asarray(self.attn, dtype=float)

    @property
    def head_count(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[2]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]


@dataclass(eq=False)
class GatModel:
    """7-head layer into a single-head layer plus the edge-score vector theta."""

    layer1: GatLayerParams
    layer2: GatLayerParams
    theta: np.ndarray

    def __post_init__(self):
        if self.layer2.head_count != 1:
            raise ValidationError("second layer must be single-head")
        cascade = self.layer1.head_count * self.layer1.out_dim
        if self.layer2.in_dim != cascade:
            raise ValidationError(
                f"layer-2 input dim {self.layer2.in_dim} != cascaded layer-1 output {cascade}"
            )
        if self.theta.shape != (self.layer2.out_dim,):
            raise ValidationError("theta length must equal the layer-2 output dimension")

    @classmethod
    def create(cls, feature_dim: int, heads: int = HEADS, head_dim: int = HIDDEN,
               out_dim: int = OUT, *, seed: int) -> "GatModel":
        """Glorot-uniform initialization of every parameter group."""
        rng = np.random.default_rng(seed)

        def glorot(shape, fan_in, fan_out):
            a = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-a, a, size=shape)

        # each group drawn in its stacked shape: the values run head after head
        cascade = heads * head_dim
        return cls.from_stacked((
            glorot((heads, head_dim, feature_dim), feature_dim, head_dim),
            glorot((heads, 2 * head_dim), 2 * head_dim, 1),
            glorot((1, out_dim, cascade), cascade, out_dim),
            glorot((1, 2 * out_dim), 2 * out_dim, 1),
            glorot((out_dim,), out_dim, 1)))

    def stacked(self) -> tuple[np.ndarray, ...]:
        """The parameter arrays, each layer's heads stacked, in parameters() order."""
        return (self.layer1.weights, self.layer1.attn, self.layer2.weights,
                self.layer2.attn, self.theta)

    @classmethod
    def from_stacked(cls, arrays) -> "GatModel":
        """The model whose stacked() are `arrays` (per-head lists are stacked)."""
        W1, a1, W2, a2, theta = arrays
        return cls(layer1=GatLayerParams(W1, a1), layer2=GatLayerParams(W2, a2), theta=theta)

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list in a fixed order (shared with gradients): one array per
        head, as views of the stacked arrays, then theta."""
        *layers, theta = self.stacked()
        return [head for stack in layers for head in stack] + [theta]

    @staticmethod
    def parameter_names(heads: int) -> list[str]:
        """Names of the parameters() of a model with `heads` layer-1 heads, in order."""
        return ([f"layer1.weight.{k}" for k in range(heads)]
                + [f"layer1.attn.{k}" for k in range(heads)]
                + ["layer2.weight", "layer2.attn", "theta"])

    @classmethod
    def from_parameters(cls, params: list[np.ndarray]) -> "GatModel":
        """The model whose parameters() equal `params`: the weights and attention
        vectors are copied into stacked arrays, theta is kept."""
        heads = (len(params) - 3) // 2
        return cls.from_stacked((params[:heads], params[heads:2 * heads],
                                 params[-3:-2], params[-2:-1], params[-1]))


def _views(model: GatModel, vector: np.ndarray) -> GatModel:
    """A model of `model`'s shapes whose stacked arrays are views of `vector`, laid out
    in parameters() order (each stacked array holds its heads contiguously)."""
    stacked = model.stacked()
    parts = np.split(vector, np.cumsum([p.size for p in stacked])[:-1])
    return GatModel.from_stacked([part.reshape(p.shape) for part, p in zip(parts, stacked)])


@dataclass(frozen=True)
class TrainConfig:
    """The `[gat]` config section. `train` reads lr, patience and max_epochs and draws
    no random numbers; the rest is for `GatModel.create` (and the seed for `make_samples`)."""

    heads: int = HEADS
    hidden: int = HIDDEN
    out: int = OUT
    lr: float = 0.005
    patience: int = 100
    max_epochs: int = 3000
    seed: int = 0

    def __post_init__(self):
        # as a config file gives it, so messages read the same
        object.__setattr__(self, "lr", float(self.lr))
        check_section("gat", self, ("heads", "hidden", "out", "lr", "patience", "max_epochs"))
        if self.seed < 0:
            raise ValidationError("[gat] seed must be non-negative")


@dataclass(eq=False)
class SampleSets:
    """Positive/negative pair pool with a 6:2:2 split and a balanced test set."""

    pairs: np.ndarray   # P x 2 node indices, i < j
    labels: np.ndarray  # P, 1.0 for edges, 0.0 for negatives
    split: np.ndarray   # P, codes TRAIN / VALIDATION / TEST

    def subset(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        code = _SPLIT_CODE[name]
        keep = self.split == code
        return self.pairs[keep], self.labels[keep]

    def counts(self, name: str) -> tuple[int, int]:
        pairs, labels = self.subset(name)
        pos = int(labels.sum())
        return pos, len(labels) - pos


@dataclass(frozen=True, eq=False)
class _Support:
    """Closed neighborhoods as an edge list: 2E + N entries in CSR order.

    Entry k links node `rows[k]` to `cols[k]`; row i occupies
    `starts[i]:starts[i + 1]` and always holds its diagonal entry, so no
    `reduceat` segment is empty, by rows or by columns.  `by_col` reorders the
    entries column-major, the CSR order of the transpose, in which column j
    starts at `col_starts[j]`.
    """

    rows: np.ndarray
    cols: np.ndarray
    indptr: np.ndarray
    starts: np.ndarray
    by_col: np.ndarray
    col_starts: np.ndarray

    @property
    def n(self) -> int:
        return len(self.starts)

    @classmethod
    def of_graph(cls, base: RouteGraph) -> "_Support":
        pattern = base.closed_neighborhoods()  # canonical: sorted rows, each with its diagonal
        indptr, cols = pattern.indptr, pattern.indices.astype(np.intp)  # np.take's index type
        rows = np.repeat(np.arange(base.n), np.diff(indptr))
        by_col = np.argsort(cols, kind="stable")
        col_starts = np.searchsorted(cols[by_col], np.arange(base.n))
        return cls(rows=rows, cols=cols, indptr=indptr, starts=indptr[:-1].astype(np.intp),
                   by_col=by_col, col_starts=col_starts)

    def matrix(self, alpha: np.ndarray) -> sp.csr_matrix:
        """A new N x N CSR matrix holding `alpha` (one value per entry) on the support."""
        return sp.csr_matrix((np.array(alpha), self.cols.copy(), self.indptr.copy()),
                             shape=(self.n, self.n))


@dataclass(frozen=True, eq=False)
class _HeadPattern:
    """The support once per head, for H heads side by side in (N, H*O) arrays.

    Row i*H + h of the (N*H, O) reshape, which costs no copy, is node i of head
    h, and every head attends over the same support, so `fwd` is the CSR
    pattern of support (x) I_H over those rows and `bwd` is its transpose, both
    built once; a layer gathers its (2E+N, H) attention weights, flattened,
    into their `.data` through `fwd_order` and `bwd_order` before each product.
    """

    fwd: sp.csr_matrix
    bwd: sp.csr_matrix
    fwd_order: np.ndarray
    bwd_order: np.ndarray

    @classmethod
    def of_support(cls, support: _Support, heads: int) -> "_HeadPattern":
        n = support.n
        ids = sp.csr_matrix((np.arange(1, len(support.rows) + 1), support.cols, support.indptr),
                            shape=(n, n))  # entry k's id k + 1, so that none is zero
        fwd = sp.kron(ids, sp.identity(heads, dtype=np.int64), format="csr")
        fwd.data = (fwd.data - 1) * heads + fwd.tocoo().row % heads  # place in the flat (2E+N, H)
        bwd = fwd.T.tocsr()
        fwd_order, bwd_order = fwd.data, bwd.data
        fwd.data, bwd.data = np.zeros(fwd.nnz), np.zeros(bwd.nnz)
        return cls(fwd=fwd, bwd=bwd, fwd_order=fwd_order, bwd_order=bwd_order)


_BLOCK = 1 << 16  # values per operand in one gathered block of the edge dots


def _edge_dots(support: _Support, left, right, out, scratch) -> None:
    """out[k, h] = left[rows[k], h] . right[cols[k], h] for every support entry k and head h.

    `left` and `right` are (N, H*O).  Both operands' rows are gathered into
    `scratch`, a flat buffer of at least 2*H*O values, in blocks of up to
    `_BLOCK` values each (fewer if `scratch` is smaller), and each pair of
    blocks is reduced by one einsum.
    """
    width, heads = left.shape[1], out.shape[1]
    block = min(max(1, _BLOCK // width), len(scratch) // (2 * width))
    gl = scratch[:block * width].reshape(block, width)
    gr = scratch[block * width:2 * block * width].reshape(block, width)
    for start in range(0, len(out), block):
        stop = min(start + block, len(out))
        k = stop - start
        left.take(support.rows[start:stop], axis=0, out=gl[:k], mode="clip")
        right.take(support.cols[start:stop], axis=0, out=gr[:k], mode="clip")
        np.einsum("kho,kho->kh", gl[:k].reshape(k, heads, -1), gr[:k].reshape(k, heads, -1),
                  out=out[start:stop])


class _LayerWork:
    """The arrays of one layer's forward and backward pass for one support, allocated once.

    `scratch` holds the gradient of the layer's output, `dout`; the forward
    pass's ELU uses it before that, and once `_elu_backward` has consumed the
    gradient, the same memory holds the edge dots' row gathers and then dZ.  With `fold`, Z's memory also fits one W, the rank-1 part of dW,
    which is written there once Z is spent.  Without `keep_output`, `out` is `U`:
    the ELU is written over its input, and `_elu_backward` turns it into dU.

    A head group of a `_Workspace` is given its memory as `shared` instead: its
    column block `out` of layer 1's output, its U, Z's memory and the edge dots'
    scratch.  It has no `dout`, and its dZ goes into Z's memory.
    """

    def __init__(self, layer: GatLayerParams, support: _Support, fold: bool = False,
                 keep_output: bool = False, shared=None):
        n, m, heads = support.n, len(support.rows), layer.head_count
        width = heads * layer.out_dim
        self.pattern = _HeadPattern.of_support(support, heads)
        if shared is None:
            self.z_buffer = np.empty(max(n * width, layer.weights.size if fold else 0))
            self.U = np.empty((n, width))
            self.out = np.empty((n, width)) if keep_output else self.U
            self.scratch = np.empty(max(n, 2) * width)
            self.dout = self.dZ = self.scratch[:n * width].reshape(n, width)
        else:
            self.out, self.U, self.z_buffer, self.scratch = shared
            self.dZ = self.z_buffer[:n * width].reshape(n, width)
        self.Z = self.z_buffer[:n * width].reshape(n, width)
        self.sr = np.empty((2, n, heads))  # logit halves s and r, later ds and dr
        self.dsr = np.empty((heads, 2, n))  # the same, head-major, for batched matmuls
        self.Q = np.empty((heads, 2, layer.in_dim))  # per head [ds dr]^T X
        self.seg = np.empty((n, heads))
        self.alpha, self.tmp, self.dalpha = (np.empty((m, heads)) for _ in range(3))
        self.negative = np.empty((m, heads), dtype=bool)  # where the logit is below zero


def _attention(layer: GatLayerParams, X, support: _Support, lw: _LayerWork) -> None:
    """Z = X W^T for all heads at once, then each head's segment softmax of its
    logits over the support into `lw.alpha`, a (2E+N, H) array."""
    heads, o, f = layer.weights.shape
    np.matmul(X, layer.weights.reshape(heads * o, f).T, out=lw.Z)
    # per head [s r] = a Z^T: one matmul batched over heads, on (H, ., .) views
    np.matmul(layer.attn.reshape(heads, 2, o), lw.Z.reshape(len(X), heads, o).transpose(1, 2, 0),
              out=lw.dsr)
    np.copyto(lw.sr, lw.dsr.transpose(1, 2, 0))
    s, r = lw.sr
    logits, tmp, seg = lw.alpha, lw.tmp, lw.seg
    # the take methods, not np.take, whose wrapper costs as much as a small take
    s.take(support.rows, axis=0, out=logits, mode="clip")
    logits += r.take(support.cols, axis=0, out=tmp, mode="clip")
    np.less(logits, 0.0, out=lw.negative)
    np.multiply(logits, LEAKY_SLOPE, out=logits, where=lw.negative)  # LeakyReLU
    np.maximum.reduceat(logits, support.starts, axis=0, out=seg)
    logits -= seg.take(support.rows, axis=0, out=tmp, mode="clip")
    np.exp(logits, out=logits)
    np.add.reduceat(logits, support.starts, axis=0, out=seg)
    logits /= seg.take(support.rows, axis=0, out=tmp, mode="clip")


def _aggregate(layer: GatLayerParams, X, support: _Support, lw: _LayerWork) -> np.ndarray:
    """The attention aggregation U of every head in one pass; returns `lw.U`."""
    _attention(layer, X, support, lw)
    pattern = lw.pattern
    lw.alpha.reshape(-1).take(pattern.fwd_order, out=pattern.fwd.data, mode="clip")
    nh = len(X) * layer.head_count
    spmm(pattern.fwd, lw.Z.reshape(nh, -1), out=lw.U.reshape(nh, -1))
    return lw.U


def _layer_forward(layer: GatLayerParams, X, support: _Support, lw: _LayerWork) -> np.ndarray:
    """ELU of the attention aggregation, every head in one pass; returns `lw.out`."""
    _aggregate(layer, X, support, lw)
    return elu(lw.U, out=lw.out, scratch=lw.dout)


def _group_forward(layer: GatLayerParams, X, support: _Support, lw: _LayerWork) -> None:
    """A head group's aggregation, copied into its column block of layer 1's U."""
    np.copyto(lw.out, _aggregate(layer, X, support, lw))


def _elu_backward(y, dout, out) -> None:
    """dU = elu'(U) dout into `out`, which may be y, the slope taken from y = elu(U)."""
    dU = _elu_slope(y, out=out)
    dU *= dout


def _layer_backward(layer: GatLayerParams, X, support: _Support, lw: _LayerWork,
                    grad: GatLayerParams, dX=None, worker: _Worker = _SERIAL) -> None:
    """Gradients of one layer, from dU in `lw.U` (see `_elu_backward`), which may be
    the caller's head group of layer 1.

    Writes dW and da into `grad` and, if given, dX = dZ W into `dX`.  Uses up
    the forward pass's Z and dU.
    dZ = A^T dU + ds (x) a_src + dr (x) a_dst per head.  Without dX the rank-1
    terms go into dW through the (H, 2, F) product [ds dr]^T X, which needs
    `lw` built with `fold`; with dX they are added to dZ itself, and dW = dZ^T X
    runs on `worker` while the caller writes dX.
    """
    heads, o, f = layer.weights.shape
    nh = len(X) * heads
    dU = lw.U
    _edge_dots(support, dU, lw.Z, lw.dalpha, lw.scratch)
    alpha, tmp, seg, dlogit = lw.alpha, lw.tmp, lw.seg, lw.dalpha
    np.multiply(alpha, dlogit, out=tmp)
    np.add.reduceat(tmp, support.starts, axis=0, out=seg)
    dlogit -= seg.take(support.rows, axis=0, out=tmp, mode="clip")
    dlogit *= alpha
    np.multiply(dlogit, LEAKY_SLOPE, out=dlogit, where=lw.negative)  # now d(logit before LeakyReLU)
    ds, dr = lw.sr
    np.add.reduceat(dlogit, support.starts, axis=0, out=ds)
    np.add.reduceat(dlogit.take(support.by_col, axis=0, out=tmp, mode="clip"),
                    support.col_starts, axis=0, out=dr)
    # per head da = [ds dr] Z, batched as in the forward
    dsr, a3 = lw.dsr, layer.attn.reshape(heads, 2, o)
    np.copyto(dsr, lw.sr.transpose(2, 0, 1))
    Z3 = lw.Z.reshape(len(X), heads, o).transpose(1, 0, 2)
    np.matmul(dsr, Z3, out=grad.attn.reshape(heads, 2, o))

    pattern = lw.pattern
    alpha.reshape(-1).take(pattern.bwd_order, out=pattern.bwd.data, mode="clip")
    dZ = lw.dZ
    spmm(pattern.bwd, dU.reshape(nh, o), out=dZ.reshape(nh, o))
    dW = grad.weights.reshape(heads * o, f)
    if dX is None:
        np.matmul(dZ.T, X, out=dW)
        np.matmul(dsr, X, out=lw.Q)
        # Z and dZ are spent: Z's memory takes the rank-1 part a (x) [ds dr]^T X of dW
        rank1 = lw.z_buffer[:layer.weights.size].reshape(heads, o, f)
        np.matmul(a3.transpose(0, 2, 1), lw.Q, out=rank1)
        grad.weights += rank1
    else:
        # Z is spent: it holds ds (x) a_src + dr (x) a_dst per head
        np.matmul(dsr.transpose(0, 2, 1), a3, out=Z3)
        dZ += lw.Z
        worker.run([functools.partial(np.matmul, dZ.T, X, out=dW),
                    functools.partial(np.matmul, dZ, layer.weights.reshape(heads * o, f),
                                      out=dX)])


def _head_groups(heads: int) -> list[slice]:
    """Layer 1's fixed head groups: the first ceil(H/2) heads, then the rest, if any."""
    cut = (heads + 1) // 2
    return [slice(0, cut), slice(cut, heads)][:1 + (cut < heads)]


def _head_group(layer: GatLayerParams, heads: slice) -> GatLayerParams:
    """The heads `heads` of `layer`, as views; built without a new layer's checks,
    which cost more than a group's pass on a small graph."""
    group = object.__new__(GatLayerParams)
    group.weights, group.attn = layer.weights[heads], layer.attn[heads]
    return group


class _Workspace:
    """Every array of a forward and backward pass of `model` on `support`, allocated
    once and reused by each call: the work of layer 1's head groups (`layer1`) and of
    layer 2, the flat gradient with a model of views on it (`grad`), and the buffers
    of up to `pairs` scored pairs.  `worker` runs the second head group's share; it
    runs in the caller unless `train` gives it a thread.

    Layer 1 keeps three buffers of N x H*O values, which its head groups share out:
    - `X1`: each group copies its U into its column block, then the ELU, its slope
      and dU are written over the whole (a ufunc on a strided block would allocate
      iterator buffers), and each group copies its block of dU out.  Its two flat
      halves are then the groups' edge-dot scratch.
    - The gradient buffer: each group's U, in a contiguous part; ELU scratch; the
      pair buffers; dX, written by layer 2's backward; each group's dU.
    - Z's buffer: each group's Z, in a part of its own; its dZ; the rank-1 part of
      its dW.
    """

    def __init__(self, model: GatModel, support: _Support, pairs: int = 0):
        layer1, n = model.layer1, support.n
        o = layer1.out_dim
        width = layer1.head_count * o
        self.width = model.layer2.out_dim
        self.groups = _head_groups(layer1.head_count)
        self._x1 = np.empty(max(n, 4) * width)  # each half fits a group's two gathered rows
        self.X1 = self._x1[:n * width].reshape(n, width)
        self.grad_buffer = np.empty(max(n * width, pairs * (3 * self.width + 4)))
        self.dX = self.grad_buffer[:n * width].reshape(n, width)
        z_rows = max(n, layer1.in_dim)  # a group's Z, or its rank-1 part of dW
        self._z = z_buffer = np.empty(z_rows * width)
        self.layer1 = []
        for heads, half in zip(self.groups, np.array_split(self._x1, 2)):
            start, stop = heads.start * o, heads.stop * o
            shared = (self.X1[:, start:stop],
                      self.grad_buffer[n * start:n * stop].reshape(n, stop - start),
                      z_buffer[z_rows * start:z_rows * stop], half)
            self.layer1.append(_LayerWork(_head_group(layer1, heads), support, shared=shared))
        self.layer2 = _LayerWork(model.layer2, support, keep_output=True)
        self.grads = np.empty(sum(p.size for p in model.parameters()))
        self.grad = _views(model, self.grads)
        self.worker = _SERIAL

    def pair_buffers(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The 3*count x O pair rows of `_pair_outputs` and four pair vectors (4 x count)."""
        rows = 3 * count * self.width
        return (self.grad_buffer[:rows].reshape(3 * count, self.width),
                self.grad_buffer[rows:rows + 4 * count].reshape(4, count))

    def idle_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """Two flat buffers that hold nothing from the end of a pass to the next one:
        layer 1's output and Z's buffer."""
        return self._x1, self._z

    def _group_calls(self, fn, layer: GatLayerParams, X, support: _Support, *grad) -> list:
        """fn(head group of `layer`, X, support, the group's work[, head group of grad])
        for each of layer 1's head groups, as zero-argument calls."""
        return [functools.partial(fn, _head_group(layer, heads), X, support, lw,
                                  *(_head_group(g, heads) for g in grad))
                for heads, lw in zip(self.groups, self.layer1)]

    def layer1_forward(self, layer: GatLayerParams, X, support: _Support) -> np.ndarray:
        """Layer 1's output X1: each head group's U, copied into its column block, then
        the ELU over the whole, each step shared with `worker`."""
        self.worker.run(self._group_calls(_group_forward, layer, X, support))
        self.worker.run(_row_halves(elu, self.X1, self.X1, self.dX))
        return self.X1

    def layer1_backward(self, layer: GatLayerParams, X, support: _Support,
                        grad: GatLayerParams) -> None:
        """Layer 1's gradients into `grad`, from dX, the gradient of its output: dU over
        the whole of X1, then each group's block of it copied out into its U, then
        the groups' backward passes, each step shared with `worker`."""
        self.worker.run(_row_halves(_elu_backward, self.X1, self.dX, self.X1))
        self.worker.run([functools.partial(np.copyto, lw.U, lw.out) for lw in self.layer1])
        self.worker.run(self._group_calls(_layer_backward, layer, X, support, grad))


def _check_features(layer: GatLayerParams, features, base: RouteGraph) -> np.ndarray:
    """`features` as a float array with a row per node of `base` and a column per
    input of `layer`."""
    X = features.values if isinstance(features, CaseMatrix) else np.asarray(features, float)
    if X.ndim != 2 or X.shape[1] != layer.in_dim:
        raise ValidationError(
            f"feature matrix of shape {X.shape} does not match layer input "
            f"dimension {layer.in_dim}"
        )
    if X.shape[0] != base.n:
        raise ValidationError(f"feature matrix has {X.shape[0]} rows for {base.n} nodes")
    return X


def attention_coefficients(layer: GatLayerParams, features,
                           base: RouteGraph) -> list[sp.csr_matrix]:
    """Per-head row-stochastic attention matrices over the closed neighborhoods."""
    X = _check_features(layer, features, base)
    support = _Support.of_graph(base)
    lw = _LayerWork(layer, support)
    _attention(layer, X, support, lw)
    return [support.matrix(alpha) for alpha in lw.alpha.T]


def layer_forward(layer: GatLayerParams, features, base: RouteGraph) -> np.ndarray:
    """ELU-activated attention aggregation, the heads' outputs side by side."""
    X = _check_features(layer, features, base)
    support = _Support.of_graph(base)
    return _layer_forward(layer, X, support, _LayerWork(layer, support))


def _model_forward(model: GatModel, X, support: _Support, ws: _Workspace):
    """Both layers' outputs (X1, X2), views of `ws`."""
    X1 = ws.layer1_forward(model.layer1, X, support)
    return X1, _layer_forward(model.layer2, X1, support, ws.layer2)


def _bce(q, labels, scratch) -> float:
    """Mean binary cross-entropy of `bce_loss`, through three `scratch` rows of q's shape."""
    if q.size == 0:
        raise ValidationError("cannot evaluate loss on an empty sample subset")
    qc, terms, negatives = scratch
    np.clip(q, Q_CLAMP, 1.0 - Q_CLAMP, out=qc)
    np.log(qc, out=terms)
    terms *= labels                      # labels * log(qc)
    np.subtract(1.0, qc, out=qc)
    np.log(qc, out=qc)
    qc *= np.subtract(1.0, labels, out=negatives)  # (1 - labels) * log(1 - qc)
    terms += qc
    return float(-terms.mean())


def bce_loss(q, labels) -> float:
    """Mean binary cross-entropy with outputs clamped to [1e-12, 1 - 1e-12]."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    labels = np.atleast_1d(np.asarray(labels, dtype=float))
    return _bce(q, labels, np.empty((3,) + np.broadcast_shapes(q.shape, labels.shape)))


def _pair_outputs(X2, theta, pairs, rows=None, vectors=None):
    """Endpoint rows, their product, and q = sigmoid of its theta-weighted sum per pair.

    The three (B, O) arrays are the row blocks [xj; xi; prod] of `rows` (3B x O),
    so that xj and xi stack as one operand, and q is the first row of `vectors`
    (B-long rows, the second one scratch); both are new if not given.  `pairs`
    must hold node positions in [0, N).
    """
    b = len(pairs)
    rows = np.empty((3 * b, X2.shape[1])) if rows is None else rows
    vectors = np.empty((2, b)) if vectors is None else vectors
    xj, xi, prod = rows[:b], rows[b:2 * b], rows[2 * b:]
    X2.take(pairs[:, 0], axis=0, out=xi, mode="clip")
    X2.take(pairs[:, 1], axis=0, out=xj, mode="clip")
    np.multiply(xi, xj, out=prod)
    q = np.matmul(prod, theta, out=vectors[0])
    return xi, xj, prod, _sigmoid(q, q, vectors[1])


def _pair_loss(X2, theta, pairs, labels, buffers) -> float:
    """The loss of `pairs` through `buffers`, a `_Workspace.pair_buffers` pair."""
    rows, vectors = buffers
    return _bce(_pair_outputs(X2, theta, pairs, rows, vectors)[3], labels, vectors[1:])


def _pair_scatter(pairs: np.ndarray, n: int) -> sp.csr_matrix:
    """N x 2B 0/1 matrix adding row k and row B + k onto the endpoints of pair k.

    Each pair has its own two columns, so repeated pairs and (i, i) pairs add up.
    """
    ends = np.concatenate([pairs[:, 0], pairs[:, 1]])
    return sp.csr_matrix((np.ones(len(ends)), (ends, np.arange(len(ends)))),
                         shape=(n, len(ends)))


def _loss_and_grads(model: GatModel, X, support: _Support, pairs, labels, scatter=None,
                    ws: _Workspace | None = None):
    """Full forward pass plus hand-derived reverse-mode gradients.

    Returns (loss, grads, X2): grads are ordered exactly like model.parameters(),
    and X2 is the second-layer output, from which other pairs can be scored
    without another forward pass.  `scatter` is `_pair_scatter(pairs, N)` and
    `ws` a `_Workspace` for at least len(pairs) pairs, each built here when not
    given; grads and X2 are views of `ws`, valid until its next use.
    """
    batch = len(pairs)
    if scatter is None:
        scatter = _pair_scatter(pairs, X.shape[0])
    if ws is None:
        ws = _Workspace(model, support, batch)
    X1, X2 = _model_forward(model, X, support, ws)
    rows, vectors = ws.pair_buffers(batch)
    xi, xj, prod, q_raw = _pair_outputs(X2, model.theta, pairs, rows, vectors)
    loss = _bce(q_raw, labels, vectors[1:])

    # logit-form BCE gradient: exact wherever the loss clamp is inactive, and
    # still provides an escape direction when sigmoid saturates past the clamp
    draw = np.subtract(q_raw, labels, out=vectors[1])
    draw /= batch

    grad = ws.grad
    np.matmul(prod.T, draw, out=grad.theta)
    # einsum: a broadcasting ufunc with `out` allocates ~128 KB of iterator buffers per call
    dprod = np.einsum("b,o->bo", draw, model.theta, out=prod)
    xj *= dprod
    xi *= dprod
    # scatter-add onto both endpoints' rows as one sparse product (np.add.at is slower)
    spmm(scatter, rows[:2 * batch], out=ws.layer2.dout)

    _elu_backward(ws.layer2.out, ws.layer2.dout, out=ws.layer2.U)
    _layer_backward(model.layer2, X1, support, ws.layer2, grad.layer2, dX=ws.dX,
                    worker=ws.worker)
    ws.layer1_backward(model.layer1, X, support, grad.layer1)
    return loss, grad.parameters(), X2


def _evaluate_loss(model: GatModel, X, support: _Support, pairs, labels) -> float:
    ws = _Workspace(model, support, len(pairs))
    _, X2 = _model_forward(model, X, support, ws)
    return _pair_loss(X2, model.theta, pairs, labels, ws.pair_buffers(len(pairs)))


def negative_candidates(base: RouteGraph) -> list[tuple[int, int]]:
    """Non-adjacent pairs (i < j) reachable in 2 or 3 hops, in row-major order."""
    A = base.adjacency.astype(np.int64)
    A2 = A @ A
    reach = sp.triu(A2 + A2 @ A, k=1, format="coo")
    adjacent = np.asarray(A[reach.row, reach.col]).ravel() != 0
    keep = (reach.data > 0) & ~adjacent
    i, j = reach.row[keep], reach.col[keep]
    order = np.lexsort((j, i))
    return list(zip(i[order].tolist(), j[order].tolist()))


def make_samples(base: RouteGraph, seed: int) -> SampleSets:
    """Draw negatives, then split 6:2:2 per class with an exactly balanced test set."""
    positives = list(base.edges)
    if not positives:
        raise ValidationError("cannot sample edges from a graph with no edges")
    candidates = negative_candidates(base)
    rng = np.random.default_rng(seed)

    if len(candidates) < len(positives):
        warnings.warn(
            f"only {len(candidates)} negative candidates for {len(positives)} edges; "
            "using all of them"
        )
        negatives = list(candidates)
    else:
        chosen = rng.choice(len(candidates), size=len(positives), replace=False)
        negatives = [candidates[k] for k in chosen]

    n_pos, n_neg = len(positives), len(negatives)
    n_test = min(round(0.2 * n_pos), n_neg)

    def assign(count):
        """A random n_test of `count` pairs to test, then a fifth, or what is left, to
        validation, and the rest to training."""
        split = np.full(count, TRAIN, dtype=np.int8)
        perm = rng.permutation(count)
        split[perm[:n_test]] = TEST
        split[perm[n_test:n_test + min(round(0.2 * count), count - n_test)]] = VALIDATION
        return split

    pairs = np.array(positives + negatives, dtype=int)
    labels = np.concatenate([np.ones(n_pos), np.zeros(n_neg)])
    split = np.concatenate([assign(n_pos), assign(n_neg)])  # positives draw first
    return SampleSets(pairs=pairs, labels=labels, split=split)


# values per block of an Adam step through scratch of its own; much smaller blocks
# cost more in per-call overhead
_ADAM_BLOCK = 1 << 14


class _Adam:
    """Adaptive moment estimation with the standard decay constants, on one flat vector.

    Updates in place, in two halves of the vector, the second on a worker.  Each
    half goes through its own flat buffer of `scratch`, a pair, as many values at
    a time as half the buffer holds.  By default each buffer holds two blocks of
    `_ADAM_BLOCK` values (of the vector's size, if smaller) and is allocated with
    the moments; `train` lends it two of the workspace's, which hold nothing
    between passes.  Each value goes through the same operations as in an update
    of the whole vector at once, so neither the halves nor the block size change
    a bit.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, size: int, lr, scratch=None):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._scratch = np.empty((2, 2 * min(size, _ADAM_BLOCK))) if scratch is None else scratch
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray, worker: _Worker = _SERIAL) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        cut = len(params) // 2
        worker.run([functools.partial(self._update, half, params, grads, scratch, bc1, bc2)
                    for half, scratch in zip((slice(0, cut), slice(cut, None)), self._scratch)])

    def _update(self, half: slice, params, grads, scratch, bc1: float, bc2: float) -> None:
        block = len(scratch) // 2
        params, grads, m, v = params[half], grads[half], self.m[half], self.v[half]
        for start in range(0, len(params), block):
            part = slice(start, start + block)
            p, g, mk, vk = params[part], grads[part], m[part], v[part]
            step, scale = scratch[:2 * len(p)].reshape(2, len(p))
            np.subtract(g, mk, out=step)
            step *= 1.0 - self.BETA1
            mk += step
            np.multiply(g, g, out=step)
            step -= vk
            step *= 1.0 - self.BETA2
            vk += step
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), in that order
            np.divide(mk, bc1, out=step)
            step *= self.lr
            np.divide(vk, bc2, out=scale)
            np.sqrt(scale, out=scale)
            scale += self.EPS
            step /= scale
            p -= step


def _flat_copy(model: GatModel) -> tuple[GatModel, np.ndarray]:
    """A copy of `model` whose parameters are views of one vector, in parameters() order."""
    flat = np.concatenate([p.ravel() for p in model.parameters()])
    return _views(model, flat), flat


def train(model: GatModel, base: RouteGraph, features, samples: SampleSets,
          cfg: TrainConfig) -> tuple[GatModel, dict]:
    """Full-batch training with early stopping on the validation loss.

    Returns the parameters of the best validation epoch and the loss history, and
    warns if that is epoch 0.  Every array an epoch needs is allocated once, before
    the first.  With a second CPU free (see `_second_cpu_free`), layer 1's second
    head group and the second half of each Adam step run on a worker thread,
    which has ended when this returns.
    """
    X = _check_features(model.layer1, features, base)
    support = _Support.of_graph(base)
    train_pairs, train_labels = samples.subset("train")
    val_pairs, val_labels = samples.subset("validation")
    # column-major pairs: take gathers each endpoint column without copying it
    train_pairs, val_pairs = np.asfortranarray(train_pairs), np.asfortranarray(val_pairs)

    work, params = _flat_copy(model)
    del model  # the caller's reference, if any, alone keeps the initial parameters
    scatter = _pair_scatter(train_pairs, X.shape[0])
    ws = _Workspace(work, support, max(len(train_pairs), len(val_pairs)))
    opt = _Adam(params.size, lr=cfg.lr, scratch=ws.idle_buffers())

    best_val = np.inf
    best_params = params.copy()
    best_epoch = 0
    wait = 0
    history = {"train_loss": [], "val_loss": [], "best_epoch": 0}

    ws.worker = _Worker(threaded=len(ws.groups) == 2 and _second_cpu_free(ws.X1.size))
    try:
        for epoch in range(cfg.max_epochs):
            loss, _, X2 = _loss_and_grads(work, X, support, train_pairs, train_labels, scatter, ws)
            # the step's forward pass also scores the validation pairs; tiny graphs
            # can yield an empty validation split, where the training loss is the
            # monitor so early stopping still works
            if len(val_pairs):
                val_loss = _pair_loss(X2, work.theta, val_pairs, val_labels,
                                      ws.pair_buffers(len(val_pairs)))
            else:
                val_loss = loss
            if not (np.isfinite(loss) and np.isfinite(val_loss)):
                raise NumericError(f"training diverged (non-finite loss) at epoch {epoch}")
            history["train_loss"].append(loss)
            history["val_loss"].append(val_loss)

            if val_loss < best_val:
                best_val = val_loss
                best_params[...] = params
                best_epoch = epoch
                wait = 0
            else:
                wait += 1
                if wait >= cfg.patience:
                    break
            opt.step(params, ws.grads, ws.worker)
    finally:
        ws.worker.close()

    params[...] = best_params
    history["best_epoch"] = best_epoch
    if best_epoch == 0:
        warnings.warn("the best validation loss is at epoch 0: the parameters, and the "
                      "transition matrix from them, are the initial attention")
    return work, history


def predict_edges(model: GatModel, base: RouteGraph, features, pairs: np.ndarray) -> np.ndarray:
    """Edge probabilities q for the given node-index pairs."""
    X = _check_features(model.layer1, features, base)
    pairs = np.asarray(pairs, dtype=int)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValidationError(f"pairs must be a P x 2 array, got shape {pairs.shape}")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= base.n):
        raise ValidationError(f"pair node indices must lie in [0, {base.n})")
    support = _Support.of_graph(base)
    _, X2 = _model_forward(model, X, support, _Workspace(model, support))
    return _pair_outputs(X2, model.theta, pairs)[3]


def edge_accuracy(model: GatModel, base: RouteGraph, features, samples: SampleSets) -> float:
    """Test-set accuracy of q > 0.5 against the edge labels."""
    pairs, labels = samples.subset("test")
    q = predict_edges(model, base, features, pairs)
    return float(np.mean((q > 0.5) == (labels > 0.5)))


def extract_transition(model: GatModel, base: RouteGraph, features) -> TransitionMatrix:
    """Transition matrix: second-layer attention evaluated on layer-1 outputs."""
    X = _check_features(model.layer1, features, base)
    support = _Support.of_graph(base)
    ws = _Workspace(model, support)
    _model_forward(model, X, support, ws)
    return TransitionMatrix(P=support.matrix(ws.layer2.alpha[:, 0]))


def influential_scores(transition: TransitionMatrix) -> np.ndarray:
    """Summed off-diagonal column mass of P^m for m = 1..5, per node."""
    P = transition.P
    scores = np.zeros(P.shape[0])
    power = sp.identity(P.shape[0], format="csr")
    for _ in range(5):
        power = power @ P
        scores += np.asarray(power.sum(axis=0)).ravel() - power.diagonal()
    return scores
