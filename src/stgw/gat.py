"""Two-layer multi-head graph attention network trained on edge classification.

Attention runs over the graph's closed neighborhoods only, as an edge list of
2E + N entries (each edge both ways, plus every node's self-loop): per-head
logits on the entries, a segment softmax per row, and sparse products for the
aggregation and its transpose.  Gradients are hand-derived reverse-mode in
plain numpy/scipy, so training stays dependency-free and bit-reproducible for a
fixed seed, config and numpy/scipy build.  The trained second-layer attention
matrix is the transition matrix consumed by the strong-product construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NumericError, ValidationError, check_section
from .graphs import CaseMatrix, RouteGraph, TransitionMatrix

LEAKY_SLOPE = 0.35
Q_CLAMP = 1e-12
HEADS, HIDDEN, OUT = 7, 122, 88  # layer-1 heads, layer-1 head width, layer-2 width
_EDGE_BLOCK = 256

TRAIN, VALIDATION, TEST = 0, 1, 2
_SPLIT_CODE = {"train": TRAIN, "validation": VALIDATION, "test": TEST}


def leaky_relu(x):
    """x for x >= 0, LEAKY_SLOPE * x below."""
    x = np.asarray(x, dtype=float)
    out = np.where(x < 0, LEAKY_SLOPE * x, x)
    return out if out.ndim else float(out)


def _leaky_grad(x):
    return np.where(x < 0, LEAKY_SLOPE, 1.0)


def elu(x):
    """x for x >= 0, exp(x) - 1 below."""
    x = np.asarray(x, dtype=float)
    # one branch is exactly zero on each side; the operand order keeps -0.0
    out = np.expm1(np.minimum(0.0, x)) + np.maximum(0.0, x)
    return out if out.ndim else float(out)


def _elu_grad(x):
    return np.exp(np.minimum(x, 0.0))


def sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


@dataclass(eq=False)
class GatLayerParams:
    """One attention layer: per-head linear maps W (O x F) and score vectors (2O,)."""

    weights: list[np.ndarray]
    attn: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.attn) or not self.weights:
            raise ValidationError("layer needs matching, non-empty weight/attention lists")
        f_in = self.weights[0].shape[1]
        o = self.weights[0].shape[0]
        for W, a in zip(self.weights, self.attn):
            if W.shape != (o, f_in):
                raise ValidationError("all heads must share input and output dimensions")
            if a.shape != (2 * o,):
                raise ValidationError("attention vector length must be twice the head dimension")

    @property
    def head_count(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[0].shape[0]


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

        layer1 = GatLayerParams(
            weights=[glorot((head_dim, feature_dim), feature_dim, head_dim)
                     for _ in range(heads)],
            attn=[glorot((2 * head_dim,), 2 * head_dim, 1) for _ in range(heads)],
        )
        cascade = heads * head_dim
        layer2 = GatLayerParams(
            weights=[glorot((out_dim, cascade), cascade, out_dim)],
            attn=[glorot((2 * out_dim,), 2 * out_dim, 1)],
        )
        theta = glorot((out_dim,), out_dim, 1)
        return cls(layer1=layer1, layer2=layer2, theta=theta)

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list in a fixed order (shared with gradients)."""
        return (list(self.layer1.weights) + list(self.layer1.attn)
                + [self.layer2.weights[0], self.layer2.attn[0], self.theta])

    @staticmethod
    def parameter_names(heads: int) -> list[str]:
        """Names of the parameters() of a model with `heads` layer-1 heads, in order."""
        return ([f"layer1.weight.{k}" for k in range(heads)]
                + [f"layer1.attn.{k}" for k in range(heads)]
                + ["layer2.weight", "layer2.attn", "theta"])

    @classmethod
    def from_parameters(cls, params: list[np.ndarray]) -> "GatModel":
        """The model whose parameters() are `params` (the arrays themselves, not copies)."""
        heads = (len(params) - 3) // 2
        return cls(layer1=GatLayerParams(weights=list(params[:heads]),
                                         attn=list(params[heads:2 * heads])),
                   layer2=GatLayerParams(weights=[params[-3]], attn=[params[-2]]),
                   theta=params[-1])


@dataclass
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
        self.lr = float(self.lr)  # as a config file gives it, so messages read the same
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
    `reduceat` segment is empty.  `by_col` reorders the entries column-major,
    the CSR order of the transpose.  `fwd` and `bwd` are CSR patterns of A and
    A^T, built once; each head writes its attention weights into their `.data`
    before multiplying.
    """

    rows: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    by_col: np.ndarray
    fwd: sp.csr_matrix
    bwd: sp.csr_matrix

    @property
    def n(self) -> int:
        return len(self.starts)

    @classmethod
    def of_graph(cls, base: RouteGraph) -> "_Support":
        pattern = base.closed_neighborhoods()  # canonical: sorted rows, each with its diagonal
        n = base.n
        indptr, cols = pattern.indptr, pattern.indices
        rows = np.repeat(np.arange(n), np.diff(indptr))
        by_col = np.argsort(cols, kind="stable")
        col_ptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
        ones = np.ones(len(cols))
        return cls(rows=rows, cols=cols, starts=indptr[:-1], by_col=by_col,
                   fwd=sp.csr_matrix((ones, cols, indptr), shape=(n, n)),
                   bwd=sp.csr_matrix((ones.copy(), rows[by_col], col_ptr), shape=(n, n)))

    def matrix(self, alpha: np.ndarray) -> sp.csr_matrix:
        """A new N x N CSR matrix holding `alpha` on the support."""
        return sp.csr_matrix((alpha, self.cols.copy(), self.fwd.indptr.copy()),
                             shape=(self.n, self.n))


def _head_attention(W, a, X, support: _Support):
    """Segment softmax over the support for one head; returns (alpha, Z, e)."""
    Z = X @ W.T
    o = W.shape[0]
    e = (Z @ a[:o])[support.rows] + (Z @ a[o:])[support.cols]
    logits = leaky_relu(e)
    logits -= np.maximum.reduceat(logits, support.starts)[support.rows]
    ex = np.exp(logits)
    alpha = ex / np.add.reduceat(ex, support.starts)[support.rows]
    return alpha, Z, e


def _head_forward(W, a, X, support: _Support):
    alpha, Z, e = _head_attention(W, a, X, support)
    support.fwd.data[:] = alpha
    U = support.fwd @ Z
    return elu(U), (Z, e, alpha, U)


def _edge_dots(support: _Support, left, right) -> np.ndarray:
    """left[rows[k]] . right[cols[k]] for every support entry k.

    Gathered in blocks of `_EDGE_BLOCK` entries: two whole (2E + N) x O
    gathers cost several times more, in fresh memory, than the arithmetic.
    """
    out = np.empty(len(support.rows))
    for start in range(0, len(out), _EDGE_BLOCK):
        block = slice(start, start + _EDGE_BLOCK)
        g = left[support.rows[block]]
        g *= right[support.cols[block]]
        g.sum(axis=1, out=out[block])
    return out


def _head_backward(W, a, X, support: _Support, cache, dH):
    """Gradients (dW, da, dZ) of one head; the caller forms dX = dZ @ W if needed."""
    Z, e, alpha, U = cache
    dU = dH * _elu_grad(U)
    support.bwd.data[:] = alpha[support.by_col]
    dZ = support.bwd @ dU
    dalpha = _edge_dots(support, dU, Z)
    dlogit = alpha * (dalpha - np.add.reduceat(alpha * dalpha, support.starts)[support.rows])
    de = dlogit * _leaky_grad(e)
    ds = np.add.reduceat(de, support.starts)
    dr = np.bincount(support.cols, weights=de, minlength=support.n)
    o = W.shape[0]
    da = np.concatenate([Z.T @ ds, Z.T @ dr])
    dZ += np.outer(ds, a[:o]) + np.outer(dr, a[o:])
    return dZ.T @ X, da, dZ


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
    return [support.matrix(_head_attention(W, a, X, support)[0])
            for W, a in zip(layer.weights, layer.attn)]


def _layer_forward(layer: GatLayerParams, X, support: _Support):
    """Each head's output and its cache (Z, e, alpha, U), as two tuples."""
    return tuple(zip(*(_head_forward(W, a, X, support)
                       for W, a in zip(layer.weights, layer.attn))))


def layer_forward(layer: GatLayerParams, features, base: RouteGraph) -> np.ndarray:
    """ELU-activated attention aggregation, the heads' outputs side by side."""
    X = _check_features(layer, features, base)
    outs, _ = _layer_forward(layer, X, _Support.of_graph(base))
    return np.concatenate(outs, axis=1)


def _model_forward(model: GatModel, X, support: _Support):
    # `outs1` lives until the return on purpose: at N=400, T=104, freeing the head
    # outputs before the layer-2 pass doubled training's page faults and cost ~5% CPU
    outs1, caches1 = _layer_forward(model.layer1, X, support)
    X1 = np.concatenate(outs1, axis=1)
    (X2,), (cache2,) = _layer_forward(model.layer2, X1, support)
    return X1, X2, (caches1, cache2)


def bce_loss(q, labels) -> float:
    """Mean binary cross-entropy with outputs clamped to [1e-12, 1 - 1e-12]."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    labels = np.atleast_1d(np.asarray(labels, dtype=float))
    if q.size == 0:
        raise ValidationError("cannot evaluate loss on an empty sample subset")
    qc = np.clip(q, Q_CLAMP, 1.0 - Q_CLAMP)
    return float(-np.mean(labels * np.log(qc) + (1.0 - labels) * np.log(1.0 - qc)))


def _pair_outputs(X2, theta, pairs):
    """Endpoint rows, their product, and q = sigmoid of its theta-weighted sum per pair."""
    xi = X2[pairs[:, 0]]
    xj = X2[pairs[:, 1]]
    prod = xi * xj
    return xi, xj, prod, sigmoid(prod @ theta)


def _pair_loss(X2, theta, pairs, labels) -> float:
    return bce_loss(_pair_outputs(X2, theta, pairs)[3], labels)


def _pair_scatter(pairs: np.ndarray, n: int) -> sp.csr_matrix:
    """N x 2B 0/1 matrix adding row k and row B + k onto the endpoints of pair k."""
    ends = np.concatenate([pairs[:, 0], pairs[:, 1]])
    return sp.csr_matrix((np.ones(len(ends)), (ends, np.arange(len(ends)))),
                         shape=(n, len(ends)))


def _loss_and_grads(model: GatModel, X, support: _Support, pairs, labels, scatter=None):
    """Full forward pass plus hand-derived reverse-mode gradients.

    Returns (loss, grads, X2): grads are ordered exactly like model.parameters(),
    and X2 is the second-layer output, from which other pairs can be scored
    without another forward pass.  `scatter` is `_pair_scatter(pairs, N)`,
    built here when not given.
    """
    if scatter is None:
        scatter = _pair_scatter(pairs, X.shape[0])
    X1, X2, (caches1, cache2) = _model_forward(model, X, support)
    xi, xj, prod, q_raw = _pair_outputs(X2, model.theta, pairs)
    loss = bce_loss(q_raw, labels)

    batch = len(pairs)
    # logit-form BCE gradient: exact wherever the loss clamp is inactive, and
    # still provides an escape direction when sigmoid saturates past the clamp
    draw = (q_raw - labels) / batch

    dtheta = prod.T @ draw
    dprod = np.outer(draw, model.theta)
    # scatter-add onto both endpoints' rows as one sparse product (np.add.at is slower)
    dX2 = scatter @ np.concatenate([dprod * xj, dprod * xi])

    W2 = model.layer2.weights[0]
    dW2, da2, dZ2 = _head_backward(W2, model.layer2.attn[0], X1, support,
                                   cache2, dX2)
    dX1 = dZ2 @ W2

    o1 = model.layer1.out_dim
    dW1s, da1s = [], []
    for k, (W, a) in enumerate(zip(model.layer1.weights, model.layer1.attn)):
        dH = dX1[:, k * o1:(k + 1) * o1]
        dW, da, _ = _head_backward(W, a, X, support, caches1[k], dH)
        dW1s.append(dW)
        da1s.append(da)

    grads = dW1s + da1s + [dW2, da2, dtheta]
    return loss, grads, X2


def _evaluate_loss(model: GatModel, X, support: _Support, pairs, labels) -> float:
    _, X2, _ = _model_forward(model, X, support)
    return _pair_loss(X2, model.theta, pairs, labels)


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
    n_val_pos = round(0.2 * n_pos)
    n_val_neg = min(round(0.2 * n_neg), n_neg - n_test)

    split_pos = np.full(n_pos, TRAIN, dtype=np.int8)
    perm = rng.permutation(n_pos)
    split_pos[perm[:n_test]] = TEST
    split_pos[perm[n_test:n_test + n_val_pos]] = VALIDATION

    split_neg = np.full(n_neg, TRAIN, dtype=np.int8)
    perm = rng.permutation(n_neg)
    split_neg[perm[:n_test]] = TEST
    split_neg[perm[n_test:n_test + n_val_neg]] = VALIDATION

    pairs = np.array(positives + negatives, dtype=int)
    labels = np.concatenate([np.ones(n_pos), np.zeros(n_neg)])
    split = np.concatenate([split_pos, split_neg])
    return SampleSets(pairs=pairs, labels=labels, split=split)


class _Adam:
    """Adaptive moment estimation with the standard decay constants, on one flat vector."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, size: int, lr):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        self.m += (1.0 - self.BETA1) * (grads - self.m)
        self.v += (1.0 - self.BETA2) * (grads * grads - self.v)
        params -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.EPS)


def _flat_copy(model: GatModel) -> tuple[GatModel, np.ndarray]:
    """A copy of `model` whose parameters are views of one vector, in parameters() order."""
    params = model.parameters()
    flat = np.concatenate([p.ravel() for p in params])
    bounds = np.cumsum([0] + [p.size for p in params])
    views = [flat[lo:hi].reshape(p.shape) for p, lo, hi in zip(params, bounds, bounds[1:])]
    return GatModel.from_parameters(views), flat


def train(model: GatModel, base: RouteGraph, features, samples: SampleSets,
          cfg: TrainConfig) -> tuple[GatModel, dict]:
    """Full-batch training with early stopping on the validation loss.

    Returns the parameters of the best validation epoch and the loss history.
    """
    X = _check_features(model.layer1, features, base)
    support = _Support.of_graph(base)
    train_pairs, train_labels = samples.subset("train")
    val_pairs, val_labels = samples.subset("validation")

    work, params = _flat_copy(model)
    opt = _Adam(params.size, lr=cfg.lr)
    grads = np.empty_like(params)
    scatter = _pair_scatter(train_pairs, X.shape[0])

    best_val = np.inf
    best_params = params.copy()
    best_epoch = 0
    wait = 0
    history = {"train_loss": [], "val_loss": [], "best_epoch": 0}

    for epoch in range(cfg.max_epochs):
        loss, grad_list, X2 = _loss_and_grads(work, X, support, train_pairs, train_labels,
                                              scatter)
        # the step's forward pass also scores the validation pairs; tiny graphs
        # can yield an empty validation split, where the training loss is the
        # monitor so early stopping still works
        if len(val_pairs):
            val_loss = _pair_loss(X2, work.theta, val_pairs, val_labels)
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
        np.concatenate([g.ravel() for g in grad_list], out=grads)
        opt.step(params, grads)

    params[...] = best_params
    history["best_epoch"] = best_epoch
    return work, history


def predict_edges(model: GatModel, base: RouteGraph, features, pairs: np.ndarray) -> np.ndarray:
    """Edge probabilities q for the given node-index pairs."""
    X = _check_features(model.layer1, features, base)
    _, X2, _ = _model_forward(model, X, _Support.of_graph(base))
    return _pair_outputs(X2, model.theta, np.asarray(pairs, dtype=int))[3]


def edge_accuracy(model: GatModel, base: RouteGraph, features, samples: SampleSets) -> float:
    """Test-set accuracy of q > 0.5 against the edge labels."""
    pairs, labels = samples.subset("test")
    q = predict_edges(model, base, features, pairs)
    return float(np.mean((q > 0.5) == (labels > 0.5)))


def extract_transition(model: GatModel, base: RouteGraph, features) -> TransitionMatrix:
    """Transition matrix: second-layer attention evaluated on layer-1 outputs."""
    X = _check_features(model.layer1, features, base)
    support = _Support.of_graph(base)
    # alpha from layer 2's cache (Z, e, alpha, U)
    _, _, (_, (_, _, alpha, _)) = _model_forward(model, X, support)
    return TransitionMatrix(P=support.matrix(alpha))


def influential_scores(transition: TransitionMatrix) -> np.ndarray:
    """Summed off-diagonal column mass of P^m for m = 1..5, per node."""
    P = transition.P
    scores = np.zeros(P.shape[0])
    power = sp.identity(P.shape[0], format="csr")
    for _ in range(5):
        power = power @ P
        scores += np.asarray(power.sum(axis=0)).ravel() - power.diagonal()
    return scores
