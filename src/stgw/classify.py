"""Torque classification, slice classes, anomaly scores, and city rankings.

Wavelet coefficients are scaled per filter by their interquartile range,
log-normalized to [0, 1], and collapsed into a signed torque value per vertex.
Equal-width quintiles of the torque range split vertices into classes V1..V5;
V4/V5 vertices are then graded by the neighbor-ratio anomaly metric into
integer a-scores whose time averages rank the cities.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graphs import CaseMatrix, RouteGraph
from .sgwt import CoefficientTable

TORQUE_WEIGHTS = np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0])
THETA_HI = 1.5
THETA_LO = 2.0 / 3.0
NEUTRAL_SCORE = 2


@dataclass(frozen=True, eq=False)
class TorqueField:
    """Per-vertex torque values with quintile class labels (1..5)."""

    phi: np.ndarray
    labels: np.ndarray
    phi_min: float
    phi_max: float


def robust_scale(table: CoefficientTable) -> np.ndarray:
    """Per filter: |W| divided by the interquartile range of |W|.

    Zero-IQR columns fall back to dividing by the column max (warned); columns
    that are identically zero pass through unchanged.
    """
    absW = np.abs(table.values)
    scaled = np.zeros_like(absW)
    for m in range(absW.shape[1]):
        col = absW[:, m]
        q1, q3 = np.percentile(col, [25.0, 75.0])
        r = q3 - q1
        if r == 0.0:
            r = col.max()
            if r == 0.0:
                warnings.warn(f"filter {m + 1} is identically zero; passing through")
                continue
            warnings.warn(f"filter {m + 1} has zero IQR; scaling by column max")
        scaled[:, m] = col / r
    return scaled


def log_normalize(scaled: np.ndarray) -> np.ndarray:
    """ln(1 + S) / ln(1 + max S), per filter column; all-zero columns stay zero."""
    if np.any(scaled < 0):
        raise ValidationError("log normalization expects non-negative input")
    out = np.zeros_like(scaled)
    for m in range(scaled.shape[1]):
        top = scaled[:, m].max()
        if top > 0.0:
            out[:, m] = np.log1p(scaled[:, m]) / np.log1p(top)
    return out


def torque(normalized: np.ndarray) -> np.ndarray:
    """Signed weighted sum of the 8 filter bands, weighted by TORQUE_WEIGHTS.

    Evaluated in matched opposite-weight pairs so rows with all-equal entries
    give exactly zero.
    """
    if normalized.shape[1] != TORQUE_WEIGHTS.size:
        raise ValidationError(
            f"torque needs exactly {TORQUE_WEIGHTS.size} filters, got {normalized.shape[1]}"
        )
    phi = np.zeros(normalized.shape[0])
    for k in range(1, 5):
        phi += TORQUE_WEIGHTS[8 - k] * (normalized[:, 8 - k] - normalized[:, k - 1])
    return phi


def classify_nodes(phi: np.ndarray) -> TorqueField:
    """Equal-width quintiles of [phi_min, phi_max]; V1 closed at the bottom."""
    phi = np.asarray(phi, dtype=float)
    lo = float(phi.min())
    hi = float(phi.max())
    d = hi - lo
    if d == 0.0:
        warnings.warn("degenerate torque field (all values equal); every node in V1")
        labels = np.ones(phi.shape, dtype=int)
    else:
        labels = np.ceil(5.0 * (phi - lo) / d).astype(int)
        labels = np.clip(labels, 1, 5)
    return TorqueField(phi=phi, labels=labels, phi_min=lo, phi_max=hi)


def label_grid(labels: np.ndarray, n: int, t: int) -> np.ndarray:
    """Reshape slice-major vertex labels to an (N, T) grid."""
    if labels.size != n * t:
        raise ValidationError("label count does not cover all N*T vertices")
    return labels.reshape(t, n).T


def slice_classification(labels: np.ndarray, n: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Class frequencies per slice and the dominant class of each slice.

    sigma[t, j-1] is the fraction of nodes in class j during slice t.  The
    slice class maximizes sigma_t^j / max_t sigma_t^j over classes that appear
    at all, breaking ties toward the larger class index.
    """
    grid = label_grid(np.asarray(labels, dtype=int), n, t)
    sigma = np.zeros((t, 5))
    for j in range(1, 6):
        sigma[:, j - 1] = (grid == j).sum(axis=0) / n
    sigma_max = sigma.max(axis=0)
    ratios = np.divide(sigma, sigma_max, out=np.full_like(sigma, -np.inf),
                       where=sigma_max > 0)
    # argmax over reversed columns picks the largest class index on ties
    classes = 5 - np.argmax(ratios[:, ::-1], axis=1)
    return sigma, classes


def anomaly_metric(cases: CaseMatrix, base: RouteGraph) -> np.ndarray:
    """Ratio of each node's value to its one-hop neighbor mean, shaped (N, T).

    Where the neighbor sum is zero (including isolated nodes), the metric is
    max(x, 1).
    """
    X = cases.values
    adj = base.adjacency.astype(float)
    deg = np.asarray(adj.sum(axis=1)).ravel()
    nbr_sum = adj @ X
    theta = np.empty_like(X)
    zero = nbr_sum == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = X * deg[:, None] / nbr_sum
    theta[~zero] = ratio[~zero]
    theta[zero] = np.maximum(X[zero], 1.0)
    return theta


def a_score(labels: np.ndarray, theta: np.ndarray, theta_hi: float = THETA_HI,
            theta_lo: float = THETA_LO) -> np.ndarray:
    """Integer anomaly grades for V4/V5 vertices; everything else is neutral 2.

    V5 with theta >= theta_hi -> 4 (at-risk spike), V4 likewise -> 3;
    V4 with theta <= theta_lo -> 1, V5 likewise -> 0 (best-performer dip);
    remaining V4/V5 vertices are ambiguous -> 2.
    """
    labels = np.asarray(labels, dtype=int)
    theta = np.asarray(theta, dtype=float)
    if labels.shape != theta.shape:
        raise ValidationError("labels and anomaly metric must be aligned")
    scores = np.full(labels.shape, NEUTRAL_SCORE, dtype=int)
    scores[(labels == 5) & (theta >= theta_hi)] = 4
    scores[(labels == 4) & (theta >= theta_hi)] = 3
    scores[(labels == 4) & (theta <= theta_lo)] = 1
    scores[(labels == 5) & (theta <= theta_lo)] = 0
    return scores


def average_a_score(scores: np.ndarray, weeks: tuple[int, int] | None = None) -> np.ndarray:
    """Per-node mean a-score over an inclusive 1-based week window (default all)."""
    scores = np.asarray(scores, dtype=float)
    t = scores.shape[1]
    if weeks is None:
        weeks = (1, t)
    lo, hi = weeks
    if not 1 <= lo <= hi <= t:
        raise ValidationError(f"week window {lo}..{hi} outside 1..{t}")
    return scores[:, lo - 1:hi].mean(axis=1)


def rank_nodes(averages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based rank positions: least-successful (descending) and most-successful.

    Ties resolve by node index so rankings are deterministic.
    """
    n = len(averages)
    order_desc = np.lexsort((np.arange(n), -averages))
    order_asc = np.lexsort((np.arange(n), averages))
    least = np.empty(n, dtype=int)
    most = np.empty(n, dtype=int)
    least[order_desc] = np.arange(1, n + 1)
    most[order_asc] = np.arange(1, n + 1)
    return least, most

