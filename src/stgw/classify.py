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
# the paper's a-score thresholds on the anomaly metric (see `a_score`)
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
    """Per filter: |W| divided by the interquartile range of |W|, as a new array
    (`table.values` is left as it is).

    Zero-IQR columns fall back to dividing by the column max (warned); columns
    that are identically zero pass through unchanged.
    """
    scaled = np.abs(table.values)
    for m in range(scaled.shape[1]):
        scaled[:, m] /= _spread(scaled[:, m], m)
    return scaled


def _spread(col: np.ndarray, m: int) -> float:
    """What `robust_scale` divides filter m's |W| column `col` by: its interquartile
    range, else its max (warned), else 1, which leaves a zero column as it is (warned)."""
    q1, q3 = np.percentile(col, [25.0, 75.0])
    r = q3 - q1
    if r == 0.0:
        r = col.max()
        if r == 0.0:
            warnings.warn(f"filter {m + 1} is identically zero; passing through")
            return 1.0
        warnings.warn(f"filter {m + 1} has zero IQR; scaling by column max")
    return r


def log_normalize(scaled: np.ndarray) -> np.ndarray:
    """ln(1 + S) / ln(1 + max S), per filter column; columns whose max is not positive
    become zero.  Normalizes `scaled` in place and returns it."""
    if np.any(scaled < 0):
        raise ValidationError("log normalization expects non-negative input")
    for m in range(scaled.shape[1]):
        _log_normalize_column(scaled[:, m])
    return scaled


def _log_normalize_column(col: np.ndarray) -> np.ndarray:
    """`log_normalize` of one column, in place."""
    top = col.max()
    if top > 0.0:
        np.log1p(col, out=col)
        col /= np.log1p(top)
    else:
        col.fill(0.0)
    return col


class LogNormalized:
    """`log_normalize(robust_scale(table))` as `torque` reads it: each column is formed
    when it is indexed, so a torque holds two columns at a time, not a second grid.

    The spreads are taken in filter order when the view is made, so the warnings
    come as `robust_scale` gives them.
    """

    def __init__(self, table: CoefficientTable):
        self.values = table.values
        self.shape = self.values.shape
        self.spreads = [_spread(np.abs(self.values[:, m]), m) for m in range(self.shape[1])]

    def __getitem__(self, key: tuple[slice, int]) -> np.ndarray:
        rows, m = key
        col = np.abs(self.values[rows, m])
        col /= self.spreads[m]
        return _log_normalize_column(col)


def torque(normalized: np.ndarray | LogNormalized) -> np.ndarray:
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
    """Quintile labels of `phi` (see `quintile_labels`); warns when all values are equal."""
    phi = np.asarray(phi, dtype=float)
    lo = float(phi.min())
    hi = float(phi.max())
    if hi == lo:
        warnings.warn("degenerate torque field (all values equal); every node in V1")
    return TorqueField(phi=phi, labels=quintile_labels(phi, lo, hi), phi_min=lo, phi_max=hi)


def quintile_labels(phi: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Classes 1..5 of `phi` by equal-width quintiles of [lo, hi], V1 closed at the
    bottom; every value is V1 when lo == hi."""
    d = hi - lo
    if d == 0.0:
        return np.ones(phi.shape, dtype=int)
    return np.clip(np.ceil(5.0 * (phi - lo) / d).astype(int), 1, 5)


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
    return sigma, dominant_classes(sigma)


def dominant_classes(sigma: np.ndarray) -> np.ndarray:
    """The slice class of each row of the (T, 5) class frequencies `sigma`, as
    `slice_classification` defines it."""
    sigma_max = sigma.max(axis=0)
    ratios = np.divide(sigma, sigma_max, out=np.full_like(sigma, -np.inf),
                       where=sigma_max > 0)
    # argmax over reversed columns picks the largest class index on ties
    return 5 - np.argmax(ratios[:, ::-1], axis=1)


def anomaly_metric(cases: CaseMatrix, base: RouteGraph) -> np.ndarray:
    """Ratio of each node's value to its one-hop neighbor mean, shaped (N, T).

    Where the neighbor sum is zero (including isolated nodes), the metric is
    max(x, 1).
    """
    X = cases.values
    adj = base.adjacency.astype(float)
    deg = np.asarray(adj.sum(axis=1)).ravel()
    nbr_sum = adj @ X
    theta = X * deg[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        theta /= nbr_sum
    zero = nbr_sum == 0.0
    theta[zero] = np.maximum(X[zero], 1.0)
    return theta


def a_score(labels: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Integer anomaly grades for V4/V5 vertices; everything else is neutral 2.

    Under the paper's thresholds: V5 with theta >= THETA_HI -> 4 (at-risk spike), V4
    likewise -> 3; V4 with theta <= THETA_LO -> 1, V5 likewise -> 0 (best-performer dip);
    remaining V4/V5 vertices are ambiguous -> 2.
    """
    labels = np.asarray(labels, dtype=int)
    theta = np.asarray(theta, dtype=float)
    if labels.shape != theta.shape:
        raise ValidationError("labels and anomaly metric must be aligned")
    scores = np.full(labels.shape, NEUTRAL_SCORE, dtype=int)
    scores[(labels == 5) & (theta >= THETA_HI)] = 4
    scores[(labels == 4) & (theta >= THETA_HI)] = 3
    scores[(labels == 4) & (theta <= THETA_LO)] = 1
    scores[(labels == 5) & (theta <= THETA_LO)] = 0
    return scores


def average_a_score(scores: np.ndarray, weeks: tuple[int, int] | None = None) -> np.ndarray:
    """Per-node mean a-score over an inclusive 1-based week window (default all)."""
    scores = np.asarray(scores, dtype=float)
    t = scores.shape[1]
    lo, hi = weeks or (1, t)
    check_window(lo, hi, t)
    return scores[:, lo - 1:hi].mean(axis=1)


def check_window(lo: int, hi: int, weeks: int | None = None) -> None:
    """Reject a 1-based inclusive week window that is reversed, starts before week 1 or,
    once the series length `weeks` is known, ends after it."""
    if not 1 <= lo <= hi <= (hi if weeks is None else weeks):
        span = f"week {lo}" if lo == hi else f"week window {lo}..{hi}"
        raise ValidationError(f"{span} outside 1..{'T' if weeks is None else weeks}")


def rank_nodes(averages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based rank positions: least-successful (descending) and most-successful.

    Ties resolve by node index, which for a route graph is ascending node_id.
    """
    n = len(averages)
    order_desc = np.lexsort((np.arange(n), -averages))
    order_asc = np.lexsort((np.arange(n), averages))
    least = np.empty(n, dtype=int)
    most = np.empty(n, dtype=int)
    least[order_desc] = np.arange(1, n + 1)
    most[order_asc] = np.arange(1, n + 1)
    return least, most

