"""Spectral graph wavelet transform: kernel dictionary, exact path, fast path.

The dictionary pairs one low-pass scaling filter with M-1 stretched copies of
a piecewise band-pass kernel, log-spaced so the filters tile the spectrum.
The exact transform diagonalizes the Laplacian (guarded to small graphs); the
fast path expands the whole bank in shifted Chebyshev polynomials, one
(filters, order+1) coefficient matrix from one quadrature pass, so filtering
costs one sparse matrix-vector product per polynomial order, shared by all
filters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import NumericError, ValidationError
from .graphs import EIGEN_FLOOR, SymmetricLaplacian

DEFAULT_FILTERS = 8
DEFAULT_CHEB_ORDER = 40
DEFAULT_QUAD_POINTS = 2 ** 14
EXACT_DIMENSION_GUARD = 5000

# scale endpoints, in units of 1/lambda_max
SCALE_LO = 1.0
SCALE_HI = 40.0


def wavelet_kernel(lam):
    """Band-pass kernel: lam^2 below 1, a monic cubic on [1, 2], 4/lam^2 above.

    Continuous with matching first derivatives at both knots.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise ValidationError("wavelet kernel is defined for non-negative arguments")
    low = lam * lam
    mid = -5.0 + lam * (11.0 + lam * (-6.0 + lam))
    high = np.divide(4.0, lam * lam, out=np.zeros_like(lam), where=lam > 2)
    out = np.where(lam < 1, low, np.where(lam <= 2, mid, high))
    return out if out.ndim else float(out)


# argmax of the cubic branch: root of 11 - 12*lam + 3*lam^2 inside [1, 2]
KERNEL_ARGMAX = 2.0 - 1.0 / math.sqrt(3.0)


def kernel_amplitude() -> float:
    """Peak value b = max over lam of the band-pass kernel (on the cubic branch)."""
    return float(wavelet_kernel(KERNEL_ARGMAX))


def scaling_kernel(lam, lambda_max: float, amplitude: float):
    """Low-pass filter b * exp(-(10*lam / (0.3*lambda_max))^4)."""
    if lambda_max <= 0:
        raise ValidationError("scaling kernel needs lambda_max > 0")
    lam = np.asarray(lam, dtype=float)
    out = amplitude * np.exp(-((10.0 * lam / (0.3 * lambda_max)) ** 4))
    return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)
class KernelDictionary:
    """Filter bank: index 1 is the scaling function, index M the finest scale.

    `scales` is strictly decreasing; filter m (2-based) uses scales[m-2], so the
    coarsest stretch s_{M-1} = scale_hi/lambda_max comes first and the finest
    s_1 = scale_lo/lambda_max comes last.
    """

    lambda_max: float
    scales: np.ndarray
    amplitude: float

    @property
    def filter_count(self) -> int:
        return len(self.scales) + 1

    def kernel(self, m: int) -> Callable[[np.ndarray], np.ndarray]:
        """Filter m as a callable on the spectral axis (1-based index)."""
        if not 1 <= m <= self.filter_count:
            raise ValidationError(f"filter index {m} outside 1..{self.filter_count}")
        if m == 1:
            return lambda lam: scaling_kernel(lam, self.lambda_max, self.amplitude)
        s = float(self.scales[m - 2])
        return lambda lam: wavelet_kernel(s * np.asarray(lam, dtype=float))

    def evaluate_all(self, lam: np.ndarray) -> np.ndarray:
        """Stack all filters: result column m-1 is filter m evaluated at lam."""
        lam = np.asarray(lam, dtype=float)
        cols = [self.kernel(m)(lam) for m in range(1, self.filter_count + 1)]
        return np.column_stack(cols)


def make_dictionary(lambda_max: float, filters: int = DEFAULT_FILTERS,
                    scale_lo: float = SCALE_LO, scale_hi: float = SCALE_HI) -> KernelDictionary:
    """Log-spaced dictionary of `filters` kernels covering [0, lambda_max]."""
    if lambda_max <= 0:
        raise ValidationError("dictionary needs lambda_max > 0 (degenerate spectrum)")
    if filters < 2:
        raise ValidationError("dictionary needs at least 2 filters")
    if not 0 < scale_lo < scale_hi:
        raise ValidationError("scale endpoints must satisfy 0 < scale_lo < scale_hi")
    if filters == 2:
        warnings.warn("degenerate dictionary: single wavelet scale")
        scales = np.array([scale_lo / lambda_max])
    else:
        scales = np.geomspace(scale_hi / lambda_max, scale_lo / lambda_max, filters - 1)
    return KernelDictionary(
        lambda_max=float(lambda_max),
        scales=scales,
        amplitude=kernel_amplitude(),
    )


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Wavelet coefficients: one row per product-graph vertex, one column per filter."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NumericError("non-finite wavelet coefficients")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def filter_count(self) -> int:
        return self.values.shape[1]


def exact_sgwt(L: SymmetricLaplacian, X: np.ndarray,
               dictionary: KernelDictionary) -> CoefficientTable:
    """Reference transform through a full symmetric eigendecomposition.

    W[tau, m-1] = sum_l g_m(lambda_l) * Xhat(lambda_l) * u_l(tau).  Guarded to
    EXACT_DIMENSION_GUARD vertices; larger graphs must use cheb_apply.
    """
    n = L.n
    if n > EXACT_DIMENSION_GUARD:
        raise ValidationError(
            f"exact transform guarded to {EXACT_DIMENSION_GUARD} vertices "
            f"(got {n}); use the Chebyshev fast path"
        )
    X = np.asarray(X, dtype=float)
    if X.shape != (n,):
        raise ValidationError("signal length does not match Laplacian dimension")

    eigvals, eigvecs = scipy.linalg.eigh(L.matrix.toarray())
    if eigvals[0] < EIGEN_FLOOR:
        raise NumericError(f"Laplacian eigenvalue {eigvals[0]} below floor {EIGEN_FLOOR}")
    eigvals = np.maximum(eigvals, 0.0)

    xhat = eigvecs.T @ X
    responses = dictionary.evaluate_all(eigvals)  # n x M
    return CoefficientTable(values=eigvecs @ (responses * xhat[:, None]))


def cheb_coeffs(kernel: Callable[[np.ndarray], np.ndarray], lambda_max: float,
                order: int, quad_points: int = DEFAULT_QUAD_POINTS) -> np.ndarray:
    """Chebyshev coefficients c_k of `kernel` on [0, lambda_max], k = 0..order.

    c_k = (2/pi) * int_0^pi cos(k*theta) * kernel((lambda_max/2)(cos theta + 1)) dtheta,
    evaluated by the equal-weight quadrature at `quad_points` Chebyshev nodes.  A
    kernel returning one column per filter gets one column of coefficients each.
    """
    if order < 1:
        raise ValidationError("Chebyshev order must be at least 1")
    if lambda_max <= 0:
        raise ValidationError("Chebyshev domain needs lambda_max > 0")
    theta = np.pi * (np.arange(quad_points) + 0.5) / quad_points
    samples = kernel((lambda_max / 2.0) * (np.cos(theta) + 1.0))
    k = np.arange(order + 1)
    return (2.0 / quad_points) * (np.cos(np.outer(k, theta)) @ samples)


@dataclass(frozen=True, eq=False)
class ChebyshevExpansion:
    """Chebyshev coefficients on [0, lambda_max]: row m-1 is c_0..c_K of filter m."""

    lambda_max: float
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[1] < 2:
            raise ValidationError("Chebyshev coefficients must be a (filters, order+1) "
                                  "matrix of order >= 1")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def filter_count(self) -> int:
        return self.coefficients.shape[0]


def expand_dictionary(dictionary: KernelDictionary, order: int = DEFAULT_CHEB_ORDER,
                      quad_points: int = DEFAULT_QUAD_POINTS) -> ChebyshevExpansion:
    """Expand every dictionary filter in one quadrature pass over a shared cosine basis."""
    coeffs = cheb_coeffs(dictionary.evaluate_all, dictionary.lambda_max, order, quad_points)
    return ChebyshevExpansion(lambda_max=dictionary.lambda_max, coefficients=coeffs.T)


class OpCounter:
    """Counts sparse matrix-vector products inside cheb_apply (for cost checks)."""

    def __init__(self):
        self.matvecs = 0


def cheb_apply(L: SymmetricLaplacian, X: np.ndarray, expansion: ChebyshevExpansion,
               op_counter: OpCounter | None = None) -> CoefficientTable:
    """Fast transform: W[:, m-1] ~= c_{m,0}/2 * X + sum_k c_{m,k} Tbar_k(L) X.

    The shifted polynomials Tbar_k follow the recursion
    Tbar_k = (4/lambda_max * L - 2) Tbar_{k-1} - Tbar_{k-2} with Tbar_0 = X and
    Tbar_1 = (2/lambda_max * L - 1) X; each order costs one matrix-vector
    product and updates every filter at once.
    """
    X = np.asarray(X, dtype=float)
    if X.shape != (L.n,):
        raise ValidationError("signal length does not match Laplacian dimension")
    lam = expansion.lambda_max
    if lam <= 0:
        raise ValidationError("expansion domain must be positive")

    def matvec(t):
        if op_counter is not None:
            op_counter.matvecs += 1
        return L.matrix @ t

    C = expansion.coefficients
    t_prev, t_cur = X, (2.0 / lam) * matvec(X) - X
    out = np.outer(t_prev, 0.5 * C[:, 0])
    out += np.outer(t_cur, C[:, 1])
    for k in range(2, C.shape[1]):
        t_prev, t_cur = t_cur, (4.0 / lam) * matvec(t_cur) - 2.0 * t_cur - t_prev
        out += np.outer(t_cur, C[:, k])
    return CoefficientTable(values=out)
