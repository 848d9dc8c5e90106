"""Spectral graph wavelet transform: kernel dictionary, exact path, fast path.

The dictionary pairs one low-pass scaling filter with M-1 stretched copies of
a piecewise band-pass kernel, log-spaced so the filters tile the spectrum.
The exact transform diagonalizes the Laplacian (guarded to small graphs); the
fast path expands the whole bank in shifted Chebyshev polynomials, one
(filters, order+1) coefficient matrix from one quadrature pass (one real FFT per
filter), so filtering costs one sparse matrix-vector product per polynomial
order, shared by all filters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, ValidationError
from .graphs import EIGEN_FLOOR, SymmetricLaplacian

DEFAULT_FILTERS = 8
DEFAULT_CHEB_ORDER = 40
DEFAULT_QUAD_POINTS = 2 ** 14
# the error bounds need at least QUAD_MARGIN * (order + 1) quadrature nodes: the tail
# sum then spans 3(order + 1) coefficients, enough that the aliasing it leaves out
# stays smaller than the slack between bound and error
QUAD_MARGIN = 4
EXACT_DIMENSION_GUARD = 5000
# rows of the scratch block through which cheb_apply adds each order's term to the
# coefficients, rounded down to whole slices but at least one (250 KB for 8 filters at
# N=400)
APPLY_ROWS = 4096

# the paper's scale endpoints, in units of 1/lambda_max (Hammond, Vandergheynst and
# Gribonval 2011)
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
    coarsest stretch s_{M-1} = SCALE_HI/lambda_max comes first and the finest
    s_1 = SCALE_LO/lambda_max comes last.
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


def make_dictionary(lambda_max: float, filters: int = DEFAULT_FILTERS) -> KernelDictionary:
    """Log-spaced dictionary of `filters` kernels covering [0, lambda_max], its wavelet
    scales between the paper's endpoints SCALE_HI/lambda_max and SCALE_LO/lambda_max."""
    if lambda_max <= 0:
        raise ValidationError("dictionary needs lambda_max > 0 (degenerate spectrum)")
    if filters < 2:
        raise ValidationError("dictionary needs at least 2 filters")
    if filters == 2:
        warnings.warn("degenerate dictionary: single wavelet scale")
        scales = np.array([SCALE_LO / lambda_max])
    else:
        scales = np.geomspace(SCALE_HI / lambda_max, SCALE_LO / lambda_max, filters - 1)
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

    eigvals, eigvecs = np.linalg.eigh(L.matrix.toarray())
    if eigvals[0] < EIGEN_FLOOR:
        raise NumericError(f"Laplacian eigenvalue {eigvals[0]} below floor {EIGEN_FLOOR}")
    eigvals = np.maximum(eigvals, 0.0)

    xhat = eigvecs.T @ X
    responses = dictionary.evaluate_all(eigvals)  # n x M
    return CoefficientTable(values=eigvecs @ (responses * xhat[:, None]))


def _chebyshev_series(kernels: list[Callable], lambda_max: float, order: int,
                      quad_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients c_0..c_order of each kernel, one row per kernel, and each kernel's
    tail sum sum_{k=order+1}^{quad_points-1} |c_k|, from one real FFT per kernel."""
    if order < 1:
        raise ValidationError("Chebyshev order must be at least 1")
    if quad_points <= order:
        raise ValidationError(f"Chebyshev order {order} needs more than {order} "
                              f"quadrature points, got {quad_points}")
    if lambda_max <= 0:
        raise ValidationError("Chebyshev domain needs lambda_max > 0")
    theta = np.pi * (np.arange(quad_points) + 0.5) / quad_points
    nodes = (lambda_max / 2.0) * (np.cos(theta) + 1.0)
    # the sum over the nodes is a DCT-II: the FFT of the mirrored samples, bin k turned
    # by exp(-i*pi*k / 2Q); bin Q of the mirror is zero
    twiddle = np.exp((-0.5j * np.pi / quad_points) * np.arange(quad_points)) / quad_points
    coeffs = np.empty((len(kernels), order + 1))
    tails = np.empty(len(kernels))
    for m, kernel in enumerate(kernels):
        f = np.asarray(kernel(nodes))
        if f.shape != nodes.shape:
            raise ValidationError(f"kernel must give one value per node, got shape {f.shape}")
        c = (np.fft.rfft(np.concatenate((f, f[::-1])))[:quad_points] * twiddle).real
        coeffs[m] = c[:order + 1]
        tails[m] = np.abs(c[order + 1:]).sum()
    return coeffs, tails


def cheb_coeffs(kernel: Callable[[np.ndarray], np.ndarray], lambda_max: float,
                order: int, quad_points: int = DEFAULT_QUAD_POINTS) -> np.ndarray:
    """Chebyshev coefficients c_k of `kernel` on [0, lambda_max], k = 0..order.

    c_k = (2/pi) * int_0^pi cos(k*theta) * kernel((lambda_max/2)(cos theta + 1)) dtheta,
    evaluated by the equal-weight quadrature at `quad_points` Chebyshev nodes, which
    must outnumber the coefficients (a higher bin only aliases a lower one).  The
    kernel must map the nodes to one value each.
    """
    return _chebyshev_series([kernel], lambda_max, order, quad_points)[0][0]


@dataclass(frozen=True, eq=False)
class ChebyshevExpansion:
    """Chebyshev coefficients on [0, lambda_max]: row m-1 is c_0..c_K of filter m.

    `error_bounds[m-1]`, as `expand_dictionary` sets it, is filter m's tail
    sum_{k>K} |c_k| over every coefficient the quadrature yields.  Since
    |T_k| <= 1 it bounds the truncation error on [0, lambda_max], up to the
    quadrature's aliasing, which `QUAD_MARGIN` keeps below the slack: for the
    default bank at orders 10 to 80 the error is at most 0.82 of the bound.
    """

    lambda_max: float
    coefficients: np.ndarray
    error_bounds: np.ndarray | None = None

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[1] < 2:
            raise ValidationError("Chebyshev coefficients must be a (filters, order+1) "
                                  "matrix of order >= 1")
        object.__setattr__(self, "coefficients", coeffs)


def expand_dictionary(dictionary: KernelDictionary, order: int = DEFAULT_CHEB_ORDER,
                      quad_points: int | None = None) -> ChebyshevExpansion:
    """Expand every dictionary filter from one quadrature pass, with its error bound;
    the bound needs quad_points >= QUAD_MARGIN * (order + 1), which the default,
    max(DEFAULT_QUAD_POINTS, QUAD_MARGIN * (order + 1)), always meets."""
    if quad_points is None:
        quad_points = max(DEFAULT_QUAD_POINTS, QUAD_MARGIN * (order + 1))
    if quad_points < QUAD_MARGIN * (order + 1):
        raise ValidationError(f"Chebyshev error bounds at order {order} need at least "
                              f"{QUAD_MARGIN * (order + 1)} quadrature points, "
                              f"got {quad_points}")
    kernels = [dictionary.kernel(m) for m in range(1, dictionary.filter_count + 1)]
    coeffs, tails = _chebyshev_series(kernels, dictionary.lambda_max, order, quad_points)
    return ChebyshevExpansion(lambda_max=dictionary.lambda_max, coefficients=coeffs,
                              error_bounds=tails)


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
    product and updates every filter at once.  The recursion runs on node-major
    (N, T) vectors, the layout `ProductLaplacian.apply` takes, in three
    rotating buffers and one scratch; each order's term is added to the
    slice-major output through a scratch block of about APPLY_ROWS rows, so no
    order allocates an array.
    """
    X = np.asarray(X, dtype=float)
    if X.shape != (L.n,):
        raise ValidationError("signal length does not match Laplacian dimension")
    lam = expansion.lambda_max
    if lam <= 0:
        raise ValidationError("expansion domain must be positive")

    C = expansion.coefficients
    slices = L.matrix.slices
    n = L.n // slices
    t_prev, t_cur, t_next, scratch = np.empty((4, n, slices))
    np.copyto(t_prev, X.reshape(slices, n).T)
    out = np.outer(X, 0.5 * C[:, 0])
    block = np.empty((n * max(1, APPLY_ROWS // n) if n else 1, C.shape[0]))

    def matvec(t, product):
        if op_counter is not None:
            op_counter.matvecs += 1
        L.matrix.apply(t, product, scratch)

    matvec(t_prev, t_cur)
    t_cur *= 2.0 / lam
    t_cur -= t_prev
    _add_outer(out, t_cur, C[:, 1], block)
    for k in range(2, C.shape[1]):
        matvec(t_cur, t_next)
        t_next *= 4.0 / lam
        t_next -= np.multiply(t_cur, 2.0, out=scratch)
        t_next -= t_prev
        t_prev, t_cur, t_next = t_cur, t_next, t_prev
        _add_outer(out, t_cur, C[:, k], block)
    return CoefficientTable(values=out)


def _add_outer(out: np.ndarray, t: np.ndarray, c: np.ndarray, block: np.ndarray) -> None:
    """out += outer(t, c) for the slice-major `out` and node-major (N, T) `t`, formed in
    `block` a whole number of slices at a time: the same products and sums as adding
    `np.outer` of t's slice-major form, without an array of out's size."""
    n = len(t)
    for a in range(0, len(out), len(block)):
        rows = block[:len(out) - a]
        first, span = a // n, len(rows) // n
        np.multiply(t[:, first:first + span].T[:, :, None], c, out=rows.reshape(span, n, -1))
        out[a:a + len(rows)] += rows
