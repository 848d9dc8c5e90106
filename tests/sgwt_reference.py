"""References for the Chebyshev coefficients and filtering in `stgw.sgwt`.

`cheb_coeffs_cosine` sums the quadrature directly, over a dense (order+1) x
quad_points cosine basis, so the tests can hold the FFT in `cheb_coeffs` to
it.  `cheb_apply_per_filter` runs the same three-term recursion as
`cheb_apply`, but updates each filter on its own and skips a filter whose
coefficient list is shorter than the current order.  It lives here only so the
tests can require `cheb_apply` to give the same bytes for the same
coefficients.  `cheb_apply_slice_major` is the recursion as `cheb_apply` ran it
before it moved to node-major buffers: on slice-major vectors, each order's
vector a new array, each order's term added as one outer product.
"""

import numpy as np


def cheb_coeffs_cosine(kernel, lambda_max, order, quad_points) -> np.ndarray:
    """c_k = (2/Q) sum_j cos(k theta_j) kernel((lambda_max/2)(cos theta_j + 1)),
    theta_j = pi (j + 1/2) / Q, k = 0..order; one column per kernel column."""
    theta = np.pi * (np.arange(quad_points) + 0.5) / quad_points
    samples = kernel((lambda_max / 2.0) * (np.cos(theta) + 1.0))
    basis = np.outer(np.arange(order + 1), theta)
    return (2.0 / quad_points) * (np.cos(basis, out=basis) @ samples)


def cheb_apply_per_filter(matrix, X, lambda_max, coeffs) -> np.ndarray:
    """W[:, m] = c_{m,0}/2 * X + sum_k c_{m,k} Tbar_k(L) X, one filter at a time."""
    X = np.asarray(X, dtype=float)
    lam = lambda_max
    M = len(coeffs)
    out = np.zeros((matrix.shape[0], M))

    t_prev = X
    for m in range(M):
        out[:, m] = 0.5 * coeffs[m][0] * t_prev

    y = matrix @ X
    t_cur = (2.0 / lam) * y - X
    for m in range(M):
        if len(coeffs[m]) > 1:
            out[:, m] += coeffs[m][1] * t_cur

    for k in range(2, max(len(c) for c in coeffs)):
        y = matrix @ t_cur
        t_next = (4.0 / lam) * y - 2.0 * t_cur - t_prev
        for m in range(M):
            if len(coeffs[m]) > k:
                out[:, m] += coeffs[m][k] * t_next
        t_prev, t_cur = t_cur, t_next
    return out


def cheb_apply_slice_major(matrix, X, lambda_max, C) -> np.ndarray:
    """W = outer(X, C[:, 0]/2) + sum_k outer(Tbar_k(L) X, C[:, k]), all filters at once."""
    X = np.asarray(X, dtype=float)
    lam = lambda_max
    t_prev, t_cur = X, (2.0 / lam) * (matrix @ X) - X
    out = np.outer(t_prev, 0.5 * C[:, 0])
    out += np.outer(t_cur, C[:, 1])
    for k in range(2, C.shape[1]):
        t_prev, t_cur = t_cur, (4.0 / lam) * (matrix @ t_cur) - 2.0 * t_cur - t_prev
        out += np.outer(t_cur, C[:, k])
    return out
