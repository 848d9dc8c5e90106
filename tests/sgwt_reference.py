"""Per-filter reference for the whole-bank Chebyshev filtering in `stgw.sgwt`.

`cheb_apply_per_filter` runs the same three-term recursion as `cheb_apply`, but
updates each filter on its own and skips a filter whose coefficient list is
shorter than the current order.  It lives here only so the tests can require
`cheb_apply` to give the same bytes for the same coefficients.
"""

import numpy as np


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
