import math

import numpy as np
import pytest

from stgw.errors import ValidationError
from stgw.graphs import laplacian, strong_product
from stgw.sgwt import (KERNEL_ARGMAX, ChebyshevExpansion, OpCounter, cheb_apply,
                       cheb_coeffs, exact_sgwt, expand_dictionary, kernel_amplitude,
                       make_dictionary, scaling_kernel, wavelet_kernel)

from conftest import random_graph, random_transition, uniform_transition
from sgwt_reference import cheb_apply_per_filter


def product_laplacian(n, t, rng, p=0.3):
    g = random_graph(n, p, rng)
    return laplacian(strong_product(g, uniform_transition(g), t))


class TestWaveletKernel:
    def test_branch_values(self):
        assert wavelet_kernel(0.5) == 0.25
        assert wavelet_kernel(4.0) == 0.25

    def test_knot_continuity_exact(self):
        assert wavelet_kernel(1.0) == 1.0
        assert wavelet_kernel(2.0) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            wavelet_kernel(-0.1)

    def test_vectorized(self):
        lam = np.array([0.0, 0.5, 1.5, 3.0])
        out = wavelet_kernel(lam)
        assert out.shape == (4,)
        assert out[0] == 0.0


class TestKernelAmplitude:
    def test_argmax_location(self):
        assert abs(KERNEL_ARGMAX - (2.0 - 1.0 / math.sqrt(3.0))) < 1e-15

    def test_amplitude_value(self):
        assert abs(kernel_amplitude() - 1.38490) < 1e-4

    def test_dominates_grid(self):
        grid = np.linspace(0.0, 10.0, 10 ** 4)
        assert kernel_amplitude() >= wavelet_kernel(grid).max()


class TestScalingKernel:
    def test_value_at_zero_is_amplitude(self):
        b = kernel_amplitude()
        assert scaling_kernel(0.0, 7.3, b) == b

    def test_e_fold_point(self):
        b = kernel_amplitude()
        lam_max = 5.0
        assert abs(scaling_kernel(0.03 * lam_max, lam_max, b) - b / math.e) < 1e-12

    def test_underflows_at_top(self):
        assert scaling_kernel(6.0, 6.0, kernel_amplitude()) < 1e-300

    def test_monotone_decreasing(self):
        lam = np.linspace(0.0, 4.0, 100)
        vals = scaling_kernel(lam, 4.0, 1.0)
        assert np.all(np.diff(vals) <= 0)


class TestMakeDictionary:
    def test_log_spacing(self):
        d = make_dictionary(10.0, 8)
        assert abs(d.scales[-1] - 0.1) < 1e-12
        assert abs(d.scales[0] - 4.0) < 1e-12
        ratios = d.scales[:-1] / d.scales[1:]
        assert np.allclose(ratios, 40.0 ** (1.0 / 6.0), atol=1e-10)

    def test_degenerate_two_filters(self):
        with pytest.warns(UserWarning, match="degenerate"):
            d = make_dictionary(5.0, 2)
        assert d.filter_count == 2
        assert np.allclose(d.scales, [1.0 / 5.0])

    def test_finest_filter_peaks_at_amplitude(self):
        d = make_dictionary(10.0, 8)
        lam_peak = KERNEL_ARGMAX / d.scales[-1]
        assert abs(d.kernel(8)(lam_peak) - kernel_amplitude()) < 1e-12

    def test_rejects_degenerate_spectrum(self):
        with pytest.raises(ValidationError):
            make_dictionary(0.0)


class TestExactSgwt:
    def test_constant_filter_is_identity(self, rng):
        lap = product_laplacian(6, 3, rng)
        X = rng.standard_normal(lap.n)
        d = make_dictionary(lap.lambda_max_estimate, 8)
        flat = _ConstantDictionary(d)
        out = exact_sgwt(lap, X, flat)
        assert np.max(np.abs(out.values[:, 0] - X)) < 1e-10

    def test_eigenvector_input_scales(self, rng):
        lap = product_laplacian(5, 2, rng)
        vals, vecs = np.linalg.eigh(lap.matrix.toarray())
        d = make_dictionary(lap.lambda_max_estimate, 8)
        l = len(vals) // 2
        out = exact_sgwt(lap, vecs[:, l], d)
        for m in range(1, 9):
            expected = d.kernel(m)(max(vals[l], 0.0)) * vecs[:, l]
            assert np.max(np.abs(out.values[:, m - 1] - expected)) < 1e-10

    def test_matches_duplicate_implementation(self, rng):
        g = random_graph(10, 0.3, rng)
        lap = laplacian(strong_product(g, uniform_transition(g), 2))
        X = rng.standard_normal(lap.n)
        d = make_dictionary(lap.lambda_max_estimate, 8)
        ours = exact_sgwt(lap, X, d).values

        # independent dense version: build each filter operator explicitly
        vals, vecs = np.linalg.eigh(lap.matrix.toarray())
        vals = np.clip(vals, 0.0, None)
        for m in range(1, 9):
            op = vecs @ np.diag(d.kernel(m)(vals)) @ vecs.T
            assert np.max(np.abs(ours[:, m - 1] - op @ X)) < 1e-10

    def test_dimension_guard(self, rng):
        import scipy.sparse as sp
        from stgw.graphs import SymmetricLaplacian
        big = SymmetricLaplacian(matrix=sp.eye(5001, format="csr"), lambda_max_estimate=1.0)
        with pytest.raises(ValidationError, match="fast path|Chebyshev"):
            exact_sgwt(big, np.zeros(5001), make_dictionary(1.0))


class _ConstantDictionary:
    """Dictionary stub whose single filter is identically one."""

    def __init__(self, base):
        self.lambda_max = base.lambda_max
        self.filter_count = 1

    def kernel(self, m):
        return lambda lam: np.ones_like(np.asarray(lam, dtype=float))

    def evaluate_all(self, lam):
        return np.ones((len(np.asarray(lam)), 1))


class TestChebCoeffs:
    def test_constant_kernel(self):
        c = cheb_coeffs(lambda lam: np.ones_like(lam), 3.0, 10)
        assert abs(c[0] - 2.0) < 1e-12
        assert np.max(np.abs(c[1:])) < 1e-12

    def test_linear_kernel_on_0_2(self):
        c = cheb_coeffs(lambda lam: lam, 2.0, 6)
        assert abs(c[0] - 2.0) < 1e-12
        assert abs(c[1] - 1.0) < 1e-12
        assert np.max(np.abs(c[2:])) < 1e-12

    def test_doubling_points_stable(self):
        # the most stretched filters move by ~9e-12 when the node count doubles,
        # well inside the 1e-10 quadrature accuracy the expansion relies on
        d = make_dictionary(3.7, 8)
        for m in range(1, 9):
            c1 = cheb_coeffs(d.kernel(m), 3.7, 40, quad_points=2 ** 14)
            c2 = cheb_coeffs(d.kernel(m), 3.7, 40, quad_points=2 ** 15)
            assert np.max(np.abs(c1 - c2)) < 2e-11


class TestExpandDictionary:
    @pytest.mark.parametrize("lambda_max", [0.7, 3.0, 12.3, 40.0])
    @pytest.mark.parametrize("order", [10, 40, 80])
    def test_rows_match_per_filter_coefficients(self, lambda_max, order):
        # one matrix product sums in another order than one product per filter: the
        # rows differ by a few ulps of the largest coefficient (about 1.44), at most
        # 1.3e-15 over 40 values of lambda_max in [0.5, 100]
        d = make_dictionary(lambda_max, 8)
        expansion = expand_dictionary(d, order=order)
        assert expansion.coefficients.shape == (8, order + 1)
        for m in range(1, 9):
            row = cheb_coeffs(d.kernel(m), lambda_max, order)
            assert np.max(np.abs(expansion.coefficients[m - 1] - row)) <= 2e-15

    @pytest.mark.parametrize("lambda_max", [3.0, 12.3, 40.0])
    def test_default_expansion_within_tolerance(self, lambda_max):
        # sup-norm error of each filter's K=40, Q=2^14 expansion on [0, lambda_max];
        # the coarsest wavelet (filter 2) is the worst, at about 0.026
        d = make_dictionary(lambda_max, 8)
        coeffs = expand_dictionary(d).coefficients.copy()
        coeffs[:, 0] /= 2.0
        lam = np.linspace(0.0, lambda_max, 20001)
        approx = np.polynomial.chebyshev.chebval(2.0 * lam / lambda_max - 1.0, coeffs.T)
        errors = np.max(np.abs(approx.T - d.evaluate_all(lam)), axis=0)
        assert np.all(errors <= 0.03), errors

    @pytest.mark.parametrize("coeffs", [[[2.0]], [2.0, 0.5]])
    def test_rejects_order_zero_or_flat_coefficients(self, coeffs):
        with pytest.raises(ValidationError, match="order"):
            ChebyshevExpansion(lambda_max=1.0, coefficients=coeffs)


class TestChebApply:
    def test_constant_expansion_identity(self, rng):
        lap = product_laplacian(8, 3, rng)
        X = rng.standard_normal(lap.n)
        coeffs = cheb_coeffs(lambda lam: np.ones_like(lam), lap.lambda_max_estimate, 40)
        expansion = ChebyshevExpansion(lambda_max=lap.lambda_max_estimate,
                                       coefficients=(coeffs,))
        out = cheb_apply(lap, X, expansion)
        assert np.max(np.abs(out.values[:, 0] - X)) <= 1e-12

    def test_agreement_at_500_vertices(self):
        rng = np.random.default_rng(31)
        g = random_graph(25, 0.12, rng)
        lap = laplacian(strong_product(g, uniform_transition(g), 20))
        assert lap.n == 500
        X = rng.standard_normal(lap.n)
        X /= np.linalg.norm(X)
        d = make_dictionary(lap.lambda_max_estimate, 8)
        exact = exact_sgwt(lap, X, d).values
        fast = cheb_apply(lap, X, expand_dictionary(d, order=40)).values
        assert np.max(np.abs(exact - fast)) <= 1e-3

    def test_agreement_with_exact_tightens(self, rng):
        lap = product_laplacian(8, 4, rng)
        X = rng.standard_normal(lap.n)
        X /= np.linalg.norm(X)
        d = make_dictionary(lap.lambda_max_estimate, 8)
        exact = exact_sgwt(lap, X, d).values
        errs = [np.max(np.abs(exact - cheb_apply(lap, X, expand_dictionary(d, order=k)).values))
                for k in (10, 20, 40)]
        assert errs[2] < 5e-3
        assert errs[2] < errs[1] < errs[0]

    def test_one_matvec_per_order(self, rng):
        lap = product_laplacian(5, 3, rng)
        X = rng.standard_normal(lap.n)
        d = make_dictionary(lap.lambda_max_estimate, 8)
        counter = OpCounter()
        cheb_apply(lap, X, expand_dictionary(d, order=23), op_counter=counter)
        assert counter.matvecs == 23

    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal_to_per_filter_loop(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(int(rng.integers(5, 30)), 0.2, rng)
        lap = laplacian(strong_product(g, random_transition(g, rng), int(rng.integers(2, 12))))
        X = rng.standard_normal(lap.n)
        expansion = expand_dictionary(make_dictionary(lap.lambda_max_estimate, 8), order=40)
        ours = cheb_apply(lap, X, expansion).values
        reference = cheb_apply_per_filter(lap.matrix, X, expansion.lambda_max,
                                          list(expansion.coefficients))
        assert ours.tobytes() == reference.tobytes()
