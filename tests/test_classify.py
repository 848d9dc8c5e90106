import tracemalloc

import numpy as np
import pytest
from scipy.stats import spearmanr

from stgw.classify import (LogNormalized, a_score, anomaly_metric, average_a_score,
                           classify_nodes, label_grid, log_normalize, rank_nodes, robust_scale,
                           slice_classification, torque)
from stgw.errors import ValidationError
from stgw.graphs import CaseMatrix, build_route_graph, normalize_cases
from stgw.sgwt import CoefficientTable
from stgw.synth import SyntheticSpec, generate

from conftest import make_nodes, path_graph, random_graph


class TestRobustScale:
    def test_hand_quantiles(self):
        table = CoefficientTable(values=np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]))
        s = robust_scale(table)
        assert np.allclose(s[:, 0], [0.5, 1.0, 1.5, 2.0, 2.5], atol=1e-12)

    def test_constant_column_fallback(self):
        table = CoefficientTable(values=np.full((4, 1), 3.0))
        with pytest.warns(UserWarning, match="zero IQR"):
            s = robust_scale(table)
        assert np.allclose(s[:, 0], 1.0)

    def test_zero_column_passes_through(self):
        table = CoefficientTable(values=np.zeros((4, 2)))
        with pytest.warns(UserWarning):
            s = robust_scale(table)
        assert np.all(s == 0.0)

    def test_scale_invariance(self, rng):
        vals = rng.standard_normal((30, 3))
        s1 = robust_scale(CoefficientTable(values=vals))
        s2 = robust_scale(CoefficientTable(values=10.0 * vals))
        assert np.allclose(s1, s2, atol=1e-12)

    def test_table_values_unchanged(self, rng):
        table = CoefficientTable(values=rng.standard_normal((30, 3)))
        before = table.values.tobytes()
        s = robust_scale(table)
        assert table.values.tobytes() == before
        assert not np.shares_memory(s, table.values)

    def test_warnings_and_columns_in_one_table(self, rng):
        # a zero-IQR column, an all-zero one and an ordinary one, side by side
        vals = np.column_stack([np.r_[np.zeros(9), 4.0], np.zeros(10), rng.standard_normal(10)])
        with pytest.warns(UserWarning) as caught:
            s = robust_scale(CoefficientTable(values=vals))
        assert [str(w.message) for w in caught] == [
            "filter 1 has zero IQR; scaling by column max",
            "filter 2 is identically zero; passing through"]
        assert s[:, 0].tolist() == [0.0] * 9 + [1.0]
        assert s[:, 1].tolist() == [0.0] * 10
        q1, q3 = np.percentile(np.abs(vals[:, 2]), [25.0, 75.0])
        assert s[:, 2].tobytes() == (np.abs(vals[:, 2]) / (q3 - q1)).tobytes()


class TestLogNormalize:
    def test_max_maps_to_one(self, rng):
        s = np.abs(rng.standard_normal((20, 2))) + 0.1
        out = log_normalize(s.copy())
        assert np.max(out) == 1.0
        assert out[np.argmax(s[:, 0]), 0] == 1.0

    def test_zero_maps_to_zero(self):
        s = np.array([[0.0], [2.0]])
        out = log_normalize(s)
        assert out[0, 0] == 0.0

    def test_order_preserved(self, rng):
        s = np.abs(rng.standard_normal((50, 1)))
        out = log_normalize(s.copy())
        assert np.array_equal(np.argsort(s[:, 0]), np.argsort(out[:, 0]))

    def test_normalizes_its_argument_in_place(self, rng):
        s = np.abs(rng.standard_normal((20, 3)))
        s[:, 1] = 0.0
        with np.errstate(invalid="ignore"):  # 0/0 in the all-zero column
            expected = np.log1p(s) / np.log1p(s.max(axis=0))
        expected[:, 1] = 0.0
        out = log_normalize(s)
        assert out is s
        assert out.tobytes() == expected.tobytes()

    def test_rank_correlation_through_both_steps(self, rng):
        vals = rng.standard_normal((40, 8))
        normalized = log_normalize(robust_scale(CoefficientTable(values=vals)))
        for m in range(8):
            rho = spearmanr(np.abs(vals[:, m]), normalized[:, m]).statistic
            assert rho == 1.0


class TestTorque:
    def test_all_equal_rows_exactly_zero(self, rng):
        rows = np.repeat(rng.standard_normal((10, 1)), 8, axis=1)
        assert np.all(torque(rows) == 0.0)

    def test_unit_high_band(self):
        row = np.zeros((1, 8))
        row[0, 7] = 1.0
        assert torque(row)[0] == 4.0

    def test_unit_low_band(self):
        row = np.zeros((1, 8))
        row[0, 0] = 1.0
        assert torque(row)[0] == -4.0

    def test_wrong_filter_count_rejected(self):
        with pytest.raises(ValidationError):
            torque(np.zeros((3, 7)))


class TestLogNormalized:
    """The column view `pipeline.classify` gives `torque`, against the three steps."""

    @staticmethod
    def table(rng, filters=8):
        # a zero-IQR column and an all-zero one among ordinary ones
        vals = rng.standard_normal((30, filters))
        vals[:, 2] = np.r_[np.zeros(29), 4.0]
        vals[:, 5] = 0.0
        return CoefficientTable(values=vals)

    def test_same_columns_torque_and_warnings(self, rng):
        table = self.table(rng)
        with pytest.warns(UserWarning) as steps:
            normalized = log_normalize(robust_scale(table))
        with pytest.warns(UserWarning) as view:
            lazy = LogNormalized(table)
        assert [str(w.message) for w in view] == [str(w.message) for w in steps] == [
            "filter 3 has zero IQR; scaling by column max",
            "filter 6 is identically zero; passing through"]
        for m in range(8):
            assert lazy[:, m].tobytes() == normalized[:, m].tobytes()
        assert torque(lazy).tobytes() == torque(normalized).tobytes()

    def test_wrong_filter_count_rejected(self, rng):
        with pytest.warns(UserWarning), pytest.raises(ValidationError, match="exactly 8"):
            torque(LogNormalized(self.table(rng, filters=7)))


class TestClassifyNodes:
    def test_uniform_grid_labels(self):
        field = classify_nodes(np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
        assert field.labels.tolist() == [1, 2, 3, 4, 5]

    def test_boundaries(self, rng):
        phi = rng.standard_normal(30)
        field = classify_nodes(phi)
        assert field.labels[np.argmin(phi)] == 1
        assert field.labels[np.argmax(phi)] == 5

    def test_degenerate_all_equal(self):
        with pytest.warns(UserWarning, match="degenerate"):
            field = classify_nodes(np.full(6, 1.25))
        assert np.all(field.labels == 1)


class TestSliceClassification:
    def test_pure_slice(self):
        # slice 0 entirely V1; slice 1 mixes in V5 so V1's max frequency sits at slice 0
        labels = np.array([1, 1, 1, 1, 1, 5])  # N=3, T=2, slice-major
        sigma, classes = slice_classification(labels, 3, 2)
        assert np.allclose(sigma[0], [1.0, 0, 0, 0, 0])
        assert classes[0] == 1

    def test_single_slice_tie_breaks_large(self):
        labels = np.array([1, 3, 4])
        sigma, classes = slice_classification(labels, 3, 1)
        assert classes[0] == 4

    def test_simplex(self, rng):
        labels = rng.integers(1, 6, size=60)
        sigma, _ = slice_classification(labels, 12, 5)
        assert np.max(np.abs(sigma.sum(axis=1) - 1.0)) < 1e-12

    def test_brute_force_oracle(self, rng):
        for _ in range(20):
            n, t = int(rng.integers(2, 8)), int(rng.integers(1, 6))
            labels = rng.integers(1, 6, size=n * t)
            sigma, classes = slice_classification(labels, n, t)
            grid = label_grid(labels, n, t)
            sig = np.zeros((t, 5))
            for tt in range(t):
                for j in range(1, 6):
                    sig[tt, j - 1] = np.sum(grid[:, tt] == j) / n
            assert np.allclose(sigma, sig)
            smax = sig.max(axis=0)
            for tt in range(t):
                best, best_j = None, None
                for j in range(1, 6):
                    if smax[j - 1] == 0:
                        continue
                    ratio = sig[tt, j - 1] / smax[j - 1]
                    if best is None or ratio > best or (ratio == best and j > best_j):
                        best, best_j = ratio, j
                assert classes[tt] == best_j


class TestAnomalyMetric:
    def test_simple_ratio(self):
        g = path_graph(3)
        cases = CaseMatrix(values=np.array([[1.0], [2.0], [1.0]]), weeks=1)
        theta = anomaly_metric(cases, g)
        assert theta[1, 0] == 2.0

    def test_zero_neighbors_small_value(self):
        g = path_graph(2)
        cases = CaseMatrix(values=np.array([[0.5], [0.0]]), weeks=1)
        theta = anomaly_metric(cases, g)
        assert theta[0, 0] == 1.0

    def test_zero_neighbors_large_value(self):
        g = path_graph(2)
        cases = CaseMatrix(values=np.array([[3.0], [0.0]]), weeks=1)
        assert anomaly_metric(cases, g)[0, 0] == 3.0

    def test_isolated_node_uses_zero_branch(self):
        g = build_route_graph(make_nodes(3), [(1, 2)])
        cases = CaseMatrix(values=np.array([[1.0], [1.0], [0.2]]), weeks=1)
        assert anomaly_metric(cases, g)[2, 0] == 1.0

    def test_positive_scaling_invariance(self, rng):
        g = random_graph(8, 0.4, rng)
        vals = rng.uniform(0.5, 4.0, size=(8, 6))
        t1 = anomaly_metric(CaseMatrix(values=vals, weeks=6), g)
        t2 = anomaly_metric(CaseMatrix(values=7.0 * vals, weeks=6), g)
        assert np.allclose(t1, t2, rtol=1e-12)

    def test_memory_is_two_grids(self):
        # N=400, T=104: the neighbour sums and the result, plus the (N, T) mask of
        # zero sums (an eighth of a grid).  Measured 0.77 MB against a 1.0 MB bound of
        # three grids; a ratio grid, its masked copy and the mask's negation took 1.45 MB
        graph, raw = generate(SyntheticSpec(nodes=400, weeks=104, seed=42))
        cases = normalize_cases(raw, graph.populations)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            theta = anomaly_metric(cases, graph)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 3 * theta.nbytes


class TestAScore:
    def test_decision_table(self):
        labels = np.array([5, 5, 4, 4, 4, 5, 2, 3])
        theta = np.array([2.0, 0.5, 2.0, 0.5, 1.0, 1.0, 99.0, 0.0])
        scores = a_score(labels, theta)
        assert scores.tolist() == [4, 0, 3, 1, 2, 2, 2, 2]

    def test_thresholds_inclusive(self):
        labels = np.array([5, 5])
        theta = np.array([1.5, 2.0 / 3.0])
        assert a_score(labels, theta).tolist() == [4, 0]

    def test_range(self, rng):
        labels = rng.integers(1, 6, size=100)
        theta = rng.uniform(0, 3, size=100)
        scores = a_score(labels, theta)
        assert scores.min() >= 0 and scores.max() <= 4


class TestAverageAndRank:
    def test_constant_neutral(self):
        scores = np.full((3, 5), 2)
        assert np.all(average_a_score(scores) == 2.0)

    def test_worst_possible(self):
        scores = np.full((2, 41), 4)
        assert np.all(average_a_score(scores) == 4.0)

    def test_crafted_ranking(self):
        # 3 cities, 4 weeks, hand-computed averages 3.25, 1.0, 2.0
        scores = np.array([[4, 4, 3, 2], [1, 1, 1, 1], [2, 2, 2, 2]])
        a_bar = average_a_score(scores)
        assert np.allclose(a_bar, [3.25, 1.0, 2.0])
        least, most = rank_nodes(a_bar)
        assert least.tolist() == [1, 3, 2]
        assert most.tolist() == [3, 1, 2]

    def test_week_window(self):
        scores = np.array([[0, 4, 4, 0]])
        assert average_a_score(scores, weeks=(2, 3))[0] == 4.0
        with pytest.raises(ValidationError):
            average_a_score(scores, weeks=(0, 3))

    def test_scores_and_slices_invariants(self, rng):
        g = random_graph(7, 0.4, rng)
        weeks = 5
        labels = rng.integers(1, 6, size=7 * weeks)
        cases = CaseMatrix(values=rng.uniform(0.1, 5.0, size=(7, weeks)), weeks=weeks)
        sigma, _ = slice_classification(labels, 7, weeks)
        theta = anomaly_metric(cases, g)
        scores = a_score(label_grid(labels, 7, weeks), theta)
        averages = average_a_score(scores)
        assert scores.shape == theta.shape == (7, weeks)
        assert np.max(np.abs(sigma.sum(axis=1) - 1.0)) < 1e-12
        assert np.all((averages >= 0) & (averages <= 4))
        assert set(np.unique(scores)) <= {0, 1, 2, 3, 4}

    def test_raising_score_never_lowers_least_rank(self, rng):
        scores = rng.integers(0, 5, size=(6, 8))
        a_bar = average_a_score(scores)
        least, _ = rank_nodes(a_bar)
        for i in range(6):
            bumped = scores.copy()
            t = int(rng.integers(0, 8))
            if bumped[i, t] < 4:
                bumped[i, t] += 1
            new_least, _ = rank_nodes(average_a_score(bumped))
            assert new_least[i] <= least[i]
