import numpy as np
import pytest
import scipy.sparse as sp

from stgw.errors import ValidationError
from stgw.graphs import (CaseMatrix, NodeRecord, SpatioTemporalGraph,
                         TransitionMatrix, build_route_graph, canonical_sign,
                         downsample_mask, estimate_lambda_max, laplacian,
                         normalize_cases, strong_product)

from conftest import make_nodes, path_graph, random_graph, uniform_transition


class TestNormalizeCases:
    def test_direct_arithmetic(self):
        raw = CaseMatrix(values=np.array([[50.0]]), weeks=1)
        out = normalize_cases(raw, np.array([10000.0]))
        assert out.values[0, 0] == 5.0

    def test_zero_cases(self):
        raw = CaseMatrix(values=np.array([[0.0, 0.0]]), weeks=2)
        out = normalize_cases(raw, np.array([123.0]))
        assert np.all(out.values == 0.0)

    def test_round_trip_inverse(self, rng):
        pops = rng.integers(1000, 900000, size=30).astype(float)
        raw_vals = rng.uniform(0, 919000, size=(30, 7))
        raw = CaseMatrix(values=raw_vals, weeks=7)
        out = normalize_cases(raw, pops)
        back = out.values * pops[:, None] / 1000.0
        assert np.max(np.abs(back - raw_vals)) < 1e-9 * np.max(raw_vals)

    def test_zero_population_names_node(self):
        raw = CaseMatrix(values=np.zeros((2, 1)), weeks=1)
        with pytest.raises(ValidationError, match="17"):
            normalize_cases(raw, np.array([100.0, 0.0]), node_ids=[4, 17])


class TestBuildRouteGraph:
    def test_two_nodes_one_edge(self):
        g = build_route_graph(make_nodes(2), [(1, 2)])
        assert np.array_equal(g.dense_adjacency(), [[0, 1], [1, 0]])

    def test_reversed_duplicate_collapses(self):
        g = build_route_graph(make_nodes(2), [(1, 2), (2, 1)])
        assert len(g.edges) == 1

    def test_isolated_nodes_flagged(self):
        # 351 nodes, a chain over the first 338, 13 left isolated
        nodes = make_nodes(351)
        edges = [(i, i + 1) for i in range(1, 338)]
        g = build_route_graph(nodes, edges)
        assert len(g.isolated_ids) == 13
        assert g.n == 351

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(ValidationError, match="99"):
            build_route_graph(make_nodes(2), [(1, 99)])

    def test_duplicate_node_id_rejected(self):
        nodes = make_nodes(2) + [NodeRecord(1, "dup", 0.0, 0.0, 5)]
        with pytest.raises(ValidationError, match="duplicate"):
            build_route_graph(nodes, [])

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            build_route_graph(make_nodes(2), [(1, 1)])


class TestStrongProduct:
    def test_k2_times_p2_arcs(self):
        g = path_graph(2)
        P = np.array([[0.7, 0.3], [0.4, 0.6]])
        product = strong_product(g, TransitionMatrix(P=P), 2)
        # 4 vertices, 8 arcs: 2 spatial per slice + self and cross temporal arcs
        assert product.node_count == 4
        assert product.arc_count == 8
        W = product.weights.toarray()

        def v(i, t):  # slice-major product vertex order, v = t*N + i
            return t * product.base_node_count + i
        assert W[v(0, 0), v(1, 0)] == 0.3          # spatial carries p_ij
        assert W[v(1, 0), v(0, 0)] == 0.4
        assert W[v(0, 0), v(0, 1)] == 0.7          # temporal self carries p_ii
        assert W[v(0, 0), v(1, 1)] == 0.4          # temporal (i,t)->(j,t+1) carries p_ji
        assert W[v(1, 0), v(0, 1)] == 0.3
        assert W[v(0, 1), v(0, 0)] == 0.0          # nothing runs backwards in time

    def test_arc_count_identity_small(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 11))
            t = int(rng.integers(2, 6))
            g = random_graph(n, 0.3, rng)
            product = strong_product(g, uniform_transition(g), t)
            e = len(g.edges)
            assert product.arc_count == t * 2 * e + (t - 1) * (n + 2 * e)

    def test_single_slice_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValidationError):
            strong_product(g, uniform_transition(g), 1)

    def test_support_mismatch_rejected(self):
        g = path_graph(3)
        P = np.full((3, 3), 1.0 / 3.0)  # dense support, but nodes 1 and 3 not adjacent
        with pytest.raises(ValidationError, match="support"):
            strong_product(g, TransitionMatrix(P=P), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        P[0, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            TransitionMatrix(P=P)
        values = np.ones((2, 3))
        values[1, 2] = bad
        with pytest.raises(ValidationError, match="finite"):
            CaseMatrix(values=values, weeks=3)

    def test_slice_row_mass_reconstructs_one(self, rng):
        g = random_graph(6, 0.4, rng)
        transition = uniform_transition(g)
        product = strong_product(g, transition, 3)
        W = product.weights.toarray()
        n = g.n
        for t in range(3):
            for i in range(n):
                spatial = W[t * n + i, t * n:(t + 1) * n].sum()
                assert abs(spatial + transition.P[i, i] - 1.0) < 1e-9


class TestLaplacian:
    def test_path3_matrix(self):
        g = path_graph(3)
        single = SpatioTemporalGraph(weights=g.adjacency.astype(float).tocsr(),
                                     base_node_count=3, slice_count=1)
        L = laplacian(single).matrix.toarray()
        assert np.array_equal(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_directed_laplacian_row_sums_zero(self, rng):
        g = random_graph(7, 0.3, rng)
        product = strong_product(g, uniform_transition(g), 4)
        W = product.weights
        directed = sp.diags(np.asarray(W.sum(axis=1)).ravel()) - W
        assert np.max(np.abs(directed.sum(axis=1))) < 1e-12

    def test_exact_symmetry(self, rng):
        g = random_graph(8, 0.3, rng)
        product = strong_product(g, uniform_transition(g), 3)
        L = laplacian(product).matrix
        assert (abs(L - L.T)).max() == 0.0

    def test_quadratic_form_nonnegative(self, rng):
        g = random_graph(6, 0.4, rng)
        product = strong_product(g, uniform_transition(g), 4)
        L = laplacian(product).matrix
        for _ in range(100):
            x = rng.standard_normal(L.shape[0])
            assert x @ (L @ x) >= -1e-9 * (x @ x)


class TestEstimateLambdaMax:
    def test_path3_value(self):
        # P3 Laplacian eigenvalues are {0, 1, 3}; estimate is inflated by 1.01
        g = path_graph(3)
        single = SpatioTemporalGraph(weights=g.adjacency.astype(float).tocsr(),
                                     base_node_count=3, slice_count=1)
        est = laplacian(single).lambda_max_estimate
        assert abs(est - 3.03) < 1e-3

    def test_degenerate_zero_matrix(self):
        with pytest.warns(UserWarning):
            est = estimate_lambda_max(sp.csr_matrix((1, 1)))
        assert est == 0.0
        from stgw.sgwt import make_dictionary
        with pytest.raises(ValidationError):
            make_dictionary(est)

    def test_upper_bounds_dense_oracle(self, rng):
        for _ in range(5):
            A = rng.standard_normal((20, 20))
            A = (A + A.T) / 2
            est = estimate_lambda_max(sp.csr_matrix(A))
            assert est >= np.linalg.eigvalsh(A)[-1]


class TestDownsampleMask:
    def test_path3_hides_negative_side(self):
        # top eigenvector of P3 is prop. to (1,-2,1); the canonical orientation
        # makes the largest-magnitude (middle) entry positive, so the endpoints
        # carry the negative sign
        assert downsample_mask(path_graph(3)) == {1, 3}

    def test_k2_hides_one_endpoint(self):
        mask = downsample_mask(path_graph(2))
        assert len(mask) == 1
        assert mask <= {1, 2}

    def test_empty_edge_graph_empty_mask(self):
        g = build_route_graph(make_nodes(4), [])
        assert downsample_mask(g) == set()

    def test_sign_flip_invariance(self, rng):
        v = rng.standard_normal(9)
        assert np.array_equal(canonical_sign(v), canonical_sign(-v))
