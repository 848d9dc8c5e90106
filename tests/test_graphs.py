import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import graphs_reference as reference
from stgw import dataio, graphs
from stgw.classify import anomaly_metric
from stgw.gat import GatModel, _HeadPattern, _Support, extract_transition, influential_scores
from stgw.errors import ValidationError
from stgw.synth import SyntheticSpec, generate
from stgw.graphs import (CaseMatrix, NodeRecord, ProductLaplacian, SpatioTemporalGraph,
                         TransitionMatrix, _with_lambda_max, base_laplacian,
                         build_route_graph, canonical_sign, downsample_mask, laplacian,
                         normalize_cases, spmm, strong_product)

from conftest import (make_nodes, path_graph, random_graph, random_transition,
                      uniform_transition)


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


RULE_NODES = [NodeRecord(1, "Alpha", 42.0, -72.0, 1000), NodeRecord(2, "Beta", 42.1, -72.1, 2000),
              NodeRecord(3, "Gamma", 42.2, -72.2, 1500)]
RULE_EDGES = [(1, 2), (2, 3)]
RULE_FAULTS = [  # rule, nodes, edges, file and line of the bad record, wording
    ("population", RULE_NODES[:2] + [NodeRecord(3, "Gamma", 42.2, -72.2, 0)], RULE_EDGES,
     "nodes.csv", 4, "population must be >= 1"),
    ("duplicate node_id", RULE_NODES + [NodeRecord(2, "Beta", 0.0, 0.0, 5)], RULE_EDGES,
     "nodes.csv", 5, "duplicate node_id 2"),
    ("self-loop", RULE_NODES, RULE_EDGES + [(3, 3)],
     "edges.csv", 4, "self-loop edge on node_id 3"),
    ("unknown node", RULE_NODES, [(1, 2), (99, 3), (2, 3)],
     "edges.csv", 3, "edge references unknown node_id 99"),
] + [  # a name character that XML 1.0 cannot hold, which the SVG report would write
    (f"name U+{ord(c):04X}", RULE_NODES[:2] + [NodeRecord(3, f"Gam{c}ma", 42.2, -72.2, 1500)],
     RULE_EDGES, "nodes.csv", 4, f"name {'Gam' + c + 'ma'!r} holds U+{ord(c):04X}, "
     "which XML cannot hold")
    for c in ("\x00", "\x01", "\x08", "\x0b", "\x0c", "\x0e", "\x1f", "\ufffe", "\uffff")
]


class TestInputRules:
    @pytest.mark.parametrize("char", ["\n", "\r"])
    def test_name_with_a_line_break(self, char):
        # `write_nodes` would quote the name across two lines, which `read_nodes` rejects
        nodes = RULE_NODES[:2] + [NodeRecord(3, f"Gam{char}ma", 42.2, -72.2, 1500)]
        with pytest.raises(ValidationError) as info:
            build_route_graph(nodes, RULE_EDGES)
        assert str(info.value) == (f"name {'Gam' + char + 'ma'!r} holds U+{ord(char):04X}, "
                                   "which a CSV row cannot hold")

    @pytest.mark.parametrize("nodes,edges,name,line,wording", [fault[1:] for fault in RULE_FAULTS],
                             ids=[fault[0] for fault in RULE_FAULTS])
    def test_library_and_files_share_wording(self, tmp_path, nodes, edges, name, line, wording):
        """build_route_graph and the CSV ingest reject each fault alike; the file form adds
        the file and line in front."""
        with pytest.raises(ValidationError) as library:
            build_route_graph(nodes, edges)
        assert str(library.value) == wording
        dataio.write_nodes(tmp_path / "nodes.csv", nodes)
        dataio.write_csv(tmp_path / "edges.csv", dataio.EDGES_HEADER, edges)
        dataio.write_csv(tmp_path / "cases.csv", dataio.CASES_HEADER,
                         [[rec.node_id, 1, 5] for rec in RULE_NODES])
        with pytest.raises(ValidationError) as files:
            dataio.ingest(tmp_path / "nodes.csv", tmp_path / "edges.csv", tmp_path / "cases.csv")
        assert str(files.value) == f"{tmp_path / name}: line {line}: {wording}"


class TestStrongProduct:
    def test_k2_times_p2_arcs(self):
        g = path_graph(2)
        P = np.array([[0.7, 0.3], [0.4, 0.6]])
        product = strong_product(g, TransitionMatrix(P=P), 2)
        # 4 vertices, 8 arcs: 2 spatial per slice + self and cross temporal arcs
        assert product.node_count == 4
        assert product.arc_count == 8
        W = reference.product_weights(product).toarray()

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
        W = reference.product_weights(product).toarray()
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
        W = reference.product_weights(product)
        directed = sp.diags(np.asarray(W.sum(axis=1)).ravel()) - W
        assert np.max(np.abs(directed.sum(axis=1))) < 1e-12

    def test_exact_symmetry(self, rng):
        g = random_graph(8, 0.3, rng)
        product = strong_product(g, uniform_transition(g), 3)
        L = laplacian(product).matrix.toarray()
        assert (abs(L - L.T)).max() == 0.0

    def test_quadratic_form_nonnegative(self, rng):
        g = random_graph(6, 0.4, rng)
        product = strong_product(g, uniform_transition(g), 4)
        L = laplacian(product).matrix
        for _ in range(100):
            x = rng.standard_normal(L.shape[0])
            assert x @ (L @ x) >= -1e-9 * (x @ x)


@pytest.fixture(scope="module")
def oracle_cases(oracle_products):
    """The oracle products' Laplacians, each with its dense largest eigenvalue."""
    cases = []
    for product in oracle_products:
        lap = laplacian(product)
        cases.append((lap, np.linalg.eigvalsh(lap.matrix.toarray())[-1]))
    return cases


def single_slices(rng):
    """Single-slice graphs: symmetric 0/1 adjacencies and directed weights."""
    for _ in range(10):
        g = graph_with_isolated_node(rng)
        yield SpatioTemporalGraph(weights=g.adjacency.astype(float), base_node_count=g.n,
                                  slice_count=1)
        directed = sp.random(g.n, g.n, density=0.3, random_state=rng, format="csr")
        yield SpatioTemporalGraph(weights=directed, base_node_count=g.n, slice_count=1)


class TestProductLaplacian:
    """The matrix-free operator against the assembled CSR forms of `graphs_reference`."""

    @staticmethod
    def reference_laplacian(product):
        return reference.symmetrized_laplacian(reference.product_weights(product))

    def check_matvecs(self, product, rng):
        op = ProductLaplacian(product)
        ref = self.reference_laplacian(product)
        assert op.shape == ref.shape
        for _ in range(3):
            x = rng.standard_normal(op.shape[0])
            # relative to the size of the terms summed into each entry
            scale = (abs(ref) @ np.abs(x)).max()
            assert np.abs(op @ x - ref @ x).max() <= 1e-14 * scale
            assert (op @ x[:, None]).shape == (op.shape[0], 1)

    def test_matvec_matches_reference_on_oracle_products(self, rng, oracle_products):
        for product in oracle_products:
            self.check_matvecs(product, rng)

    def test_matvec_matches_reference_on_single_slices(self, rng):
        for product in single_slices(rng):
            self.check_matvecs(product, rng)

    def test_toarray_matches_reference(self, rng, oracle_products):
        for product in oracle_products[:8] + list(single_slices(rng)):
            dense = ProductLaplacian(product).toarray()
            ref = self.reference_laplacian(product).toarray()
            diagonal = np.eye(len(ref), dtype=bool)
            assert np.array_equal(dense[~diagonal], ref[~diagonal])
            # degrees are summed block by block, not along the assembled row
            assert np.all(np.abs(dense[diagonal] - ref[diagonal]) <= 1e-14 * ref[diagonal])

    def test_bitwise_equal_to_stacked_product(self, rng, oracle_products):
        """`L @ x` and `apply` give the bytes of the stacked (3N, N) product on the
        oracle products, single slices, a product with an isolated node, and none."""
        lone = graph_with_isolated_node(rng)
        empty = strong_product(build_route_graph([], []),
                               TransitionMatrix(P=sp.csr_matrix((0, 0))), 3)
        for product in [*oracle_products, *single_slices(rng), empty,
                        strong_product(lone, random_transition(lone, rng), 4)]:
            op, stacked = ProductLaplacian(product), reference.StackedLaplacian(product)
            x = rng.standard_normal(op.shape[0])
            want = (stacked @ x).tobytes()
            assert (op @ x).tobytes() == want
            cols = np.ascontiguousarray(x.reshape(op.slices, -1).T)
            out, scratch = np.full((2, *cols.shape), np.nan)  # dirty on entry
            assert op.apply(cols, out, scratch) is out
            assert out.T.tobytes() == want

    def test_apply_allocates_nothing(self, rng):
        # only the views' small objects: a tenth of one vector is far above them
        g = random_graph(100, 0.05, rng)
        op = ProductLaplacian(strong_product(g, random_transition(g, rng), 50))
        x, out, scratch = np.empty((3, 100, 50))
        x[...] = rng.standard_normal(x.shape)
        tracemalloc.start()
        try:
            op.apply(x, out, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes // 10

    def test_lambda_max_bitwise_equal_to_stacked_product(self, oracle_products, oracle_cases):
        # the stacked operator has no blocks to collapse, so it is handed the same start
        for product, (lap, _) in zip(oracle_products, oracle_cases):
            stacked = _with_lambda_max(reference.StackedLaplacian(product),
                                       graphs._lanczos_start(lap.matrix))
            assert (lap.lambda_max_estimate, lap.lambda_matvecs, lap.lambda_residual) == (
                stacked.lambda_max_estimate, stacked.lambda_matvecs, stacked.lambda_residual)

    def test_arc_count_formula(self, rng):
        for slices in (2, 3, 7):
            g = graph_with_isolated_node(rng)
            product = strong_product(g, random_transition(g, rng), slices)
            n, e = g.n, len(g.edges)
            formula = slices * 2 * e + (slices - 1) * (n + 2 * e)
            assert product.arc_count == formula == reference.product_weights(product).nnz

    def test_no_product_sized_allocation(self):
        """At N=2,000, T=104 the product and its operator stay far below one CSR L."""
        n, slices = 2000, 104
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, min(i + 4, n + 1))]
        g = build_route_graph(make_nodes(n), edges)
        support = g.closed_neighborhoods().astype(float)
        support.data = np.random.default_rng(8).uniform(0.1, 1.0, support.nnz)
        rows = np.asarray(support.sum(axis=1)).ravel()
        transition = TransitionMatrix(P=sp.diags(1.0 / rows) @ support)
        e = len(edges)
        nnz_l = slices * n + slices * 2 * e + 2 * (slices - 1) * (2 * e + n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            op = ProductLaplacian(strong_product(g, transition, slices))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.shape == (n * slices, n * slices)
        assert peak < 12 * nnz_l / 10, (peak, nnz_l)


class TestSpmm:
    """`spmm` against scipy's own `A @ B`, bit for bit, into a dirty output."""

    @staticmethod
    def check(A, B):
        out = np.full((A.shape[0], B.shape[1]), np.nan)
        assert spmm(A, B, out) is out
        assert out.tobytes() == (A @ B).tobytes()

    def test_random_matrices_with_empty_rows(self, rng):
        for _ in range(20):
            n, m, k = (int(v) for v in rng.integers(1, 40, size=3))
            used = rng.choice(n, size=max(1, n // 2), replace=False)  # the other rows stay empty
            nnz = int(rng.integers(0, 4 * n))
            A = sp.csr_matrix((rng.standard_normal(nnz), (rng.choice(used, nnz),
                                                          rng.integers(0, m, nnz))),
                              shape=(n, m))
            if n > 1:
                assert np.any(np.diff(A.indptr) == 0)
            self.check(A, rng.standard_normal((m, k)))

    def test_mismatched_operands_rejected(self, rng):
        A = sp.csr_matrix(rng.standard_normal((4, 3)))
        for B, out in ((np.ones((2, 5)), np.empty((4, 5))), (np.ones((3, 5)), np.empty((5, 4))),
                       (np.ones((3, 5)), np.empty((4, 5), dtype=np.float32)),
                       (np.ones((5, 3)).T, np.empty((4, 5))),
                       (np.ones((3, 5)), np.empty((4, 10))[:, ::2]),
                       (np.ones((3, 5)), np.empty((5, 4)).T)):
            with pytest.raises(ValueError):
                spmm(A, B, out)

    @pytest.mark.parametrize("heads", [1, 3, 7])
    def test_per_head_pattern(self, rng, heads):
        support = _Support.of_graph(graph_with_isolated_node(rng))
        rows = support.n * heads
        pattern = _HeadPattern.of_support(support, heads)
        for A in (pattern.fwd, pattern.bwd):
            A.data[:] = rng.uniform(size=A.nnz)
            self.check(A, rng.standard_normal((rows, 5)))


class TestEstimateLambdaMax:
    def test_path3_value(self):
        # P3 Laplacian eigenvalues are {0, 1, 3}; estimate is inflated by 1.01
        g = path_graph(3)
        single = SpatioTemporalGraph(weights=g.adjacency.astype(float).tocsr(),
                                     base_node_count=3, slice_count=1)
        est = laplacian(single).lambda_max_estimate
        assert abs(est - 3.03) < 1e-3

    def test_degenerate_zero_matrix(self):
        # the zero Laplacian of one edgeless node: Lanczos breaks down at its first step
        with pytest.warns(UserWarning, match="Gershgorin"):
            est = base_laplacian(build_route_graph(make_nodes(1), [])).lambda_max_estimate
        assert est == 0.0
        from stgw.sgwt import make_dictionary
        with pytest.raises(ValidationError):
            make_dictionary(est)

    def test_upper_bounds_dense_oracle(self, rng, oracle_cases):
        for _ in range(5):
            A = rng.standard_normal((20, 20))
            A = (A + A.T) / 2
            est = _with_lambda_max(reference.DenseOperator(A),
                                   rng.standard_normal((20, 1))).lambda_max_estimate
            assert est >= np.linalg.eigvalsh(A)[-1]
        # product-graph Laplacians with a random row-stochastic P on the support: the
        # Chebyshev domain [0, estimate] must contain the whole spectrum
        for lap, top in oracle_cases:
            assert lap.lambda_max_estimate >= top

    def test_tight_on_dense_oracle(self, oracle_cases):
        # a loose bound spreads the filters' detail over fewer Chebyshev orders
        for lap, top in oracle_cases:
            assert lap.lambda_max_estimate <= 1.02 * top
            assert lap.converged

    def test_twenty_vertex_product_takes_lanczos(self, rng):
        # 5 nodes x 4 slices: the Krylov space fills the whole space by step 20
        g = random_graph(5, 0.3, rng)
        lap = laplacian(strong_product(g, random_transition(g, rng), 4))
        top = np.linalg.eigvalsh(lap.matrix.toarray())[-1]
        assert lap.lambda_method == "lanczos"
        assert top <= lap.lambda_max_estimate <= 1.02 * top

    def test_run_record(self, oracle_cases):
        for lap, top in oracle_cases:
            assert lap.lambda_method == "lanczos"
            assert 0 < lap.lambda_matvecs < lap.n
            assert lap.lambda_residual <= 1e-2 * top

    def test_no_convergence_falls_back_to_gershgorin(self, rng, monkeypatch):
        g = random_graph(12, 0.3, rng)
        matrix = laplacian(strong_product(g, uniform_transition(g), 4)).matrix
        start = graphs._lanczos_start(matrix)
        # one Lanczos step cannot meet the tolerance on these 48 vertices
        monkeypatch.setattr(graphs, "LANCZOS_STEPS", 1)
        with pytest.warns(UserWarning, match="Gershgorin"):
            lap = _with_lambda_max(matrix, start)
        assert lap.lambda_max_estimate == pytest.approx(np.abs(matrix.toarray()).sum(axis=1).max())
        assert lap.converged is False
        assert lap.lambda_method == "gershgorin"

    def test_zero_matrix_beyond_dense_size(self):
        # Lanczos breaks down at its first step on the zero matrix; Gershgorin's 0 is
        # then exact
        with pytest.warns(UserWarning, match="Gershgorin"):
            lap = base_laplacian(build_route_graph(make_nodes(30), []))
        assert lap.lambda_max_estimate == 0.0
        assert lap.converged is False

    @pytest.mark.parametrize("shape", ["ring", "path", "edgeless"])
    def test_upper_bounds_time_symmetric_products(self, shape):
        """The uniform P over a ring or an edgeless graph is symmetric, so the Laplacian
        commutes with time reversal and each time mode of the start reaches only the
        eigenvectors of its own parity.  A path's is not (its end rows hold 1/2, its
        inner ones 1/3).  The bound must cover the dense maximum on all three."""
        for n in (3, 7, 20, 60):
            edges = {"ring": [(i, i % n + 1) for i in range(1, n + 1)],
                     "path": [(i, i + 1) for i in range(1, n)], "edgeless": []}[shape]
            g = build_route_graph(make_nodes(n), edges)
            for slices in (2, 3, 4, 6, 10):
                lap = laplacian(strong_product(g, uniform_transition(g), slices))
                top = np.linalg.eigvalsh(lap.matrix.toarray())[-1]
                assert lap.lambda_max_estimate >= top, (n, slices)

    @pytest.mark.parametrize("slices", [4, 10, 20])
    def test_upper_bounds_lazy_products(self, slices):
        """A large diagonal in P puts the product's top eigenvalue at the ω = π end of
        its time modes, where the eigenvector alternates in sign from slice to slice:
        P = I - eps L_A on a 60-node random graph (p_ii >= 0.7, symmetric), the same P
        perturbed to be asymmetric, and lazy walks round a ring that mostly go one
        way.  A start built from the ω = 0 end alone fell short on the symmetric P
        at every T here (by 28% at T = 4) and on both rings at T = 20."""
        rng = np.random.default_rng(5)
        g = random_graph(60, 0.05, rng)
        A = g.dense_adjacency().astype(float)
        lazy = np.eye(60) - 0.3 / A.sum(axis=1).max() * (np.diag(A.sum(axis=1)) - A)
        perturbed = lazy + 1e-3 * rng.uniform(0.0, 1.0, lazy.shape) * (lazy > 0)
        cases = [(g, lazy), (g, perturbed / perturbed.sum(axis=1, keepdims=True))]
        ring = build_route_graph(make_nodes(30), [(i, i % 30 + 1) for i in range(1, 31)])
        turn = np.roll(np.eye(30), 1, axis=1)
        cases += [(ring, 0.8 * np.eye(30) + 0.2 * (b * turn + (1 - b) * turn.T))
                  for b in (1.0, 0.9)]
        for graph, P in cases:
            lap = laplacian(strong_product(graph, TransitionMatrix(P=P), slices))
            top = np.linalg.eigvalsh(lap.matrix.toarray())[-1]
            assert lap.lambda_max_estimate >= top

    @pytest.mark.parametrize("seed", [42, 7])
    def test_paper_size_matvecs(self, seed):
        # N=60, T=41: a seeded Gaussian start took 201 (seed 42) and 121 (seed 7) here
        g, _ = generate(SyntheticSpec(nodes=60, weeks=41, seed=seed))
        product = strong_product(g, random_transition(g, np.random.default_rng(seed)), 41)
        lap = laplacian(product)
        assert lap.lambda_method == "lanczos"
        assert lap.lambda_matvecs <= 41

    def test_peak_memory(self):
        """At N=400, T=104 `laplacian` holds at most 8 product vectors at once: the
        node-major degrees, the start, four Lanczos buffers and the Ritz vector (7.35
        vectors measured; a Lanczos through `L @ x` peaked at 9.45)."""
        g, _ = generate(SyntheticSpec(nodes=400, weeks=104, seed=42))
        product = strong_product(g, random_transition(g, np.random.default_rng(42)), 104)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            lap = laplacian(product)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lap.lambda_method == "lanczos"
        assert peak <= 8 * product.node_count * 8, peak / (product.node_count * 8)

    def test_repeat_calls_bit_identical(self, rng):
        g = random_graph(30, 0.2, rng)
        product = strong_product(g, random_transition(g, rng), 6)
        first, second = laplacian(product), laplacian(product)
        assert first.lambda_max_estimate == second.lambda_max_estimate
        assert first.lambda_matvecs == second.lambda_matvecs


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


def graph_with_isolated_node(rng):
    """A random graph on 3..15 nodes plus one node with no edges, in a random position."""
    n = int(rng.integers(3, 16))
    lone = int(rng.integers(1, n + 2))
    linked = [k for k in range(1, n + 2) if k != lone]
    edges = [(a, b) for x, a in enumerate(linked) for b in linked[x + 1:] if rng.random() < 0.3]
    return build_route_graph(make_nodes(n + 1), edges)


class TestAgainstDenseReference:
    """The sparse forms against the loop and dense-P forms of `graphs_reference`."""

    @pytest.mark.parametrize("slices", [2, 3, 7])
    def test_strong_product_csr_identical(self, rng, slices):
        for _ in range(20):
            g = graph_with_isolated_node(rng)
            assert len(g.isolated_ids) >= 1
            transition = random_transition(g, rng)
            W = reference.product_weights(strong_product(g, transition, slices))
            ref = reference.strong_product_weights(g, transition.P.toarray(), slices)
            for name in ("indptr", "indices", "data"):
                new, old = getattr(W, name), getattr(ref, name)
                assert new.dtype == old.dtype and new.tobytes() == old.tobytes(), name

    def test_check_support_names_the_same_pair(self, rng):
        for _ in range(20):
            g = graph_with_isolated_node(rng)
            A = g.dense_adjacency()
            np.fill_diagonal(A, 1.0)
            off = np.argwhere(A == 0)
            for i, j in off[rng.choice(len(off), size=min(3, len(off)), replace=False)]:
                A[i, j] = 1.0
            P = A * rng.uniform(0.1, 1.0, A.shape)
            P /= P.sum(axis=1, keepdims=True)
            with pytest.raises(ValidationError) as ref:
                reference.check_support(P, g)
            with pytest.raises(ValidationError) as new:
                TransitionMatrix(P=P).check_support(g)
            assert str(new.value) == str(ref.value)

    def test_influential_scores_and_theta(self, rng):
        for _ in range(20):
            g = graph_with_isolated_node(rng)
            transition = random_transition(g, rng)
            scores = influential_scores(transition)
            ref = reference.influential_scores(transition.P.toarray())
            assert np.all(np.abs(scores - ref) <= 1e-14 * np.abs(ref))
            cases = CaseMatrix(values=rng.uniform(0.0, 5.0, (g.n, 6)) * (rng.random((g.n, 6)) < 0.8),
                               weeks=6)
            theta = anomaly_metric(cases, g)
            ref = reference.anomaly_metric(cases.values, g)
            assert np.all(np.abs(theta - ref) <= 1e-14 * np.abs(ref))


class TestTransitionMatrixForm:
    def test_read_only_canonical_csr(self):
        P = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        for given in (P, sp.coo_matrix(P), sp.csr_matrix(P)):
            t = TransitionMatrix(P=given)
            assert isinstance(t.P, sp.csr_matrix) and t.P.has_canonical_format
            assert t.P.nnz == 7 and np.array_equal(t.P.toarray(), P)
            with pytest.raises(ValueError):
                t.P.data[0] = 1.0

    def test_rejection_names_the_first_row(self):
        P = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.5], [0.0, 0.5, 0.6]])
        with pytest.raises(ValidationError, match="sum to 1") as info:
            TransitionMatrix(P=P)
        assert info.value.row == 1


class TestNoDenseAllocation:
    """Support-only code allocates O(E + N), never an N x N array (here 128 MB)."""

    N = 4000

    @pytest.fixture(scope="class")
    def banded(self):
        """Each node linked to the next three, plus one isolated node: P^5 stays banded."""
        n = self.N
        edges = [(i, j) for i in range(1, n) for j in range(i + 1, min(i + 4, n))]
        g = build_route_graph(make_nodes(n), edges)
        model = GatModel.create(5, heads=2, head_dim=4, out_dim=4, seed=3)
        X = np.random.default_rng(3).standard_normal((n, 5))
        return g, model, X

    @staticmethod
    def peak_bytes(fn, *args):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_below_n_squared_bytes(self, tmp_path, banded):
        g, model, X = banded
        transition = extract_transition(model, g, X)
        cases = CaseMatrix(values=np.ones((self.N, 3)), weeks=3)
        path = tmp_path / "transition.csv"
        calls = {
            "extract_transition": (extract_transition, model, g, X),
            "check_support": (transition.check_support, g),
            "strong_product": (strong_product, g, transition, 2),
            "influential_scores": (influential_scores, transition),
            "anomaly_metric": (anomaly_metric, cases, g),
            "write_transition": (dataio.write_transition, path, g, transition),
            "read_transition": (dataio.read_transition, path, g),
        }
        peaks = {name: self.peak_bytes(*call) for name, call in calls.items()}
        assert all(peak < self.N ** 2 for peak in peaks.values()), peaks
