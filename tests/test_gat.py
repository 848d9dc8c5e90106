import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import gat_dense_reference as dense
from stgw import gat
from stgw.errors import NumericError, ValidationError
from stgw.gat import (GatLayerParams, GatModel, TrainConfig, _Adam, _edge_dots, _elu_slope,
                      _evaluate_loss, _flat_copy, _HeadPattern, _layer_backward,
                      _layer_forward, _LayerWork, _loss_and_grads, _pair_outputs, _spmm,
                      _Support, _Workspace, attention_coefficients, bce_loss, edge_accuracy,
                      elu, extract_transition, influential_scores,
                      layer_forward, leaky_relu, make_samples, negative_candidates,
                      predict_edges, train)
from stgw.graphs import TransitionMatrix, build_route_graph

from conftest import make_nodes, path_graph, random_graph


def graph_with_isolated_node(n, p, rng):
    """random_graph on n nodes, plus node n + 1 with no edges."""
    g = random_graph(n, p, rng)
    return build_route_graph(make_nodes(n + 1), [(i + 1, j + 1) for i, j in g.edges])


def relative_error(fast, ref):
    fast, ref = np.asarray(fast), np.asarray(ref)
    return np.max(np.abs(fast - ref)) / max(np.max(np.abs(ref)), 1e-300)


class TestActivations:
    def test_leaky_relu(self):
        assert leaky_relu(-1.0) == -0.35
        assert leaky_relu(2.0) == 2.0
        assert leaky_relu(0.0) == 0.0

    def test_elu(self):
        assert elu(0.0) == 0.0
        assert elu(1.0) == 1.0
        assert abs(elu(-1.0) - (math.exp(-1.0) - 1.0)) < 1e-15
        assert isinstance(elu(-1.0), float)

    def test_elu_and_grad_match_branch_forms_bitwise(self):
        tiny = np.finfo(float).smallest_subnormal
        edges = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, np.inf, -np.inf,
                          np.finfo(float).max, -np.finfo(float).max, 1e-300, -800.0])
        x = np.concatenate([edges, np.linspace(-40.0, 40.0, 4001)])
        branch = np.where(x < 0, np.expm1(np.minimum(x, 0.0)), x)
        branch_grad = np.where(x < 0, np.exp(np.minimum(x, 0.0)), 1.0)
        assert elu(x).tobytes() == branch.tobytes()
        assert dense.elu_grad(x).tobytes() == branch_grad.tobytes()
        assert math.copysign(1.0, elu(-0.0)) == -1.0

    def test_backward_derivative_from_the_output(self):
        # min(y, 0) + 1 for y = elu(u) is 1 + expm1(u), rounded at the scale of 1: it is
        # within 2^-53 (one ulp of [0.5, 1)) of exp(u), and so within one ulp of exp(u)
        # itself where that is at least 0.5
        tiny = np.finfo(float).smallest_subnormal
        below = np.concatenate([-np.logspace(-320, 3, 4001), np.linspace(-40.0, 0.0, 4001)[:-1],
                                [-tiny, -800.0, -np.inf]])
        slope = _elu_slope(elu(below), np.empty_like(below))
        error = np.abs(slope - np.exp(below))
        assert np.all(error <= np.spacing(0.5))
        near = below >= math.log(0.5)
        assert np.all(error[near] <= np.spacing(np.exp(below[near])))
        above = np.array([0.0, -0.0, tiny, 1e-300, 1.0, 40.0, np.finfo(float).max, np.inf])
        assert _elu_slope(elu(above), np.empty_like(above)).tobytes() == np.ones(8).tobytes()


def per_array_adam_steps(params, grads_per_step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as it ran on one array at a time, as the reference for the flat step."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        bc1, bc2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        for p, g, mk, vk in zip(params, grads, m, v):
            mk += (1.0 - beta1) * (g - mk)
            vk += (1.0 - beta2) * (g * g - vk)
            p -= lr * (mk / bc1) / (np.sqrt(vk / bc2) + eps)


class TestFlatAdam:
    def test_flat_step_equals_per_array_steps(self, rng):
        model = GatModel.create(6, heads=3, head_dim=4, out_dim=5, seed=2)
        reference, _ = _flat_copy(model)
        work, flat = _flat_copy(model)
        grads_per_step = [[rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)
                           for p in model.parameters()] for _ in range(5)]
        per_array_adam_steps(reference.parameters(), grads_per_step, lr=0.005)
        opt = _Adam(flat.size, lr=0.005)
        for grads in grads_per_step:
            opt.step(flat, np.concatenate([g.ravel() for g in grads]))
        for p, ref in zip(work.parameters(), reference.parameters()):
            assert np.shares_memory(p, flat)
            assert p.tobytes() == ref.tobytes()
        for p, before in zip(model.parameters(), GatModel.create(6, heads=3, head_dim=4,
                                                                 out_dim=5, seed=2).parameters()):
            assert p.tobytes() == before.tobytes()  # the source model is untouched


class TestAttention:
    def test_identical_features_uniform(self):
        g = path_graph(4)
        model = GatModel.create(3, heads=2, head_dim=4, out_dim=4, seed=0)
        X = np.ones((4, 3)) * 1.7
        mask = dense.neighborhood_mask(g)
        sizes = mask.sum(axis=1)
        for A in attention_coefficients(model.layer1, X, g):
            for i in range(4):
                expected = np.where(mask[i], 1.0 / sizes[i], 0.0)
                assert np.allclose(A.toarray()[i], expected, atol=1e-12)

    def test_isolated_node_self_attention(self):
        g = build_route_graph(make_nodes(3), [(1, 2)])
        model = GatModel.create(2, heads=1, head_dim=3, out_dim=3, seed=1)
        A = attention_coefficients(model.layer1, np.random.default_rng(0).normal(size=(3, 2)), g)[0]
        assert A.toarray()[2, 2] == 1.0

    def test_rows_sum_to_one(self, rng):
        g = random_graph(5, 0.5, rng)
        model = GatModel.create(4, heads=3, head_dim=5, out_dim=4, seed=2)
        X = rng.standard_normal((5, 4))
        for A in attention_coefficients(model.layer1, X, g):
            assert np.max(np.abs(A.toarray().sum(axis=1) - 1.0)) < 1e-12


def _dense_layer_oracle(layer, X, graph, slope=0.35):
    """Straightforward per-node reimplementation with explicit loops."""
    n = X.shape[0]
    adj = graph.dense_adjacency()
    nbrs = [sorted(set(np.flatnonzero(adj[i]).tolist()) | {i}) for i in range(n)]
    heads = []
    for W, a in zip(layer.weights, layer.attn):
        o = W.shape[0]
        z = [W @ X[i] for i in range(n)]
        H = np.zeros((n, o))
        for i in range(n):
            raw = {}
            for j in nbrs[i]:
                v = float(np.concatenate([z[i], z[j]]) @ a)
                raw[j] = v if v >= 0 else slope * v
            mx = max(raw.values())
            ex = {j: math.exp(v - mx) for j, v in raw.items()}
            total = sum(ex.values())
            u = np.zeros(o)
            for j in nbrs[i]:
                u += ex[j] / total * z[j]
            H[i] = np.array([ui if ui >= 0 else math.exp(ui) - 1.0 for ui in u])
        heads.append(H)
    return np.concatenate(heads, axis=1)


class TestLayerForward:
    def test_single_node_identity_map(self):
        g = build_route_graph(make_nodes(1), [])
        from stgw.gat import GatLayerParams
        layer = GatLayerParams(weights=[np.eye(3)], attn=[np.zeros(6)])
        x = np.array([[0.4, -1.2, 2.0]])
        out = layer_forward(layer, x, g)
        assert np.allclose(out[0], elu(x[0]), atol=1e-15)

    def test_zero_features_zero_output(self):
        g = path_graph(3)
        model = GatModel.create(4, heads=2, head_dim=3, out_dim=3, seed=3)
        out = layer_forward(model.layer1, np.zeros((3, 4)), g)
        assert np.all(out == 0.0)

    def test_matches_dense_oracle(self, rng):
        g = random_graph(5, 0.5, rng)
        model = GatModel.create(6, heads=3, head_dim=4, out_dim=4, seed=4)
        X = rng.standard_normal((5, 6))
        fast = layer_forward(model.layer1, X, g)
        slow = _dense_layer_oracle(model.layer1, X, g)
        assert np.max(np.abs(fast - slow)) < 1e-10


class TestEdgeProbability:
    """q = sigmoid(theta . (x_i * x_j)), through `_pair_outputs` and `predict_edges`."""

    def test_zero_theta_gives_half(self, rng):
        g = random_graph(6, 0.4, rng)
        model = GatModel.create(4, heads=2, head_dim=3, out_dim=3, seed=8)
        model.theta[:] = 0.0
        pairs = np.array([[0, 3], [1, 4], [2, 2], [5, 0]])
        q = predict_edges(model, g, rng.standard_normal((6, 4)), pairs)
        assert np.all(q == 0.5)

    def test_sigmoid_algebra(self):
        X2 = np.array([[math.log(3.0)], [1.0]])
        q = _pair_outputs(X2, np.array([1.0]), np.array([[0, 1]]))[3]
        assert abs(q[0] - 0.75) < 1e-12

    def test_symmetry(self, rng):
        X2 = rng.standard_normal((2, 8))
        theta = rng.standard_normal(8)
        q = _pair_outputs(X2, theta, np.array([[0, 1], [1, 0]]))[3]
        assert q[0] == q[1]

    def test_sigmoid_matches_branch_forms_bitwise(self, rng):
        x = np.concatenate([[0.0, -0.0, 1e-310, -1e-310, 800.0, -800.0, np.inf, -np.inf],
                            rng.standard_normal(1000) * 30.0])
        with np.errstate(over="ignore", invalid="ignore"):  # in the branch np.where drops
            branch = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
        assert gat.sigmoid(x).tobytes() == branch.tobytes()
        assert gat.sigmoid(-2.0) == math.exp(-2.0) / (1.0 + math.exp(-2.0))
        assert np.isnan(gat.sigmoid(np.nan))


class TestBceLoss:
    def test_matches_clamped_formula_bitwise(self, rng):
        q = np.concatenate([[0.0, 1.0, 1e-13, 1.0 - 1e-13], rng.random(500)])
        labels = (rng.random(len(q)) < 0.5).astype(float)
        qc = np.clip(q, 1e-12, 1.0 - 1e-12)
        ref = float(-np.mean(labels * np.log(qc) + (1.0 - labels) * np.log(1.0 - qc)))
        assert bce_loss(q, labels) == ref
        assert bce_loss(0.25, 1.0) == -math.log(0.25)

    def test_uninformative_predictor(self):
        q = np.full(10, 0.5)
        labels = np.array([1.0] * 5 + [0.0] * 5)
        assert abs(bce_loss(q, labels) - math.log(2.0)) < 1e-12

    def test_perfect_predictions_clamped(self):
        # clamp keeps the loss finite and tiny: -ln(1 - 1e-12) per sample
        loss = bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert 0.0 < loss < 1e-11

    def test_single_positive(self):
        assert abs(bce_loss(np.array([0.25]), np.array([1.0])) - math.log(4.0)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            bce_loss(np.array([]), np.array([]))


class TestNegativeCandidates:
    def test_path_three(self):
        assert negative_candidates(path_graph(3)) == [(0, 2)]

    def test_triangle_empty(self):
        g = build_route_graph(make_nodes(3), [(1, 2), (2, 3), (1, 3)])
        assert negative_candidates(g) == []

    def test_star_all_leaf_pairs(self):
        g = build_route_graph(make_nodes(5), [(1, 2), (1, 3), (1, 4), (1, 5)])
        assert len(negative_candidates(g)) == 6

    def test_brute_force_oracle(self, rng):
        # dense A.A.A reference; the list must match in row-major order too,
        # because the order decides which negatives make_samples draws
        for _ in range(20):
            n = int(rng.integers(3, 20))
            g = graph_with_isolated_node(n, rng.uniform(0.05, 0.4), rng)
            A = g.dense_adjacency().astype(int)
            expected = []
            A2 = A @ A
            A3 = A2 @ A
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    if A[i, j] == 0 and (A2[i, j] > 0 or A3[i, j] > 0):
                        expected.append((i, j))
            assert negative_candidates(g) == expected


class TestMakeSamples:
    def test_split_counts(self, rng):
        # build a graph with exactly 100 edges and a large candidate pool
        g = random_graph(40, 0.1, rng)
        while len(g.edges) != 100:
            g = random_graph(40, 0.1, rng)
        samples = make_samples(g, seed=3)
        assert samples.counts("train") == (60, 60)
        assert samples.counts("validation") == (20, 20)
        assert samples.counts("test") == (20, 20)

    def test_deterministic_under_seed(self, rng):
        g = random_graph(12, 0.3, rng)
        a = make_samples(g, seed=9)
        b = make_samples(g, seed=9)
        assert np.array_equal(a.pairs, b.pairs)
        assert np.array_equal(a.split, b.split)

    def test_balanced_test_split(self, rng):
        for seed in range(5):
            g = random_graph(15, 0.25, rng)
            samples = make_samples(g, seed=seed)
            pos, neg = samples.counts("test")
            assert pos == neg

    def test_small_candidate_pool_warns(self):
        # triangle plus pendant: only one 2-hop pair but three edges
        g = build_route_graph(make_nodes(4), [(1, 2), (2, 3), (1, 3), (3, 4)])
        with pytest.warns(UserWarning, match="negative candidates"):
            samples = make_samples(g, seed=0)
        assert (samples.labels == 0).sum() < (samples.labels == 1).sum()

    def test_no_edges_rejected(self):
        g = build_route_graph(make_nodes(3), [])
        with pytest.raises(ValidationError):
            make_samples(g, seed=0)


class TestTrain:
    def _setup(self, rng, n=8, t=6):
        g = random_graph(n, 0.35, rng)
        X = rng.standard_normal((n, t))
        model = GatModel.create(t, heads=2, head_dim=5, out_dim=4, seed=11)
        samples = make_samples(g, seed=5)
        return g, X, model, samples

    def test_loss_decreases(self, rng):
        g, X, model, samples = self._setup(rng)
        trained, hist = train(model, g, X, samples, TrainConfig(max_epochs=150, seed=0))
        assert hist["train_loss"][hist["best_epoch"]] < hist["train_loss"][0]

    def test_bit_reproducible(self, rng):
        g, X, model, samples = self._setup(rng)
        cfg = TrainConfig(max_epochs=60, seed=0)
        t1, h1 = train(model, g, X, samples, cfg)
        t2, h2 = train(model, g, X, samples, cfg)
        for p1, p2 in zip(t1.parameters(), t2.parameters()):
            assert np.array_equal(p1, p2)
        assert h1["train_loss"] == h2["train_loss"]

    def test_non_finite_loss_aborts_with_epoch(self, rng):
        g, X, model, samples = self._setup(rng)
        X = X.copy()
        X[0, 0] = np.nan
        with pytest.raises(NumericError, match="epoch"):
            train(model, g, X, samples, TrainConfig(max_epochs=50, seed=0))

    def test_feature_dim_checked(self, rng):
        g, X, model, samples = self._setup(rng)
        with pytest.raises(ValidationError):
            train(model, g, X[:, :3], samples, TrainConfig())

    def test_layer_forward_dim_checked(self, rng):
        g, X, model, _ = self._setup(rng)
        with pytest.raises(ValidationError, match="dimension"):
            layer_forward(model.layer1, X[:, :2], g)

    def test_tiny_graph_without_validation_split(self):
        # 2 edges: the 6:2:2 split leaves no validation pairs; training must
        # still run, monitoring the training loss instead
        g = build_route_graph(make_nodes(3), [(1, 2), (2, 3)])
        X = np.random.default_rng(0).standard_normal((3, 4))
        model = GatModel.create(4, heads=2, head_dim=3, out_dim=3, seed=0)
        with pytest.warns(UserWarning):
            samples = make_samples(g, seed=0)
        trained, hist = train(model, g, X, samples, TrainConfig(max_epochs=30, seed=0))
        assert len(hist["train_loss"]) > 0


class TestNodeCount:
    """Every entry point rejects a feature matrix without one row per node."""

    ENTRY_POINTS = {
        "train": lambda m, g, X, s: train(m, g, X, s, TrainConfig(max_epochs=1)),
        "predict_edges": lambda m, g, X, s: predict_edges(m, g, X, s.pairs),
        "edge_accuracy": edge_accuracy,
        "extract_transition": lambda m, g, X, s: extract_transition(m, g, X),
        "layer_forward": lambda m, g, X, s: layer_forward(m.layer1, X, g),
        "attention_coefficients": lambda m, g, X, s: attention_coefficients(m.layer1, X, g),
    }

    @pytest.mark.parametrize("rows", [5, 7])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rows_must_match_graph(self, entry, rows):
        g = build_route_graph(make_nodes(6),
                              [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5)])
        model = GatModel.create(4, heads=2, head_dim=3, out_dim=3, seed=0)
        X = np.random.default_rng(0).standard_normal((rows, 4))
        with pytest.raises(ValidationError, match=f"{rows} rows for 6 nodes"):
            self.ENTRY_POINTS[entry](model, g, X, make_samples(g, seed=0))


class TestExtractTransition:
    def test_rows_and_support(self, rng):
        g = random_graph(7, 0.3, rng)
        model = GatModel.create(5, heads=2, head_dim=4, out_dim=4, seed=6)
        X = rng.standard_normal((7, 5))
        P = extract_transition(model, g, X).P.toarray()
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-9
        mask = dense.neighborhood_mask(g)
        assert np.all((P > 0) == mask) or np.all((P > 0)[~mask] == False)  # noqa: E712
        assert np.all(np.diag(P) > 0)

    def test_identical_features_uniform(self, rng):
        g = path_graph(4)
        model = GatModel.create(3, heads=2, head_dim=4, out_dim=4, seed=7)
        X = np.ones((4, 3)) * 2.5
        P = extract_transition(model, g, X).P.toarray()
        mask = dense.neighborhood_mask(g)
        sizes = mask.sum(axis=1)
        for i in range(4):
            assert np.allclose(P[i, mask[i]], 1.0 / sizes[i], atol=1e-12)


class TestInfluentialScores:
    def test_identity_matrix_zero(self):
        P = TransitionMatrix(P=np.eye(4))
        assert np.all(influential_scores(P) == 0.0)

    def test_idempotent_two_node(self):
        P = TransitionMatrix(P=np.array([[0.5, 0.5], [0.5, 0.5]]))
        scores = influential_scores(P)
        assert np.allclose(scores, [2.5, 2.5], atol=1e-12)

    def test_power_mass_conserved(self, rng):
        g = random_graph(6, 0.4, rng)
        from conftest import uniform_transition
        P = uniform_transition(g).P
        power = np.eye(6)
        for _ in range(5):
            power = power @ P
            assert abs(power.sum() - 6.0) < 1e-9


class TestPredictions:
    @pytest.mark.parametrize("pair", [(0, 6), (-1, 2)])
    def test_pairs_outside_the_graph_rejected(self, rng, pair):
        g = random_graph(6, 0.4, rng)
        model = GatModel.create(4, heads=2, head_dim=3, out_dim=3, seed=8)
        with pytest.raises(ValidationError, match=r"\[0, 6\)"):
            predict_edges(model, g, rng.standard_normal((6, 4)), np.array([pair]))

    def test_q_symmetric_in_pair_order(self, rng):
        g = random_graph(6, 0.4, rng)
        model = GatModel.create(4, heads=2, head_dim=3, out_dim=3, seed=8)
        X = rng.standard_normal((6, 4))
        q_fwd = predict_edges(model, g, X, np.array([[0, 3], [1, 4]]))
        q_rev = predict_edges(model, g, X, np.array([[3, 0], [4, 1]]))
        assert np.array_equal(q_fwd, q_rev)


class TestDenseReference:
    """The edge-list attention against the dense masked-softmax reference."""

    def cases(self, rng):
        for n, p, seed in ((5, 0.3, 0), (9, 0.5, 1), (16, 0.15, 2)):
            g = graph_with_isolated_node(n, p, rng)
            X = rng.standard_normal((n + 1, 6))
            model = GatModel.create(6, heads=3, head_dim=5, out_dim=4, seed=seed)
            yield g, X, model

    def test_attention_and_layer_forward(self, rng):
        for g, X, model in self.cases(rng):
            ref_attn = dense.attention_coefficients(model.layer1, X, g)
            for A, ref in zip(attention_coefficients(model.layer1, X, g), ref_attn):
                assert relative_error(A.toarray(), ref) < 1e-12
            out = layer_forward(model.layer1, X, g)
            assert relative_error(out, dense.layer_forward(model.layer1, X, g)) < 1e-12

    def test_loss_and_grads(self, rng):
        for g, X, model in self.cases(rng):
            n = X.shape[0]
            pairs = rng.integers(0, n, size=(3 * n, 2))
            labels = (rng.random(3 * n) < 0.5).astype(float)
            ref_loss, ref_grads, ref_X2 = dense.loss_and_grads(model, X, g, pairs, labels)
            loss, grads, X2 = _loss_and_grads(model, X, _Support.of_graph(g), pairs, labels)
            assert abs(loss - ref_loss) <= 1e-12 * ref_loss
            assert relative_error(X2, ref_X2) < 1e-12
            assert len(grads) == len(ref_grads)
            for grad, ref in zip(grads, ref_grads):
                assert relative_error(grad, ref) < 1e-12

    def test_extract_transition(self, rng):
        for g, X, model in self.cases(rng):
            P = extract_transition(model, g, X).P.toarray()
            assert relative_error(P, dense.transition(model, X, g)) < 1e-12
            assert P[-1, -1] == 1.0  # the isolated node attends only to itself

    def test_fused_validation_loss_is_exact(self, rng):
        g = random_graph(14, 0.3, rng)
        X = rng.standard_normal((14, 5))
        model = GatModel.create(5, heads=2, head_dim=4, out_dim=3, seed=4)
        samples = make_samples(g, seed=2)
        val_pairs, val_labels = samples.subset("validation")
        assert len(val_pairs)
        _, hist = train(model, g, X, samples, TrainConfig(max_epochs=1))
        assert hist["val_loss"][0] == _evaluate_loss(model, X, _Support.of_graph(g),
                                                     val_pairs, val_labels)


class TestNoDenseSquare:
    def test_training_and_prediction_allocate_no_n_by_n_array(self):
        # even a boolean N x N array would take n * n bytes
        n = 4000
        g = path_graph(n)
        X = np.random.default_rng(0).standard_normal((n, 4))
        model = GatModel.create(4, heads=2, head_dim=4, out_dim=3, seed=0)
        tracemalloc.start()
        try:
            samples = make_samples(g, seed=0)
            trained, _ = train(model, g, X, samples, TrainConfig(max_epochs=2))
            predict_edges(trained, g, X, samples.pairs)
            edge_accuracy(trained, g, X, samples)
            influential_scores(extract_transition(trained, g, X))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n


class TestSpmm:
    """`_spmm` against scipy's own `A @ B`, bit for bit, into a dirty output."""

    @staticmethod
    def check(A, B):
        out = np.full((A.shape[0], B.shape[1]), np.nan)
        assert _spmm(A, B, out) is out
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
                _spmm(A, B, out)

    @pytest.mark.parametrize("heads", [1, 3])
    def test_per_head_pattern(self, rng, heads):
        support = _Support.of_graph(graph_with_isolated_node(9, 0.3, rng))
        rows = support.n * heads
        pattern = _HeadPattern.of_support(support, heads)
        for A in (pattern.fwd, pattern.bwd):
            A.data[:] = rng.uniform(size=A.nnz)
            self.check(A, rng.standard_normal((rows, 5)))


class TestWorkspace:
    """One workspace serves every epoch of `train`."""

    def test_reused_workspace_matches_fresh_call(self, rng):
        g = graph_with_isolated_node(11, 0.3, rng)
        X = rng.standard_normal((12, 5))
        model = GatModel.create(5, heads=3, head_dim=4, out_dim=3, seed=1)
        other = GatModel.create(5, heads=3, head_dim=4, out_dim=3, seed=2)
        pairs = rng.integers(0, 12, size=(20, 2))
        labels = (rng.random(20) < 0.5).astype(float)
        other_pairs = rng.integers(0, 12, size=(30, 2))
        other_labels = (rng.random(30) < 0.5).astype(float)

        support = _Support.of_graph(g)
        ws = _Workspace(model, support, 30)
        _loss_and_grads(other, X, support, other_pairs, other_labels, ws=ws)
        loss, grads, X2 = _loss_and_grads(model, X, support, pairs, labels, ws=ws)
        ref_loss, ref_grads, ref_X2 = _loss_and_grads(model, X, _Support.of_graph(g),
                                                      pairs, labels)
        assert loss == ref_loss
        assert X2.tobytes() == ref_X2.tobytes()
        assert len(grads) == len(ref_grads)
        for grad, ref in zip(grads, ref_grads):
            assert np.shares_memory(grad, ws.grads)
            assert grad.tobytes() == ref.tobytes()

    def test_second_epoch_allocates_no_large_array(self, rng, monkeypatch):
        n = 150
        g = random_graph(n, 0.03, rng)
        X = rng.standard_normal((n, 8))
        model = GatModel.create(8, heads=4, head_dim=64, out_dim=16, seed=0)
        samples = make_samples(g, seed=0)
        array_bytes = n * 4 * 64 * 8  # one N x H*O array of layer 1
        # an epoch runs from one _loss_and_grads call to the next
        marks = []
        inner = gat._loss_and_grads

        def marked(*args, **kwargs):
            marks.append(tracemalloc.get_traced_memory())
            if len(marks) == 2:
                tracemalloc.reset_peak()
                marks[-1] = tracemalloc.get_traced_memory()
            return inner(*args, **kwargs)

        monkeypatch.setattr(gat, "_loss_and_grads", marked)
        tracemalloc.start()
        try:
            train(model, g, X, samples, TrainConfig(max_epochs=3))
        finally:
            tracemalloc.stop()
        assert len(marks) == 3
        start, peak = marks[1][0], marks[2][1]
        assert peak - start < array_bytes / 4

    def test_training_peak_memory(self):
        # 3.64-3.66 MB above the start, measured with numpy 2.4 and scipy 1.17; the
        # bound allows 4% more.  A second N x H*O array in layer 1 (307,200 bytes) and
        # Adam scratch of the parameters' size (27,328 values) instead of 16,384 values
        # took it to 4.13-4.14 MB.
        n, f = 150, 40
        g = random_graph(n, 0.03, np.random.default_rng(0))
        X = np.random.default_rng(1).standard_normal((n, f))
        samples = make_samples(g, seed=0)
        model = GatModel.create(f, heads=4, head_dim=64, out_dim=64, seed=0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train(model, g, X, samples, TrainConfig(max_epochs=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 3_800_000

    def test_layer1_elu_over_its_input_matches_elu_bitwise(self, rng, monkeypatch):
        g = graph_with_isolated_node(11, 0.3, rng)
        X = rng.standard_normal((12, 5))
        model = GatModel.create(5, heads=3, head_dim=4, out_dim=3, seed=1)
        support = _Support.of_graph(g)
        lw = _Workspace(model, support, 20).layer1
        assert lw.out is lw.U
        # values the aggregation itself never yields (it cannot give -0.0), planted
        # in U by the product that writes it
        tiny = np.finfo(float).smallest_subnormal
        edges = [-0.0, 0.0, -tiny, tiny, -1e-300, -745.0, -800.0, 1e300, np.finfo(float).max]
        tail = rng.standard_normal(lw.U.size - len(edges)) * 10.0 ** rng.integers(-3, 3,
                                                                                  lw.U.size - len(edges))
        U = np.concatenate([edges, tail]).reshape(lw.U.shape)
        spmm = gat._spmm

        def planted(A, B, out):
            spmm(A, B, out)
            if np.shares_memory(out, lw.U):
                out[...] = U.reshape(out.shape)
            return out

        monkeypatch.setattr(gat, "_spmm", planted)
        lw.grad_buffer.fill(np.nan)  # the ELU's scratch starts dirty
        out = _layer_forward(model.layer1, X, support, lw)
        monkeypatch.undo()
        intact = elu(U)
        assert out.tobytes() == intact.tobytes()
        assert math.copysign(1.0, out[0, 0]) == -1.0
        # with an output gradient of ones, the dU the backward leaves in U is the slope
        lw.dout.fill(1.0)
        grad = GatLayerParams(np.empty_like(model.layer1.weights),
                              np.empty_like(model.layer1.attn))
        with np.errstate(all="ignore"):
            _layer_backward(model.layer1, X, support, lw, grad)
        assert lw.U.tobytes() == _elu_slope(intact, np.empty_like(intact)).tobytes()


class TestBackwardKernels:
    """The edge dots and the rank-1 fold of the layer backward against plain forms."""

    @pytest.mark.parametrize("heads", [1, 7])
    def test_edge_dots_match_per_entry_dots(self, rng, heads):
        support = _Support.of_graph(graph_with_isolated_node(12, 0.3, rng))
        m, o = len(support.rows), 5
        left = rng.standard_normal((support.n, heads * o))
        right = rng.standard_normal((support.n, heads * o))
        ref = np.array([[np.dot(left[i, h * o:(h + 1) * o], right[j, h * o:(h + 1) * o])
                         for h in range(heads)] for i, j in zip(support.rows, support.cols)])
        uneven = next(b for b in range(2, m) if m % b)
        assert heads * o * m <= gat._BLOCK  # so blocks of m and m + 3 rows take all at once
        for block in (1, uneven, m, m + 3):
            out = np.full((m, heads), np.nan)
            _edge_dots(support, left, right, out, np.full(2 * heads * o * block, np.nan))
            assert relative_error(out, ref) <= 1e-15

    @pytest.mark.parametrize("n, f, heads, o", [(9, 4, 3, 5), (5, 17, 2, 6), (3, 40, 1, 7),
                                                 (14, 14, 4, 2)])
    def test_folded_dW_matches_materialized_dZ(self, rng, n, f, heads, o):
        g = graph_with_isolated_node(n - 1, 0.4, rng)
        support = _Support.of_graph(g)
        layer = GatModel.create(f, heads=heads, head_dim=o, seed=int(rng.integers(100))).layer1
        X = rng.standard_normal((n, f))
        dout = rng.standard_normal((n, heads * o))

        def backward(with_dX):
            lw = _LayerWork(layer, support, fold=True)
            _layer_forward(layer, X, support, lw)
            lw.dout[...] = dout
            grad = GatLayerParams(np.empty_like(layer.weights), np.empty_like(layer.attn))
            # with dX, the rank-1 terms are added to dZ, which then gives dW
            _layer_backward(layer, X, support, lw, grad, dX=np.empty((n, f)) if with_dX else None)
            return grad

        folded, materialized = backward(False), backward(True)
        assert relative_error(folded.weights, materialized.weights) <= 1e-13
        assert folded.attn.tobytes() == materialized.attn.tobytes()
