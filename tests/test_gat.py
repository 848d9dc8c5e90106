import math
import tracemalloc

import numpy as np
import pytest

import gat_dense_reference as dense
from stgw.errors import NumericError, ValidationError
from stgw.gat import (GatModel, TrainConfig, _Adam, _elu_grad, _evaluate_loss, _flat_copy,
                      _loss_and_grads, attention_coefficients, bce_loss, edge_accuracy, edge_probability,
                      elu, extract_transition, influential_scores, layer_forward,
                      leaky_relu, make_samples, negative_candidates, neighborhood_mask,
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
        assert _elu_grad(x).tobytes() == branch_grad.tobytes()
        assert math.copysign(1.0, elu(-0.0)) == -1.0


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
        for A in attention_coefficients(model.layer1, X, g):
            dense = A.toarray()
            mask = neighborhood_mask(g)
            sizes = mask.sum(axis=1)
            for i in range(4):
                expected = np.where(mask[i], 1.0 / sizes[i], 0.0)
                assert np.allclose(dense[i], expected, atol=1e-12)

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
        out = layer_forward(layer, x, g, concat=False)
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
    def test_zero_theta_gives_half(self, rng):
        xi, xj = rng.standard_normal((2, 8))
        assert edge_probability(xi, xj, np.zeros(8)) == 0.5

    def test_sigmoid_algebra(self):
        xi = np.array([math.log(3.0)])
        xj = np.array([1.0])
        assert abs(edge_probability(xi, xj, np.array([1.0])) - 0.75) < 1e-12

    def test_symmetry(self, rng):
        xi, xj = rng.standard_normal((2, 8))
        theta = rng.standard_normal(8)
        assert edge_probability(xi, xj, theta) == edge_probability(xj, xi, theta)


class TestBceLoss:
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


class TestExtractTransition:
    def test_rows_and_support(self, rng):
        g = random_graph(7, 0.3, rng)
        model = GatModel.create(5, heads=2, head_dim=4, out_dim=4, seed=6)
        X = rng.standard_normal((7, 5))
        P = extract_transition(model, g, X).P.toarray()
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-9
        mask = neighborhood_mask(g)
        assert np.all((P > 0) == mask) or np.all((P > 0)[~mask] == False)  # noqa: E712
        assert np.all(np.diag(P) > 0)

    def test_identical_features_uniform(self, rng):
        g = path_graph(4)
        model = GatModel.create(3, heads=2, head_dim=4, out_dim=4, seed=7)
        X = np.ones((4, 3)) * 2.5
        P = extract_transition(model, g, X).P.toarray()
        mask = neighborhood_mask(g)
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
    def test_q_symmetric_in_pair_order(self, rng):
        g = random_graph(6, 0.4, rng)
        model = GatModel.create(4, heads=2, head_dim=3, out_dim=3, seed=8)
        X = rng.standard_normal((6, 4))
        q_fwd = predict_edges(model, g, X, np.array([[0, 3], [1, 4]]))
        q_rev = predict_edges(model, g, X, np.array([[3, 0], [4, 1]]))
        assert np.array_equal(q_fwd, q_rev)


class TestDenseReference:
    """The edge-list attention against the dense masked-softmax reference."""

    SLOPE = 0.35

    def cases(self, rng):
        for n, p, seed in ((5, 0.3, 0), (9, 0.5, 1), (16, 0.15, 2)):
            g = graph_with_isolated_node(n, p, rng)
            mask = neighborhood_mask(g)
            X = rng.standard_normal((n + 1, 6))
            model = GatModel.create(6, heads=3, head_dim=5, out_dim=4, seed=seed)
            yield g, mask, X, model

    def test_attention_and_layer_forward(self, rng):
        for g, mask, X, model in self.cases(rng):
            ref_attn = dense.attention_coefficients(model.layer1, X, mask, self.SLOPE)
            ref_layer = dense.layer_forward(model.layer1, X, mask, self.SLOPE)
            for neighborhoods in (g, mask):
                attn = attention_coefficients(model.layer1, X, neighborhoods, self.SLOPE)
                for A, ref in zip(attn, ref_attn):
                    assert relative_error(A.toarray(), ref) < 1e-12
                out = layer_forward(model.layer1, X, neighborhoods, slope=self.SLOPE)
                assert relative_error(out, ref_layer) < 1e-12

    def test_loss_and_grads(self, rng):
        for g, mask, X, model in self.cases(rng):
            n = X.shape[0]
            pairs = rng.integers(0, n, size=(3 * n, 2))
            labels = (rng.random(3 * n) < 0.5).astype(float)
            ref_loss, ref_grads, ref_X2 = dense.loss_and_grads(model, X, mask, pairs,
                                                               labels, self.SLOPE)
            for neighborhoods in (g, mask):
                loss, grads, X2 = _loss_and_grads(model, X, neighborhoods, pairs, labels,
                                                  self.SLOPE)
                assert abs(loss - ref_loss) <= 1e-12 * ref_loss
                assert relative_error(X2, ref_X2) < 1e-12
                assert len(grads) == len(ref_grads)
                for grad, ref in zip(grads, ref_grads):
                    assert relative_error(grad, ref) < 1e-12

    def test_extract_transition(self, rng):
        for g, mask, X, model in self.cases(rng):
            P = extract_transition(model, g, X, slope=self.SLOPE).P.toarray()
            assert relative_error(P, dense.transition(model, X, mask, self.SLOPE)) < 1e-12
            assert P[-1, -1] == 1.0  # the isolated node attends only to itself

    def test_fused_validation_loss_is_exact(self, rng):
        g = random_graph(14, 0.3, rng)
        X = rng.standard_normal((14, 5))
        model = GatModel.create(5, heads=2, head_dim=4, out_dim=3, seed=4)
        samples = make_samples(g, seed=2)
        val_pairs, val_labels = samples.subset("validation")
        assert len(val_pairs)
        _, hist = train(model, g, X, samples, TrainConfig(max_epochs=1))
        assert hist["val_loss"][0] == _evaluate_loss(model, X, neighborhood_mask(g),
                                                     val_pairs, val_labels, self.SLOPE)


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
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n
