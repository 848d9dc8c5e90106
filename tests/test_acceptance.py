"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from stgw.classify import (a_score, anomaly_metric, classify_nodes, log_normalize,
                           robust_scale, torque)
from stgw.config import IoSection, RunConfig
from stgw.dataio import ingest, read_classes
from stgw.gat import (GatModel, TrainConfig, attention_coefficients, edge_accuracy,
                      extract_transition, make_samples, train)
from stgw.gat import _loss_and_grads, _evaluate_loss, _Support
from stgw.graphs import (CaseMatrix, base_laplacian, build_route_graph, laplacian,
                         normalize_cases, strong_product)
from stgw.pipeline import run_pipeline
from stgw.sgwt import (ChebyshevExpansion, cheb_apply, cheb_coeffs, exact_sgwt,
                       expand_dictionary, kernel_amplitude, make_dictionary,
                       wavelet_kernel)
from stgw.synth import AnomalyInjection, SyntheticSpec, write_dataset

from conftest import make_nodes, path_graph, random_graph, uniform_transition


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {description} "
          f"({time.perf_counter() - start:.2f}s)")


def test_criterion_01_kernel_fidelity():
    with criterion(1, "kernel fidelity at knots and peak amplitude"):
        start = time.perf_counter()
        assert wavelet_kernel(1.0) == 1.0
        assert wavelet_kernel(2.0) == 1.0
        assert wavelet_kernel(0.5) == 0.25
        assert wavelet_kernel(4.0) == 0.25
        b = kernel_amplitude()
        grid_max = wavelet_kernel(np.linspace(0.0, 10.0, 10 ** 4)).max()
        assert 1.3848 <= b <= 1.3850
        assert b >= grid_max > b - 1e-6
        assert time.perf_counter() - start < 1.0


def test_criterion_02_chebyshev_identity(rng):
    with criterion(2, "constant-kernel expansion reproduces the signal"):
        start = time.perf_counter()
        from stgw.graphs import SpatioTemporalGraph
        g = random_graph(50, 0.08, rng)
        single = SpatioTemporalGraph(weights=g.adjacency.astype(float).tocsr(),
                                     base_node_count=50, slice_count=1)
        lap = laplacian(single)
        X = rng.standard_normal(50)
        coeffs = cheb_coeffs(lambda lam: np.ones_like(lam), lap.lambda_max_estimate, 40)
        out = cheb_apply(lap, X, ChebyshevExpansion(lambda_max=lap.lambda_max_estimate,
                                                    coefficients=(coeffs,)))
        assert np.max(np.abs(out.values[:, 0] - X)) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_03_fast_vs_exact(rng):
    with criterion(3, "fast transform matches the exact one and is >= 10x faster"):
        start = time.perf_counter()
        g = random_graph(20, 0.15, rng)
        lap = laplacian(strong_product(g, uniform_transition(g), 10))
        assert lap.n == 200
        X = rng.standard_normal(200)
        X /= np.linalg.norm(X)
        d = make_dictionary(lap.lambda_max_estimate, 8)
        exact = exact_sgwt(lap, X, d).values
        errors = []
        for order in (10, 20, 40, 80):
            fast = cheb_apply(lap, X, expand_dictionary(d, order=order)).values
            errors.append(np.max(np.abs(fast - exact)))
        assert errors[2] <= 1e-3, f"K=40 deviation {errors[2]:.2e}"
        assert all(errors[i + 1] <= errors[i] for i in range(3)), errors
        assert time.perf_counter() - start < 30.0

        # timing check at a size where the dense path is still feasible
        g2 = random_graph(100, 0.05, rng)
        lap2 = laplacian(strong_product(g2, uniform_transition(g2), 20))
        X2 = rng.standard_normal(lap2.n)
        d2 = make_dictionary(lap2.lambda_max_estimate, 8)
        t0 = time.perf_counter()
        cheb_apply(lap2, X2, expand_dictionary(d2, order=40))
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        exact_sgwt(lap2, X2, d2)
        t_exact = time.perf_counter() - t0
        assert t_exact >= 10.0 * t_fast, f"ratio {t_exact / t_fast:.1f}x"


def test_criterion_04_gradient_correctness():
    with criterion(4, "analytic gradients match central finite differences"):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        g = build_route_graph(make_nodes(6),
                              [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5)])
        support = _Support.of_graph(g)
        X = rng.standard_normal((6, 7))
        model = GatModel.create(7, heads=3, head_dim=5, out_dim=4, seed=3)
        samples = make_samples(g, seed=11)
        pairs, labels = samples.subset("train")
        _, grads, _ = _loss_and_grads(model, X, support, pairs, labels)

        h = 1e-5
        params = model.parameters()
        names = ([f"layer1.weight.{k}" for k in range(3)]
                 + [f"layer1.attn.{k}" for k in range(3)]
                 + ["layer2.weight", "layer2.attn", "theta"])
        for p, analytic, name in zip(params, grads, names):
            numeric = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                up = _evaluate_loss(model, X, support, pairs, labels)
                p[idx] = orig - h
                down = _evaluate_loss(model, X, support, pairs, labels)
                p[idx] = orig
                numeric[idx] = (up - down) / (2 * h)
            rel = (np.linalg.norm(analytic - numeric)
                   / max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-300))
            assert rel < 1e-4, f"{name}: relative error {rel:.2e}"
        assert time.perf_counter() - start < 10.0


def test_criterion_05_stochasticity(rng):
    with criterion(5, "attention rows and transition powers are row-stochastic"):
        for seed in (0, 1):
            g = random_graph(9, 0.3, rng)
            X = rng.standard_normal((9, 6))
            model = GatModel.create(6, heads=2, head_dim=5, out_dim=4, seed=seed)
            samples = make_samples(g, seed=seed)
            trained, _ = train(model, g, X, samples,
                               TrainConfig(max_epochs=120, seed=seed))
            from stgw.gat import layer_forward
            X1 = layer_forward(trained.layer1, X, g)
            for layer, feats in ((trained.layer1, X), (trained.layer2, X1)):
                for A in attention_coefficients(layer, feats, g):
                    rows = np.asarray(A.sum(axis=1)).ravel()
                    assert np.max(np.abs(rows - 1.0)) <= 1e-9
            P = extract_transition(trained, g, X).P
            power = np.eye(9)
            for _ in range(5):
                power = power @ P
                assert np.max(np.abs(power.sum(axis=1) - 1.0)) <= 1e-9


def test_criterion_06_edge_classification():
    with criterion(6, "planted synthetic graph reaches test accuracy >= 0.75"):
        start = time.perf_counter()
        spec = SyntheticSpec(nodes=60, weeks=41, rho=0.9, seed=42)
        from stgw.synth import generate
        graph, raw = generate(spec)
        features = normalize_cases(raw, graph.populations, graph.node_ids)
        samples = make_samples(graph, seed=42)
        pos, neg = samples.counts("test")
        assert pos == neg  # balanced test split
        model = GatModel.create(41, heads=7, head_dim=122, out_dim=88, seed=42)
        trained, _ = train(model, graph, features, samples, TrainConfig(seed=42))
        accuracy = edge_accuracy(trained, graph, features, samples)
        assert accuracy >= 0.75, f"test accuracy {accuracy:.4f}"
        assert time.perf_counter() - start < 300.0


def test_criterion_07_strong_product_structure(rng):
    with criterion(7, "arc-count identity on 100 exhaustively enumerated instances"):
        for _ in range(100):
            n = int(rng.integers(2, 11))
            t = int(rng.integers(2, 6))
            g = random_graph(n, float(rng.uniform(0.1, 0.6)), rng)
            product = strong_product(g, uniform_transition(g), t)
            adj = g.dense_adjacency() > 0
            brute = 0
            for ti in range(t):
                for i in range(n):
                    for tj in range(t):
                        for j in range(n):
                            if ti == tj and adj[i, j]:
                                brute += 1          # spatial arc
                            elif tj == ti + 1 and (i == j or adj[i, j]):
                                brute += 1          # temporal arc
            e = len(g.edges)
            formula = t * 2 * e + (t - 1) * (n + 2 * e)
            assert product.arc_count == brute == formula


def test_criterion_08_torque_and_crafted_signal():
    with criterion(8, "flat rows give zero torque; spike and dip both reach V5"):
        rng = np.random.default_rng(0)
        flat = np.repeat(rng.standard_normal((50, 1)), 8, axis=1)
        assert np.all(torque(flat) == 0.0)

        n = 15
        g = path_graph(n)
        signal = np.full(n, 7.0)
        dip, spike = 3, 11
        signal[dip] = 1.0
        signal[spike] = 16.0
        lap = base_laplacian(g)
        d = make_dictionary(lap.lambda_max_estimate, 8)
        table = exact_sgwt(lap, signal, d)
        field = classify_nodes(torque(log_normalize(robust_scale(table))))
        assert field.labels[spike] == 5, f"spike in V{field.labels[spike]}"
        assert field.labels[dip] == 5, f"dip in V{field.labels[dip]}"
        theta = anomaly_metric(CaseMatrix(values=signal[:, None], weeks=1), g)[:, 0]
        scores = a_score(field.labels, theta)
        assert scores[spike] == 4 and scores[dip] == 0


@pytest.fixture(scope="module")
def anomaly_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("anomaly")
    spec = SyntheticSpec(nodes=24, weeks=16, rho=0.9, seed=1,
                         anomalies=[AnomalyInjection(3, 5, 8, 4.0)])
    write_dataset(spec, root / "nodes.csv", root / "edges.csv", root / "cases.csv")
    return root


def _anomaly_cfg(root, out):
    return RunConfig(gat=TrainConfig(heads=4, hidden=24, out=16, max_epochs=400, seed=1),
                     io=IoSection(nodes=str(root / "nodes.csv"), edges=str(root / "edges.csv"),
                                  cases=str(root / "cases.csv"), out=str(out)))


def test_criterion_09_anomaly_branches(anomaly_dataset, tmp_path):
    with criterion(9, "zero-neighbor branch exact; injected anomaly scores 4"):
        g = path_graph(2)
        low = anomaly_metric(CaseMatrix(values=np.array([[0.5], [0.0]]), weeks=1), g)
        high = anomaly_metric(CaseMatrix(values=np.array([[3.0], [0.0]]), weeks=1), g)
        assert low[0, 0] == 1.0 and high[0, 0] == 3.0

        cfg = _anomaly_cfg(anomaly_dataset, tmp_path / "out")
        run_pipeline(cfg)
        graph, raw = ingest(cfg.io.nodes, cfg.io.edges, cfg.io.cases)
        data = read_classes(os.path.join(cfg.io.out, "classes.csv"), graph, raw.weeks)
        injected = data["scores"][graph.index_of(3), 4:8]
        assert (injected == 4).any(), f"injected-week scores {injected.tolist()}"


def test_criterion_10_determinism(anomaly_dataset, tmp_path):
    with criterion(10, "identical seed and config give byte-identical outputs"):
        run_pipeline(_anomaly_cfg(anomaly_dataset, tmp_path / "out1"))
        run_pipeline(_anomaly_cfg(anomaly_dataset, tmp_path / "out2"))
        names1 = sorted(os.listdir(tmp_path / "out1"))
        names2 = sorted(os.listdir(tmp_path / "out2"))
        assert names1 == names2
        for name in names1:
            b1 = (tmp_path / "out1" / name).read_bytes()
            b2 = (tmp_path / "out2" / name).read_bytes()
            assert b1 == b2, f"{name} differs between runs"
