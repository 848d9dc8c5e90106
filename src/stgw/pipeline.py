"""Stage orchestration: each stage writes its own interface files.

A full run shares one `StageResults` across its stages, so results pass in
memory and no file it writes is parsed back; a staged command starts with an
empty holder and reads the CSV interfaces, so any stage replays in isolation
with the same output bytes.  Every file is written atomically, and a failed
run clears the pipeline's output files before the error propagates: no stale
mix remains.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import classify as cl
from . import dataio, gat, report, sgwt
from .config import RunConfig
from .errors import StgwError, ValidationError
from .graphs import (CaseMatrix, RouteGraph, TransitionMatrix, downsample_mask, laplacian,
                     normalize_cases, strong_product)

MANIFEST_NAME = "run-manifest.txt"


@dataclass
class StageResults:
    """Results of the stages run so far in one invocation; None until made."""

    transition: TransitionMatrix | None = None
    coefficients: sgwt.CoefficientTable | None = None
    classes: dict | None = None     # (N, T) grids, keyed as dataio.read_classes
    slices: tuple | None = None     # (sigma, slice_classes)
    rankings: dict | None = None    # keyed as dataio.read_rankings


def _out(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.io.out, name)


def _ensure_out(cfg: RunConfig) -> None:
    dataio.ensure_dir(cfg.io.out)


def _manifest(cfg: RunConfig, section: str, values: dict) -> str:
    path = _out(cfg, MANIFEST_NAME)
    dataio.update_manifest(path, section, values)
    return path


def load_inputs(cfg: RunConfig) -> tuple[RouteGraph, CaseMatrix, CaseMatrix]:
    """Ingest and validate the three input files; returns (graph, raw, per-thousand)."""
    graph, raw = dataio.ingest(cfg.io.nodes, cfg.io.edges, cfg.io.cases)
    features = normalize_cases(raw, graph.populations, graph.node_ids)
    return graph, raw, features


def stage_build_graph(cfg: RunConfig) -> dict:
    """Validation pass; returns summary counts (writes nothing)."""
    graph, raw, _ = load_inputs(cfg)
    return {
        "nodes": graph.n,
        "edges": len(graph.edges),
        "weeks": raw.weeks,
        "isolated": list(graph.isolated_ids),
    }


def stage_train(cfg: RunConfig, results: StageResults | None = None) -> list[str]:
    """Train the attention network; writes transition.csv and the checkpoint."""
    _ensure_out(cfg)
    results = results or StageResults()
    graph, _, features = load_inputs(cfg)
    samples = gat.make_samples(graph, seed=cfg.gat.seed)
    model = gat.GatModel.create(feature_dim=features.weeks, heads=cfg.gat.heads,
                                head_dim=cfg.gat.hidden, out_dim=cfg.gat.out,
                                seed=cfg.gat.seed)
    trained, history = gat.train(model, graph, features, samples, cfg.gat)
    transition = results.transition = gat.extract_transition(trained, graph, features)

    transition_path = _out(cfg, "transition.csv")
    ckpt_path = _out(cfg, "gat_model.ckpt")
    dataio.write_transition(transition_path, graph, transition)
    dataio.save_checkpoint(ckpt_path, trained)
    manifest = _manifest(cfg, "gat", {
        **cfg.resolved()["gat"],
        "epochs_run": len(history["train_loss"]),
        "best_epoch": history["best_epoch"],
        "best_val_loss": dataio.fnum(history["val_loss"][history["best_epoch"]]),
        "test_accuracy": dataio.fnum(
            gat.edge_accuracy(trained, graph, features, samples)),
    })
    return [transition_path, ckpt_path, manifest]


def stage_product(cfg: RunConfig) -> dict:
    """Diagnostic: build the product graph and report its arc structure."""
    graph, raw, _ = load_inputs(cfg)
    transition = dataio.read_transition(_out(cfg, "transition.csv"), graph)
    product = strong_product(graph, transition, raw.weeks)
    e, n, t = len(graph.edges), graph.n, raw.weeks
    return {
        "vertices": product.node_count,
        "arcs": product.arc_count,
        "expected_arcs": t * 2 * e + (t - 1) * (n + 2 * e),
    }


def stage_transform(cfg: RunConfig, results: StageResults | None = None) -> list[str]:
    """Strong product -> Laplacian -> dictionary -> fast transform -> coefficients.csv."""
    _ensure_out(cfg)
    results = results or StageResults()
    graph, raw, features = load_inputs(cfg)
    transition = results.transition or dataio.read_transition(_out(cfg, "transition.csv"), graph)
    product = strong_product(graph, transition, raw.weeks)
    lap = laplacian(product)
    dictionary = sgwt.make_dictionary(
        lap.lambda_max_estimate,
        filters=cfg.sgwt.filters,
        scale_lo=cfg.sgwt.scale_lo,
        scale_hi=cfg.sgwt.scale_hi,
    )
    expansion = sgwt.expand_dictionary(dictionary, order=cfg.sgwt.cheb_order,
                                       quad_points=cfg.sgwt.quad_points)
    table = results.coefficients = sgwt.cheb_apply(lap, features.vertex_signal(), expansion)

    coeff_path = _out(cfg, "coefficients.csv")
    dataio.write_coefficients(coeff_path, graph, raw.weeks, table)
    manifest = _manifest(cfg, "sgwt", {
        **cfg.resolved()["sgwt"],
        "lambda_max": dataio.fnum(lap.lambda_max_estimate),
        "lambda_method": lap.lambda_method,
        "lambda_matvecs": lap.lambda_matvecs,
        "lambda_residual": dataio.fnum(lap.lambda_residual),
        "scales": " ".join(dataio.fnum(s) for s in dictionary.scales),
        "weeks": raw.weeks,
        "vertices": product.node_count,
        "arcs": product.arc_count,
    })
    _manifest(cfg, "inputs", {
        "nodes_hash": dataio.content_hash(cfg.io.nodes),
        "edges_hash": dataio.content_hash(cfg.io.edges),
        "cases_hash": dataio.content_hash(cfg.io.cases),
    })
    return [coeff_path, manifest]


def stage_classify(cfg: RunConfig, results: StageResults | None = None) -> list[str]:
    """Coefficients -> torque classes, anomaly metric, a-scores, slice classes."""
    _ensure_out(cfg)
    results = results or StageResults()
    graph, raw, features = load_inputs(cfg)
    table = results.coefficients or dataio.read_coefficients(
        _out(cfg, "coefficients.csv"), graph, raw.weeks, cfg.sgwt.filters)
    normalized = cl.log_normalize(cl.robust_scale(table))
    field = cl.classify_nodes(cl.torque(normalized))
    n, t = graph.n, raw.weeks
    sigma, slice_classes = results.slices = cl.slice_classification(field.labels, n, t)
    theta = cl.anomaly_metric(features, graph)
    labels = cl.label_grid(field.labels, n, t)
    scores = cl.a_score(labels, theta, cfg.classify.theta_hi, cfg.classify.theta_lo)
    phi = cl.label_grid(field.phi, n, t)
    results.classes = {"phi": phi, "labels": labels, "theta": theta, "scores": scores}

    classes_path = _out(cfg, "classes.csv")
    slices_path = _out(cfg, "slices.csv")
    dataio.write_classes(classes_path, graph, t, phi, labels, theta, scores)
    dataio.write_slices(slices_path, sigma, slice_classes)
    manifest = _manifest(cfg, "classify", {
        **cfg.resolved()["classify"],
        "phi_min": dataio.fnum(field.phi_min),
        "phi_max": dataio.fnum(field.phi_max),
    })
    return [classes_path, slices_path, manifest]


def stage_rank(cfg: RunConfig, weeks: tuple[int, int] | None = None,
               results: StageResults | None = None) -> list[str]:
    """Average a-scores over the window plus influential scores -> rankings.csv."""
    _ensure_out(cfg)
    results = results or StageResults()
    graph, raw, _ = load_inputs(cfg)
    data = results.classes or dataio.read_classes(_out(cfg, "classes.csv"), graph, raw.weeks)
    transition = results.transition or dataio.read_transition(_out(cfg, "transition.csv"), graph)
    a_bar = cl.average_a_score(data["scores"], weeks)
    influential = gat.influential_scores(transition)
    least, most = cl.rank_nodes(a_bar)
    results.rankings = dict(a_bar=a_bar, influential=influential, least=least, most=most)

    rankings_path = _out(cfg, "rankings.csv")
    dataio.write_rankings(rankings_path, graph, a_bar, influential, least, most)
    lo, hi = weeks if weeks is not None else (1, raw.weeks)
    manifest = _manifest(cfg, "rank", {"week_lo": lo, "week_hi": hi})
    return [rankings_path, manifest]


def stage_report(cfg: RunConfig, mask: bool = False, week: int | None = None,
                 results: StageResults | None = None) -> list[str]:
    """Render the SVG bundle from the classification and ranking results."""
    _ensure_out(cfg)
    results = results or StageResults()
    graph, raw, _ = load_inputs(cfg)
    data = results.classes or dataio.read_classes(_out(cfg, "classes.csv"), graph, raw.weeks)
    sigma, slice_classes = results.slices or dataio.read_slices(_out(cfg, "slices.csv"))
    ranking = results.rankings or dataio.read_rankings(_out(cfg, "rankings.csv"), graph)

    if week is None:
        # deterministic default: the week with the most top-grade anomalies
        per_week = (data["scores"] == 4).sum(axis=0)
        week = int(np.argmax(per_week)) + 1
    if not 1 <= week <= raw.weeks:
        raise ValidationError(f"report week {week} outside 1..{raw.weeks}")
    hidden = downsample_mask(graph) if mask else set()

    svgs = {f"map_classes_week{week}.svg":
            report.render_map(graph, data["labels"][:, week - 1], week, hidden),
            "slices.svg": report.render_slices(sigma, slice_classes),
            "ranking.svg": report.render_ranking(graph, ranking["a_bar"], ranking["least"],
                                                 ranking["most"])}
    written = [_out(cfg, name) for name in svgs]
    for path, svg in zip(written, svgs.values()):
        dataio.write_text(path, svg)
    written.append(_manifest(cfg, "report", {"week": week, "mask": mask, "top_k": report.TOP_K}))
    return written


_OUTPUT_NAMES = ("transition.csv", "gat_model.ckpt", "coefficients.csv",
                 "classes.csv", "slices.csv", "rankings.csv", "slices.svg",
                 "ranking.svg", MANIFEST_NAME)


def _remove_outputs(cfg: RunConfig) -> None:
    """Drop every pipeline artifact, and every temporary file left for one by a killed
    writer, so a failed run leaves no stale mix."""
    if not os.path.isdir(cfg.io.out):
        return
    for name in os.listdir(cfg.io.out):
        target = dataio.replaced_name(name)
        if target in _OUTPUT_NAMES or (target.startswith("map_classes_week")
                                       and target.endswith(".svg")):
            os.remove(os.path.join(cfg.io.out, name))


def run_pipeline(cfg: RunConfig, weeks: tuple[int, int] | None = None,
                 mask: bool = False, week: int | None = None) -> list[str]:
    """Full run: train -> transform -> classify -> rank -> report.

    The stages share one `StageResults`, so each result passes in memory.
    Any stage failure removes the pipeline's output files and re-raises with
    the stage name attached.
    """
    _ensure_out(cfg)
    written: list[str] = []
    results = StageResults()
    stages = [
        ("train", lambda: stage_train(cfg, results)),
        ("transform", lambda: stage_transform(cfg, results)),
        ("classify", lambda: stage_classify(cfg, results)),
        ("rank", lambda: stage_rank(cfg, weeks, results)),
        ("report", lambda: stage_report(cfg, mask, week, results)),
    ]
    for name, fn in stages:
        try:
            written.extend(fn())
        except Exception as exc:
            _remove_outputs(cfg)
            if isinstance(exc, StgwError):
                exc.args = (f"stage {name}: {exc}",)
                raise
            raise StgwError(f"stage {name}: {exc}") from exc
    return written
