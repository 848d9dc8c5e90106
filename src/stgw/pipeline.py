"""Stage orchestration: pure stage functions, and edges that do the file I/O.

`train`, `transform`, `classify`, `rank` and `render` take the `Inputs`, their
upstream results and their config section or flags, if any, and return their
result and its manifest facts without touching a file.  The facts are plain values; the
manifest writer formats them, a float as its shortest round-trip repr.  Each
`stage_*` edge reads the inputs, takes the upstream result as an argument or
else reads its CSV, writes its files atomically, and returns their paths, its
result and its manifest sections, which `write_manifest` merges over the resolved
config in one write per command.  A staged command thus
replays any stage with the same output bytes as a full run, which parses
nothing back; a full run clears the pipeline's output files before its first
stage and again if a stage fails, so no stale mix remains.
"""

from __future__ import annotations

import fnmatch
import os
from typing import NamedTuple

import numpy as np

from . import classify as cl
from . import dataio, gat, report, sgwt
from .config import RunConfig, SgwtSection
from .errors import StgwError, ValidationError
from .graphs import (CaseMatrix, RouteGraph, TransitionMatrix, downsample_mask, laplacian,
                     normalize_cases, raise_first, strong_product)

MANIFEST_NAME = "run-manifest.txt"


class Inputs(NamedTuple):
    """The validated inputs: the graph and its per-thousand counts."""
    graph: RouteGraph
    features: CaseMatrix


def _out(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.io.out, name)


def _check_weeks(weeks: tuple[int, int] | None = None, week: int | None = None,
                 t: int | None = None) -> None:
    """Reject a ranking window or report week outside 1..t; with t unknown, before any
    input is read, reject one that is reversed or starts before week 1."""
    if weeks is not None:
        cl.check_window(*weeks, t)
    if week is not None:
        cl.check_window(week, week, t)


def write_manifest(cfg: RunConfig, sections: dict[str, dict]) -> str:
    """Merge each section's facts, over its resolved config if it has one, into the
    manifest in one write; returns the manifest's path."""
    path, resolved = _out(cfg, MANIFEST_NAME), cfg.resolved()
    dataio.update_manifest(path, {name: {**resolved.get(name, {}), **facts}
                                  for name, facts in sections.items()})
    return path


def load_inputs(cfg: RunConfig, weeks: tuple[int, int] | None = None,
                week: int | None = None) -> Inputs:
    """Ingest and validate the three input files; the series must span T >= 2 weeks, and
    hold the ranking window `weeks` and report week `week` when given."""
    _check_weeks(weeks, week)
    graph, raw = dataio.ingest(cfg.io.nodes, cfg.io.edges, cfg.io.cases)
    if raw.weeks < 2:
        raise ValidationError(f"{cfg.io.cases}: needs at least 2 weeks, got {raw.weeks}")
    _check_weeks(weeks, week, raw.weeks)
    return Inputs(graph, normalize_cases(raw, graph.populations, graph.node_ids))


def train(inputs: Inputs,
          config: gat.TrainConfig) -> tuple[TransitionMatrix, gat.GatModel, dict]:
    """Train the attention network; returns P, the trained model and the run facts."""
    graph, features = inputs
    samples = gat.make_samples(graph, seed=config.seed)
    # created in the call, so that training is left the only reference to the initial model
    trained, history = gat.train(
        gat.GatModel.create(feature_dim=features.weeks, heads=config.heads,
                            head_dim=config.hidden, out_dim=config.out, seed=config.seed),
        graph, features, samples, config)
    return gat.extract_transition(trained, graph, features), trained, {
        "epochs_run": len(history["train_loss"]),
        "best_epoch": history["best_epoch"],
        "best_val_loss": float(history["val_loss"][history["best_epoch"]]),
        "test_accuracy": float(gat.edge_accuracy(trained, graph, features, samples)),
    }


def transform(inputs: Inputs, transition: TransitionMatrix,
              config: SgwtSection) -> tuple[sgwt.CoefficientTable, dict]:
    """Strong product -> Laplacian -> dictionary -> fast transform -> coefficients."""
    graph, features = inputs
    product = strong_product(graph, transition, features.weeks)
    lap = laplacian(product)
    dictionary = sgwt.make_dictionary(lap.lambda_max_estimate, filters=config.filters)
    expansion = sgwt.expand_dictionary(dictionary, order=config.cheb_order)
    return sgwt.cheb_apply(lap, features.vertex_signal(), expansion), {
        "cheb_error_bounds": " ".join(map(repr, expansion.error_bounds.tolist())),
        "lambda_max": float(lap.lambda_max_estimate),
        "lambda_method": lap.lambda_method,
        "lambda_matvecs": lap.lambda_matvecs,
        "lambda_residual": float(lap.lambda_residual),
        "scales": " ".join(map(repr, dictionary.scales.tolist())),
        "weeks": features.weeks,
        "vertices": product.node_count,
        "arcs": product.arc_count,
    }


def classify(inputs: Inputs, table: sgwt.CoefficientTable) -> tuple[dict, tuple, dict]:
    """Coefficients -> torque classes, anomaly metric, a-scores, slice classes; returns
    the (N, T) grids phi, labels, theta and scores, (sigma, slice_classes) and facts."""
    graph, features = inputs
    n, t = graph.n, features.weeks
    field = cl.classify_nodes(cl.torque(cl.LogNormalized(table)))
    slices = cl.slice_classification(field.labels, n, t)
    theta = cl.anomaly_metric(features, graph)
    labels = cl.label_grid(field.labels, n, t)
    scores = cl.a_score(labels, theta)
    classes = {"phi": cl.label_grid(field.phi, n, t), "labels": labels, "theta": theta,
               "scores": scores}
    return classes, slices, {"phi_min": float(field.phi_min), "phi_max": float(field.phi_max)}


def rank(inputs: Inputs, scores: np.ndarray, transition: TransitionMatrix,
         weeks: tuple[int, int] | None = None) -> tuple[dict, dict]:
    """Average a-scores over the window plus influential scores; returns the rankings
    a_bar, influential, least and most, and the window."""
    a_bar = cl.average_a_score(scores, weeks)
    least, most = cl.rank_nodes(a_bar)
    rankings = dict(a_bar=a_bar, influential=gat.influential_scores(transition),
                    least=least, most=most)
    lo, hi = weeks if weeks is not None else (1, inputs.features.weeks)
    return rankings, {"week_lo": lo, "week_hi": hi}


def render(inputs: Inputs, classes: dict, slices: tuple, rankings: dict, mask: bool = False,
           week: int | None = None) -> tuple[dict[str, str], dict]:
    """The SVG bundle keyed by file name, and the report facts."""
    graph, features = inputs
    if week is None:
        # deterministic default: the week with the most top-grade anomalies
        week = int(np.argmax((classes["scores"] == 4).sum(axis=0))) + 1
    cl.check_window(week, week, features.weeks)
    hidden = downsample_mask(graph) if mask else set()
    svgs = {f"map_classes_week{week}.svg":
            report.render_map(graph, classes["labels"][:, week - 1], week, hidden),
            "slices.svg": report.render_slices(*slices),
            "ranking.svg": report.render_ranking(graph, rankings["a_bar"], rankings["least"],
                                                 rankings["most"])}
    return svgs, {"week": week, "mask": mask, "top_k": report.TOP_K}


def stage_train(cfg: RunConfig, weeks: tuple[int, int] | None = None,
                week: int | None = None) -> tuple[list[str], TransitionMatrix, dict]:
    """Train; write transition.csv and the checkpoint. Returns the paths, P and sections.

    `weeks` and `week` are a full run's ranking window and report week: checked here
    against T, so a run that cannot finish stops before training."""
    inputs = load_inputs(cfg, weeks, week)
    dataio.ensure_dir(cfg.io.out)
    transition, trained, facts = train(inputs, cfg.gat)
    transition_path, ckpt_path = _out(cfg, "transition.csv"), _out(cfg, "gat_model.ckpt")
    dataio.write_transition(transition_path, inputs.graph, transition)
    dataio.save_checkpoint(ckpt_path, trained)
    return [transition_path, ckpt_path], transition, {"gat": facts}


def stage_product(cfg: RunConfig) -> dict:
    """Diagnostic: build the product graph and report its arc structure."""
    graph, features = load_inputs(cfg)
    transition = dataio.read_transition(_out(cfg, "transition.csv"), graph)
    product = strong_product(graph, transition, features.weeks)
    e, n, t = len(graph.edges), graph.n, features.weeks
    return {
        "vertices": product.node_count,
        "arcs": product.arc_count,
        "expected_arcs": t * 2 * e + (t - 1) * (n + 2 * e),
    }


def stage_transform(cfg: RunConfig, transition: TransitionMatrix | None = None
                    ) -> tuple[list[str], sgwt.CoefficientTable, dict]:
    """Transform P (else transition.csv); write coefficients.csv."""
    inputs = graph, _ = load_inputs(cfg)
    dataio.ensure_dir(cfg.io.out)
    transition = transition or dataio.read_transition(_out(cfg, "transition.csv"), graph)
    table, facts = transform(inputs, transition, cfg.sgwt)
    coeff_path = _out(cfg, "coefficients.csv")
    dataio.write_coefficients(coeff_path, graph, table)
    hashes = {f"{name}_hash": dataio.content_hash(getattr(cfg.io, name))
              for name in ("nodes", "edges", "cases")}
    return [coeff_path], table, {"sgwt": facts, "inputs": hashes}


def stage_classify(cfg: RunConfig, table: sgwt.CoefficientTable | None = None
                   ) -> tuple[list[str], tuple[dict, tuple], dict]:
    """Classify the coefficients (else coefficients.csv); write classes.csv, slices.csv."""
    inputs = graph, features = load_inputs(cfg)
    dataio.ensure_dir(cfg.io.out)
    table = table or dataio.read_coefficients(_out(cfg, "coefficients.csv"), graph,
                                              features.weeks, cfg.sgwt.filters)
    classes, slices, facts = classify(inputs, table)
    classes_path, slices_path = _out(cfg, "classes.csv"), _out(cfg, "slices.csv")
    dataio.write_classes(classes_path, graph, **classes)
    dataio.write_slices(slices_path, *slices)
    return [classes_path, slices_path], (classes, slices), {"classify": facts}


def stage_rank(cfg: RunConfig, weeks: tuple[int, int] | None = None,
               classes: dict | None = None, transition: TransitionMatrix | None = None
               ) -> tuple[list[str], dict, dict]:
    """Rank from the classes and P (else their CSVs); write rankings.csv."""
    inputs = graph, _ = load_inputs(cfg, weeks)
    dataio.ensure_dir(cfg.io.out)
    classes = classes or _read_classes(cfg, inputs)
    transition = transition or dataio.read_transition(_out(cfg, "transition.csv"), graph)
    rankings, facts = rank(inputs, classes["scores"], transition, weeks)
    rankings_path = _out(cfg, "rankings.csv")
    dataio.write_rankings(rankings_path, graph, **rankings)
    return [rankings_path], rankings, {"rank": facts}


def _read_classes(cfg: RunConfig, inputs: Inputs) -> dict:
    """classes.csv, whose a_scores must follow the paper's thresholds, whose
    classes must be the torque quintiles that `classify.classify_nodes` gives, and whose
    thetas must be the `classify.anomaly_metric` of the cases."""
    path, (graph, features) = _out(cfg, "classes.csv"), inputs
    classes = dataio.read_classes(path, graph, features.weeks)
    phi, labels, theta = classes["phi"], classes["labels"], classes["theta"]
    lo, hi = phi.min(), phi.max()
    expected = cl.quintile_labels(phi, lo, hi)
    dataio.reject_cells(path, classes["lines"], labels != expected, lambda i, w: (
        f"class V{labels[i, w]} does not match torque {dataio.fnum(phi[i, w])} in the "
        f"quintiles of [{dataio.fnum(lo)}, {dataio.fnum(hi)}] (expected V{expected[i, w]})"))
    metric = cl.anomaly_metric(features, graph)
    dataio.reject_cells(path, classes["lines"], theta != metric, lambda i, w: (
        f"theta {dataio.fnum(theta[i, w])} does not match the anomaly metric of the "
        f"cases (expected {dataio.fnum(metric[i, w])})"))
    return classes


def _read_slices(path: str, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`read_slices(path)`, which checks that the rows run from week 1 in order; they
    must end at week T of the (N, T) class `labels`, and be the `classify.
    slice_classification` of those labels: the sigma columns first, then slice_class."""
    n, t = labels.shape
    sigma, classes = dataio.read_slices(path)
    if len(sigma) < t:
        raise ValidationError(f"{path}: missing week {len(sigma) + 1} of 1..{t}")
    if len(sigma) > t:
        raise ValidationError(f"{path}: line {t + 2}: week {t + 1} outside 1..{t}")
    want_sigma, want_classes = cl.slice_classification(labels.T.ravel(), n, t)
    if (sigma != want_sigma).any():
        k, j = np.argwhere(sigma != want_sigma)[0]  # the first in row-major order
        raise ValidationError(f"{path}: line {k + 2}: sigma{j + 1} {dataio.fnum(sigma[k, j])} "
                              f"does not match the class shares of the week "
                              f"(expected {dataio.fnum(want_sigma[k, j])})")
    raise_first(classes != want_classes, lambda k: f"{path}: line {k + 2}: slice_class "
                f"V{classes[k]} does not match the sigma columns (expected V{want_classes[k]})")
    return sigma, classes


def _read_rankings(cfg: RunConfig, graph: RouteGraph, scores: np.ndarray) -> dict:
    """rankings.csv, whose a_bar must be the mean of `scores` over the manifest's [rank]
    window, in ASCII decimal digits."""
    path = _out(cfg, MANIFEST_NAME)
    window = dataio.read_manifest(path).get("rank", {})
    lo, hi = window.get("week_lo", ""), window.get("week_hi", "")
    if not all(v.isascii() and v.isdigit() for v in (lo, hi)):
        raise ValidationError(f"{path}: no [rank] week_lo and week_hi to average a_bar over")
    try:
        a_bar = cl.average_a_score(scores, (int(lo), int(hi)))
    except ValidationError as exc:
        raise ValidationError(f"{path}: [rank] {exc}") from None
    return dataio.read_rankings(_out(cfg, "rankings.csv"), graph, a_bar=a_bar)


def stage_report(cfg: RunConfig, mask: bool = False, week: int | None = None,
                 classes: dict | None = None, slices: tuple | None = None,
                 rankings: dict | None = None) -> tuple[list[str], dict[str, str], dict]:
    """Render the classes, slices and rankings (else their CSVs); write the SVGs."""
    inputs = graph, _ = load_inputs(cfg, week=week)
    dataio.ensure_dir(cfg.io.out)
    classes = classes or _read_classes(cfg, inputs)
    slices = slices or _read_slices(_out(cfg, "slices.csv"), classes["labels"])
    rankings = rankings or _read_rankings(cfg, graph, classes["scores"])
    svgs, facts = render(inputs, classes, slices, rankings, mask, week)
    written = [_out(cfg, name) for name in svgs]
    for path, svg in zip(written, svgs.values()):
        dataio.write_text(path, svg)
    return written, svgs, {"report": facts}


_OUTPUT_NAMES = ("transition.csv", "gat_model.ckpt", "coefficients.csv",
                 "classes.csv", "slices.csv", "rankings.csv", "slices.svg",
                 "ranking.svg", "map_classes_week*.svg", MANIFEST_NAME)


def _remove_outputs(cfg: RunConfig) -> None:
    """Drop every pipeline artifact, and every temporary file left for one by a killed
    writer, so a full run, failed or not, leaves no stale mix."""
    dataio.remove_files(cfg.io.out, lambda name: any(
        fnmatch.fnmatchcase(dataio.replaced_name(name), output) for output in _OUTPUT_NAMES))


def run_pipeline(cfg: RunConfig, weeks: tuple[int, int] | None = None,
                 mask: bool = False, week: int | None = None) -> list[str]:
    """Full run: train -> transform -> classify -> rank -> report.

    Each stage's result is handed to the next stage as an argument, and the report
    stage ends with the run's one manifest write, of every stage's sections.  The run
    replaces the whole output set: the pipeline's output files are removed before
    the first stage, and again if a stage fails, which re-raises with the stage name
    attached.  A week window or report week that no series can hold fails before
    anything is removed, and one that this series cannot hold before training.
    """
    _check_weeks(weeks, week)
    _remove_outputs(cfg)
    written: list[str] = []
    sections: dict[str, dict] = {}

    def run(name, stage, *args):
        try:
            paths, result, stage_sections = stage(cfg, *args)
            sections.update(stage_sections)
            if name == "report":  # the last stage
                paths.append(write_manifest(cfg, sections))
        except Exception as exc:
            _remove_outputs(cfg)
            if isinstance(exc, StgwError):
                exc.args = (f"stage {name}: {exc}",)
                raise
            raise StgwError(f"stage {name}: {exc}") from exc
        written.extend(paths)
        return result

    transition = run("train", stage_train, weeks, week)
    table = run("transform", stage_transform, transition)
    classes, slices = run("classify", stage_classify, table)
    rankings = run("rank", stage_rank, weeks, classes, transition)
    run("report", stage_report, mask, week, classes, slices, rankings)
    return written
