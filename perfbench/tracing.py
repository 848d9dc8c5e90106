"""Spans and counters around the public functions of each stgw module.

The program is not changed: each function is replaced, for the length of one
timed section, by a wrapper on the module object where its caller looks it up.
`stgw.pipeline` binds `laplacian`, `strong_product`, `normalize_cases` and
`downsample_mask` by name when it is imported, so those four are wrapped on
`stgw.pipeline`; every other call goes through a module attribute
(`dataio.`, `gat.`, `sgwt.`, `cl.` for classify, `report.`) and is wrapped on
that module.  Spans (name, start, end, parent) and counters stay in memory and
are turned into the per-layer metrics when the section ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass

STAGES = ("train", "transform", "classify", "rank", "report")

# artifact -> (dataio writer, dataio reader); the checkpoint is never read back
ARTIFACTS = {
    "transition": ("write_transition", "read_transition"),
    "checkpoint": ("save_checkpoint", None),
    "coefficients": ("write_coefficients", "read_coefficients"),
    "classes": ("write_classes", "read_classes"),
    "slices": ("write_slices", "read_slices"),
    "rankings": ("write_rankings", "read_rankings"),
}

# per-layer time metrics that sum several wrapped functions
GROUPS = {
    "classify.torque_s": ("classify.robust_scale", "classify.log_normalize",
                          "classify.torque", "classify.classify_nodes"),
    "classify.anomaly_s": ("classify.anomaly_metric", "classify.a_score"),
    "classify.slices_s": ("classify.slice_classification",),
    "classify.rank_s": ("classify.average_a_score", "classify.rank_nodes"),
    "report.render_s": ("report.render_map", "report.render_slices",
                        "report.render_ranking"),
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the top
    warnings: int       # warnings raised while the span was open

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters for one timed section.

    `caught` is the list that `warnings.catch_warnings(record=True)` fills, so
    each span can count the warnings raised inside it.
    """

    def __init__(self, caught: list):
        self.caught = caught
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            seen = len(self.caught)
            self.spans.append(None)  # reserve the slot so spans stay in start order
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = Span(name, start, end, parent, len(self.caught) - seen)
            if after is not None:
                after(self, result, args)
            return result
        return traced

    def seconds(self, *names) -> float:
        return sum(s.seconds for s in self.spans if s is not None and s.name in names)

    def calls(self, name) -> int:
        return sum(1 for s in self.spans if s is not None and s.name == name)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced section that took `wall_s` seconds."""
        out = {}
        epochs = self.counts["gat.epochs"]
        train_s = self.seconds("gat.train")
        out["gat.train_s"] = train_s
        out["gat.epochs"] = epochs
        out["gat.ms_per_epoch"] = 1000.0 * train_s / epochs if epochs else 0.0
        for fn in ("make_samples", "extract_transition", "edge_accuracy",
                   "influential_scores"):
            out[f"gat.{fn}_s"] = self.seconds(f"gat.{fn}")

        out["dataio.ingest_s"] = self.seconds("dataio.ingest")
        out["dataio.ingest_calls"] = self.calls("dataio.ingest")
        for artifact, (_, reader) in ARTIFACTS.items():
            out[f"dataio.write_{artifact}_s"] = self.seconds(f"dataio.write_{artifact}")
            if reader is not None:
                out[f"dataio.read_{artifact}_s"] = self.seconds(f"dataio.read_{artifact}")
            out[f"dataio.{artifact}_bytes"] = self.counts[f"dataio.{artifact}_bytes"]
        out["dataio.manifest_s"] = self.seconds("dataio.manifest")

        out["graphs.strong_product_s"] = self.seconds("graphs.strong_product")
        out["graphs.laplacian_s"] = self.seconds("graphs.laplacian")
        out["graphs.product_arcs"] = self.counts["graphs.product_arcs"]
        out["graphs.lambda_fallbacks"] = self.counts["graphs.lambda_fallbacks"]

        out["sgwt.expand_dictionary_s"] = self.seconds("sgwt.expand_dictionary")
        out["sgwt.cheb_apply_s"] = self.seconds("sgwt.cheb_apply")
        out["sgwt.cheb_matvecs"] = self.counts["sgwt.cheb_matvecs"]

        for metric, names in GROUPS.items():
            out[metric] = self.seconds(*names)

        covered = 0.0
        for stage in STAGES:
            spans = [s for s in self.spans if s is not None
                     and s.name == f"pipeline.stage_{stage}"]
            out[f"pipeline.stage_{stage}_s"] = sum(s.seconds for s in spans)
            out[f"pipeline.stage_{stage}_warnings"] = sum(s.warnings for s in spans)
            covered += out[f"pipeline.stage_{stage}_s"]
        out["pipeline.warnings"] = len(self.caught)
        out["pipeline.covered_frac"] = covered / wall_s
        return out

    def records(self) -> list[dict]:
        """Spans as plain dicts, times relative to the first span's start."""
        spans = [s for s in self.spans if s is not None]
        origin = spans[0].start if spans else 0.0
        return [{"name": s.name, "start": s.start - origin, "end": s.end - origin,
                 "parent": s.parent, "warnings": s.warnings} for s in spans]


def _file_bytes(artifact):
    def after(tracer, result, args):
        tracer.counts[f"dataio.{artifact}_bytes"] = os.path.getsize(args[0])
    return after


def _epochs(tracer, result, args):
    tracer.counts["gat.epochs"] += len(result[1]["train_loss"])


def _arcs(tracer, result, args):
    tracer.counts["graphs.product_arcs"] = result.arc_count


def _fallbacks(tracer, result, args):
    tracer.counts["graphs.lambda_fallbacks"] += not result.converged


def _counted_cheb_apply(tracer, sgwt, original):
    """cheb_apply with an `OpCounter` passed through its public argument."""
    def cheb_apply(L, X, expansion, op_counter=None):
        counter = op_counter or sgwt.OpCounter()
        before = counter.matvecs
        table = original(L, X, expansion, counter)
        tracer.counts["sgwt.cheb_matvecs"] += counter.matvecs - before
        return table
    return cheb_apply


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced function for the duration of the block, then restore."""
    from stgw import classify, dataio, gat, pipeline, report, sgwt

    targets = [(pipeline, f"stage_{s}", f"pipeline.stage_{s}", None) for s in STAGES]
    targets += [
        (pipeline, "strong_product", "graphs.strong_product", _arcs),
        (pipeline, "laplacian", "graphs.laplacian", _fallbacks),
        (pipeline, "normalize_cases", "graphs.normalize_cases", None),
        (pipeline, "downsample_mask", "graphs.downsample_mask", None),
        (dataio, "ingest", "dataio.ingest", None),
        (dataio, "update_manifest", "dataio.manifest", None),
        (gat, "make_samples", "gat.make_samples", None),
        (gat, "train", "gat.train", _epochs),
        (gat, "extract_transition", "gat.extract_transition", None),
        (gat, "edge_accuracy", "gat.edge_accuracy", None),
        (gat, "influential_scores", "gat.influential_scores", None),
        (sgwt, "make_dictionary", "sgwt.make_dictionary", None),
        (sgwt, "expand_dictionary", "sgwt.expand_dictionary", None),
    ]
    for artifact, (writer, reader) in ARTIFACTS.items():
        targets.append((dataio, writer, f"dataio.write_{artifact}", _file_bytes(artifact)))
        if reader is not None:
            targets.append((dataio, reader, f"dataio.read_{artifact}", _file_bytes(artifact)))
    for names in GROUPS.values():
        for name in names:
            module_name, attr = name.split(".")
            targets.append(({"classify": classify, "report": report}[module_name],
                            attr, name, None))

    patched = []
    try:
        for module, attr, name, after in targets:
            original = getattr(module, attr)
            patched.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, after))
        original = sgwt.cheb_apply
        patched.append((sgwt, "cheb_apply", original))
        sgwt.cheb_apply = tracer.wrap("sgwt.cheb_apply",
                                      _counted_cheb_apply(tracer, sgwt, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)

