"""Command-line driver: stgw <command> [--config ...] [flags]."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import pipeline
from .config import load_config
from .errors import StgwError, ValidationError
from .synth import AnomalyInjection, SyntheticSpec, write_dataset


def _parse_weeks(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise ValidationError(f"bad --weeks value {text!r}; expected a..b")


def _parse_anomaly(text: str) -> AnomalyInjection:
    try:
        node, lo, hi, mult = text.split(":")
        return AnomalyInjection(int(node), int(lo), int(hi), float(mult))
    except ValueError:
        raise ValidationError(f"bad --anomaly value {text!r}; expected node:lo:hi:mult")
    except ValidationError as exc:
        raise ValidationError(f"bad --anomaly value {text!r}: {exc}")


def _load(args) -> "pipeline.RunConfig":
    cfg = load_config(args.config)
    if args.out is not None:
        cfg.io = replace(cfg.io, out=args.out)
    if args.seed is not None:
        cfg.gat = replace(cfg.gat, seed=args.seed)
    return cfg


def run_stage(cfg: "pipeline.RunConfig", stage, *args) -> list[str]:
    """A staged command: run the stage edge, then merge its sections into the manifest."""
    paths, _, sections = stage(cfg, *args)
    return paths + [pipeline.write_manifest(cfg, sections)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stgw",
        description="Spatio-temporal graph wavelet pipeline: train, transform, classify, rank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file")
    common.add_argument("--out", help="output directory (overrides config)")
    common.add_argument("--seed", type=int, help="seed override")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--weeks", help="ranking window a..b (1-based, inclusive)")
    view = argparse.ArgumentParser(add_help=False)
    view.add_argument("--mask", action=argparse.BooleanOptionalAction, default=False,
                      help="hide downsampled nodes in the map")
    view.add_argument("--week", type=int, help="week for the class map")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="directory for nodes/edges/cases.csv")
    spec = SyntheticSpec()
    p.add_argument("--nodes", type=int, default=spec.nodes)
    p.add_argument("--weeks", type=int, default=spec.weeks)
    p.add_argument("--rho", type=float, default=spec.rho)
    p.add_argument("--seed", type=int, default=spec.seed)
    p.add_argument("--mode", choices=["geometric", "density"], default=spec.mode)
    p.add_argument("--knn", type=int, default=spec.knn)
    p.add_argument("--density", type=float, default=spec.density)
    p.add_argument("--anomaly", action="append", default=[],
                   metavar="NODE:LO:HI:MULT", help="inject an anomaly (repeatable)")

    for name, parents, text in (
            ("build-graph", [], "validate inputs and print a summary"),
            ("train", [], "train the attention network"),
            ("product", [], "build the product graph and print stats"),
            ("transform", [], "wavelet-transform the case signal"),
            ("classify", [], "torque classes and anomaly scores"),
            ("rank", [window], "rank cities by averaged a-score"),
            ("report", [view], "render the SVG bundle"),
            ("run", [window, view], "full pipeline")):
        sub.add_parser(name, parents=[common, *parents], help=text)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            spec = SyntheticSpec(
                nodes=args.nodes, weeks=args.weeks, rho=args.rho, seed=args.seed,
                mode=args.mode, knn=args.knn, density=args.density,
                anomalies=[_parse_anomaly(a) for a in args.anomaly],
            )
            graph, cases = write_dataset(
                spec,
                os.path.join(args.out, "nodes.csv"),
                os.path.join(args.out, "edges.csv"),
                os.path.join(args.out, "cases.csv"),
            )
            print(f"synth: {graph.n} nodes, {len(graph.edges)} edges, {cases.weeks} weeks "
                  f"-> {args.out}")
            return 0

        cfg = _load(args)
        writers = {
            "train": lambda: run_stage(cfg, pipeline.stage_train),
            "transform": lambda: run_stage(cfg, pipeline.stage_transform),
            "classify": lambda: run_stage(cfg, pipeline.stage_classify),
            "rank": lambda: run_stage(cfg, pipeline.stage_rank, _parse_weeks(args.weeks)),
            "report": lambda: run_stage(cfg, pipeline.stage_report, args.mask, args.week),
            "run": lambda: pipeline.run_pipeline(cfg, _parse_weeks(args.weeks), args.mask,
                                                 args.week),
        }
        if args.command == "build-graph":
            graph, features = pipeline.load_inputs(cfg)
            print(f"graph: {graph.n} nodes, {len(graph.edges)} edges, {features.weeks} weeks")
            if graph.isolated_ids:
                print(f"warning: {len(graph.isolated_ids)} isolated nodes: "
                      f"{list(graph.isolated_ids)}")
        elif args.command == "product":
            info = pipeline.stage_product(cfg)
            ok = "ok" if info["arcs"] == info["expected_arcs"] else "MISMATCH"
            print(f"product: {info['vertices']} vertices, {info['arcs']} arcs "
                  f"(identity {info['expected_arcs']}: {ok})")
        else:
            for path in writers[args.command]():
                print(f"wrote {path}")
        return 0
    except StgwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
