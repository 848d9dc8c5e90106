"""Command-line driver: stgw <command> [--config ...] [flags]."""

from __future__ import annotations

import argparse
import os
import sys

from . import dataio, pipeline
from .config import load_config
from .errors import StgwError, ValidationError
from .synth import AnomalyInjection, SyntheticSpec, write_dataset


def _parse_weeks(text: str) -> tuple[int, int]:
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


def _load(args) -> "pipeline.RunConfig":
    cfg = load_config(args.config)
    if args.out is not None:
        cfg.io.out = args.out
    if getattr(args, "seed", None) is not None:
        cfg.gat.seed = args.seed
    return cfg.validate()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stgw",
        description="Spatio-temporal graph wavelet pipeline: train, transform, classify, rank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", help="INI or JSON config file")
        p.add_argument("--out", help="output directory (overrides config)")
        if seed:
            p.add_argument("--seed", type=int, help="seed override")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="directory for nodes/edges/cases.csv")
    p.add_argument("--nodes", type=int, default=60)
    p.add_argument("--weeks", type=int, default=41)
    p.add_argument("--rho", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--mode", choices=["geometric", "density"], default="geometric")
    p.add_argument("--knn", type=int, default=5)
    p.add_argument("--density", type=float, default=0.08)
    p.add_argument("--anomaly", action="append", default=[],
                   metavar="NODE:LO:HI:MULT", help="inject an anomaly (repeatable)")

    common(sub.add_parser("build-graph", help="validate inputs and print a summary"))
    common(sub.add_parser("train", help="train the attention network"))
    common(sub.add_parser("product", help="build the product graph and print stats"))
    common(sub.add_parser("transform", help="wavelet-transform the case signal"))
    common(sub.add_parser("classify", help="torque classes and anomaly scores"))

    p = sub.add_parser("rank", help="rank cities by averaged a-score")
    common(p)
    p.add_argument("--weeks", help="ranking window a..b (1-based, inclusive)")

    p = sub.add_parser("report", help="render the SVG bundle")
    common(p)
    p.add_argument("--mask", action=argparse.BooleanOptionalAction, default=False,
                   help="hide downsampled nodes in the map")
    p.add_argument("--week", type=int, help="week for the class map")

    p = sub.add_parser("run", help="full pipeline")
    common(p)
    p.add_argument("--weeks", help="ranking window a..b (1-based, inclusive)")
    p.add_argument("--mask", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--week", type=int, help="week for the class map")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            dataio.ensure_dir(args.out)
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
        if args.command == "build-graph":
            info = pipeline.stage_build_graph(cfg)
            print(f"graph: {info['nodes']} nodes, {info['edges']} edges, "
                  f"{info['weeks']} weeks")
            if info["isolated"]:
                print(f"warning: {len(info['isolated'])} isolated nodes: "
                      f"{info['isolated']}")
        elif args.command == "train":
            for path in pipeline.stage_train(cfg):
                print(f"wrote {path}")
        elif args.command == "product":
            info = pipeline.stage_product(cfg)
            ok = "ok" if info["arcs"] == info["expected_arcs"] else "MISMATCH"
            print(f"product: {info['vertices']} vertices, {info['arcs']} arcs "
                  f"(identity {info['expected_arcs']}: {ok})")
        elif args.command == "transform":
            for path in pipeline.stage_transform(cfg):
                print(f"wrote {path}")
        elif args.command == "classify":
            for path in pipeline.stage_classify(cfg):
                print(f"wrote {path}")
        elif args.command == "rank":
            window = _parse_weeks(args.weeks) if args.weeks else None
            for path in pipeline.stage_rank(cfg, window):
                print(f"wrote {path}")
        elif args.command == "report":
            for path in pipeline.stage_report(cfg, mask=args.mask, week=args.week):
                print(f"wrote {path}")
        elif args.command == "run":
            window = _parse_weeks(args.weeks) if args.weeks else None
            for path in pipeline.run_pipeline(cfg, weeks=window, mask=args.mask,
                                              week=args.week):
                print(f"wrote {path}")
        return 0
    except StgwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
