"""Command-line entry point: one subcommand per pipeline stage.

Exit codes: 0 success, 1 validation error (bad input or stale artifact),
2 internal error.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .errors import ExpertMapError, InternalError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expertmap",
        description="Expert-label-driven metric learning and whitened "
                    "diffusion embeddings")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory (overrides paths.out)")
    parser.add_argument("--seed", type=int,
                        help="overrides net.master_seed and synth.seed")
    parser.add_argument("--level", type=int, help="overrides pseudopoints.level")
    parser.add_argument("--k-nets", type=int, dest="k_nets", help="overrides net.k")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synth", help="generate the synthetic dataset")
    sub.add_parser("preprocess", help="standardize, depolarize, weight, select reference")
    sub.add_parser("organize", help="build coupled partition trees and affinity")

    ps = sub.add_parser("pseudopoints", help="export centroids / import scores")
    ps.add_argument("action", choices=["export", "import", "auto"])
    ps.add_argument("--labels", help="filled label CSV (import)")

    sub.add_parser("train", help="train the net ensemble on propagated labels")
    sub.add_parser("embed", help="diffusion embedding of the ensemble kernel")
    sub.add_parser("standardize", help="locally whitened (standardized) embedding")

    ext = sub.add_parser("extend", help="extend embeddings and ranking to new points")
    ext.add_argument("--new-points", required=True, dest="new_points",
                     help="CSV of new points in the original feature schema")

    sub.add_parser("validate", help="run the internal validation battery")
    sub.add_parser("report", help="emit the per-point plot-data join")
    return parser


def _overrides(args) -> dict:
    over = {}
    if args.out is not None:
        over["paths.out"] = args.out
    if args.seed is not None:
        over["net.master_seed"] = args.seed
        over["synth.seed"] = args.seed
    if args.level is not None:
        over["pseudopoints.level"] = args.level
    if args.k_nets is not None:
        over["net.k"] = args.k_nets
    return over


# (command, action) -> step.  The lambdas look pipeline functions up at call
# time, so a wrapper later bound onto the pipeline module is honoured.
COMMANDS = {
    ("synth", None): lambda ws, args: pipeline.run_synth(ws),
    ("preprocess", None): lambda ws, args: pipeline.run_preprocess(ws),
    ("organize", None): lambda ws, args: pipeline.run_organize(ws),
    ("pseudopoints", "export"): lambda ws, args: pipeline.run_pseudopoints_export(ws),
    ("pseudopoints", "import"):
        lambda ws, args: pipeline.run_pseudopoints_import(ws, labels_path=args.labels),
    ("pseudopoints", "auto"): lambda ws, args: pipeline.run_pseudopoints_auto(ws),
    ("train", None): lambda ws, args: pipeline.run_train(ws),
    ("embed", None): lambda ws, args: pipeline.run_embed(ws),
    ("standardize", None): lambda ws, args: pipeline.run_standardize(ws),
    ("extend", None): lambda ws, args: pipeline.run_extend(ws, args.new_points),
    ("validate", None): lambda ws, args: pipeline.run_validate(ws),
    ("report", None): lambda ws, args: pipeline.run_report(ws),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = pipeline.load_config(args.config, overrides=_overrides(args))
        ws = pipeline.Workspace(cfg["paths"]["out"], cfg)
        COMMANDS[args.command, getattr(args, "action", None)](ws, args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except ExpertMapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:      # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
