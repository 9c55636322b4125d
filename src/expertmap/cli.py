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


# stage -> the arguments of its own options, passed to its step in this order
OPTIONS = {"pseudopoints import": ("labels",), "extend": ("new_points",)}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stage = " ".join(filter(None, (args.command, getattr(args, "action", None))))
    try:
        cfg = pipeline.load_config(args.config, overrides=_overrides(args))
        ws = pipeline.Workspace(cfg["paths"]["out"], cfg)
        # looked up at call time, so a wrapper later bound onto the pipeline
        # module is honoured
        step = getattr(pipeline, "run_" + stage.replace(" ", "_"))
        step(ws, *(getattr(args, name) for name in OPTIONS.get(stage, ())))
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
