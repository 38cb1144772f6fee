"""Command-line front end.

Verbs mirror the experiments: fig2 | fig3 | fig4 | design | detect. Inputs
come from an optional flat key=value config file plus overriding flags;
outputs are CSV tables with a JSON metadata sidecar sufficient to regenerate
them byte for byte. Nothing here touches the network or reads environment
variables.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .detect import DETECTION_COLUMNS
from .errors import CollabDesignError, ConfigError
from .experiments import (
    run_detect,
    run_fig2,
    run_fig3,
    run_fig4,
    run_single_design,
)
from .model import Penalty
from .persist import metadata_record, write_csv, write_json, write_matrix_csv
from .runconfig import RunConfig, _parse_int_list, build_config, load_config

_TABLE_RUNNERS = {"fig2": run_fig2, "fig3": run_fig3, "fig4": run_fig4, "detect": run_detect}

def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    parser.add_argument("--out", metavar="DIR", help="output directory (default: out)")
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, help="single RNG seed")
    seeds.add_argument("--seeds", metavar="LIST", help="seed list, e.g. 0,1,2 or 0..49")
    parser.add_argument("--penalty", choices=["l0", "l1", "none"], help="sparsity penalty")
    parser.add_argument("--gamma", type=float, help="fixed per-row penalty weight")
    parser.add_argument(
        "--target-deactivation",
        type=float,
        dest="target_deactivation",
        help="calibrate gamma to this deactivated-link fraction",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument(
        "--signals",
        metavar="PATH",
        help="headerless CSV of signals (one per row) instead of a generated class",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collabdesign",
        description="Collaboration-matrix design and experiment reproduction.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="verb", required=True)
    for verb, blurb in (
        ("design", "compute one collaboration matrix and its metrics"),
        ("fig2", "C-DC versus number of combining rows, all methods"),
        ("fig3", "cost of universality versus class size"),
        ("fig4", "deactivation/performance trade-off curves"),
        ("detect", "closed-form and Monte-Carlo detection power"),
    ):
        sub = subparsers.add_parser(verb, help=blurb)
        _add_common_flags(sub)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = load_config(args.config) if args.config else {}
    seeds = None
    if args.seeds is not None:
        seeds = _parse_int_list(args.seeds, "seeds")
    elif args.seed is not None:
        seeds = (args.seed,)
    overrides = {
        "output_dir": args.out,
        "seeds": seeds,
        "penalty": Penalty(args.penalty) if args.penalty else None,
        "gamma": args.gamma,
        "target_deactivation": args.target_deactivation,
        "signals": args.signals,
    }
    return build_config(args.verb, file_values, **overrides)


def _emit(path: Path, quiet: bool) -> None:
    if not quiet:
        print(f"wrote {path}")


def _run_table_verb(config: RunConfig, quiet: bool) -> None:
    table = _TABLE_RUNNERS[config.experiment](config)
    out = Path(config.output_dir)
    _emit(write_csv(out / f"{config.experiment}.csv", table.columns, table.rows), quiet)
    meta = metadata_record(config.as_dict(), __version__, table.summary)
    _emit(write_json(out / f"{config.experiment}.metadata.json", meta), quiet)


def _run_design_verb(config: RunConfig, quiet: bool) -> None:
    artifacts = run_single_design(config)
    out = Path(config.output_dir)
    _emit(write_matrix_csv(out / "design_w.csv", artifacts["W"]), quiet)
    _emit(write_json(out / "design_metrics.json", artifacts["metrics"]), quiet)
    rows = artifacts["detection_rows"]
    if rows is not None:
        _emit(write_csv(out / "design_detection.csv", DETECTION_COLUMNS, rows), quiet)
    meta = metadata_record(config.as_dict(), __version__, artifacts["summary"])
    _emit(write_json(out / "design.metadata.json", meta), quiet)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if config.experiment == "design":
            _run_design_verb(config, args.quiet)
        else:
            _run_table_verb(config, args.quiet)
    except (ConfigError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except (CollabDesignError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
