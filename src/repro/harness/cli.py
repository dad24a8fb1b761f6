"""``python -m repro.harness``: the experiment CLI, farm-enabled.

The historical surface (``[experiment|all] [--scale NAME] [--markdown
PATH]``) is unchanged; the farm adds::

    --jobs N       fan simulation batches out over N worker processes
    --no-cache     disable the content-addressed result cache
    --cache-dir P  cache location (default $REPRO_CACHE_DIR or
                   ~/.cache/repro/farm)

the closing-the-loop reporting adds::

    --dashboard D  render dashboard.html + dashboard.md into directory D
    --ledger P     append a metrics-ledger record per farm-dispatched run
                   (default <D>/ledger.jsonl when --dashboard is given)

Results are identical whichever combination is used: requests execute in
deterministic per-request-seeded isolation and are collected in order, and
cache entries are keyed by the full canonicalized request plus the package
source fingerprint (see DESIGN.md, "The experiment farm").
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.common.config import SCALES, get_scale
from repro.harness.experiments import experiment_ids, run_experiment
from repro.harness.farm import Farm, ResultCache, default_cache_dir
from repro.harness.runner import (
    run_all,
    summarize,
    write_dashboard,
    write_experiments_md,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.harness",
        description="regenerate the paper's tables and figures")
    parser.add_argument("experiment", nargs="?", default="all",
                        help=f"one of {', '.join(experiment_ids())}, or 'all'")
    parser.add_argument("--scale", default="repro",
                        help="machine scale (paper, repro, tiny)")
    parser.add_argument("--markdown", metavar="PATH", default=None,
                        help="also write EXPERIMENTS.md-style output to PATH")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for simulation batches "
                             "(default 1: serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always re-simulate; skip the result cache")
    parser.add_argument("--cache-dir", metavar="PATH", default=None,
                        help=f"result-cache directory "
                             f"(default {default_cache_dir()})")
    parser.add_argument("--dashboard", metavar="DIR", default=None,
                        help="write dashboard.html + dashboard.md into DIR")
    parser.add_argument("--ledger", metavar="PATH", default=None,
                        help="metrics-ledger file to append run records to "
                             "(default DIR/ledger.jsonl with --dashboard)")
    return parser


def validate_args(parser: argparse.ArgumentParser,
                  args: argparse.Namespace) -> None:
    """Reject nonsensical combinations before any simulation starts."""
    if args.experiment != "all" and args.experiment not in experiment_ids():
        parser.error(f"unknown experiment {args.experiment!r}; known: "
                     f"{', '.join(experiment_ids())}, or 'all'")
    if args.scale not in SCALES:
        parser.error(f"unknown scale {args.scale!r}; known: "
                     f"{', '.join(sorted(SCALES))}")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs} "
                     "(1 means serial; N fans batches over N workers)")
    if args.cache_dir is not None:
        # A typo would otherwise surface only at the first write, after
        # the simulation it was meant to save.
        parent = os.path.dirname(os.path.abspath(args.cache_dir))
        if not os.path.isdir(parent):
            parser.error(
                f"--cache-dir parent directory does not exist: {parent} "
                "(create it first, or point --cache-dir somewhere that "
                "exists)")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit status."""
    from repro.obs.metrics import MetricsWriter

    parser = build_parser()
    args = parser.parse_args(argv)
    validate_args(parser, args)
    scale = get_scale(args.scale)

    ledger_path = args.ledger
    if ledger_path is None and args.dashboard is not None:
        ledger_path = os.path.join(args.dashboard, "ledger.jsonl")
    farm = Farm(jobs=args.jobs,
                cache=None if args.no_cache else ResultCache(args.cache_dir),
                metrics=(MetricsWriter(ledger_path)
                         if ledger_path is not None else None))

    with farm.activate():
        if args.experiment == "all":
            results = run_all(scale)
            print(summarize(results))
        else:
            results = [run_experiment(args.experiment, scale)]
            print(results[0].format())
    print(farm.summary())
    if args.markdown:
        write_experiments_md(results, args.markdown)
        print(f"wrote {args.markdown}")
    if args.dashboard:
        html_path, md_path = write_dashboard(results, args.dashboard,
                                             ledger_path)
        print(f"wrote {html_path} and {md_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - python -m repro.harness.cli
    sys.exit(main())
