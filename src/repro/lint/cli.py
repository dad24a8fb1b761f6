"""``python -m repro.lint``: run the invariant registry over the tree.

Usage::

    python -m repro.lint                # every rule, and stale ALLOW entries
    python -m repro.lint --rule L1,L2   # one or more rules
    python -m repro.lint --explain D1   # why it exists, how to fix a hit
    python -m repro.lint --explain      # the whole rule table

Exit status 0 on a clean tree, 1 with one block per violation otherwise,
2 on usage errors.  ``scripts/run_tier1_matrix.sh`` runs it before the
test matrix.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.lint.engine import repo_root, run_lint
from repro.lint.rules import RULES_BY_ID, select_rules


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="static invariant checks: observability cost, "
                    "checkpoint coverage, determinism hazards")
    parser.add_argument("--rule", metavar="ID[,ID...]", default=None,
                        help="run only these rules (default: the full "
                             f"registry: {', '.join(RULES_BY_ID)})")
    parser.add_argument("--explain", metavar="ID", nargs="?", const="all",
                        default=None,
                        help="print rule id, invariant, rationale and fix "
                             "hint (one rule, or all without an argument)")
    args = parser.parse_args(argv)

    if args.explain is not None:
        try:
            chosen = select_rules(
                None if args.explain == "all" else [args.explain])
        except KeyError as exc:
            print(f"repro.lint: {exc.args[0]}", file=sys.stderr)
            return 2
        print("\n\n".join(rule.explain() for rule in chosen))
        return 0

    rules: Optional[List[str]] = None
    if args.rule is not None:
        rules = [r.strip() for r in args.rule.split(",") if r.strip()]
        if not rules:
            parser.error("--rule needs at least one rule id")
    try:
        report = run_lint(repo_root(), rules=rules)
    except KeyError as exc:
        parser.error(exc.args[0])
    print(report.format())
    return 0 if report.ok else 1
