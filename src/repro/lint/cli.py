"""``python -m repro.lint``: run the invariant registry over the tree.

Usage::

    # everything: ported contract checks (L1-L3), determinism hazards
    # (D1-D5), and allowlist staleness (A0)
    python -m repro.lint

    # one or more rules, machine-readable output
    python -m repro.lint --rule D1 --json
    python -m repro.lint --rule L1,L2

    # why a rule exists and how to fix what it flags
    python -m repro.lint --explain D1
    python -m repro.lint --explain          # the whole rule table

Exit status 0 on a clean tree, 1 with one block per violation otherwise,
2 on usage errors.  ``--json`` emits a stable payload (schema version 1)
for CI gates; ``scripts/run_tier1_matrix.sh`` runs it before the test
matrix.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.allowlist import AllowlistError
from repro.lint.engine import repo_root, run_lint
from repro.lint.rules import REGISTRY, RULES_BY_ID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="static invariant checks: observability cost, "
                    "checkpoint coverage, frozen schemas, determinism "
                    "hazards")
    parser.add_argument("--rule", metavar="ID[,ID...]", default=None,
                        help="run only these rules (default: the full "
                             f"registry: {', '.join(RULES_BY_ID)})")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable report (schema 1)")
    parser.add_argument("--explain", metavar="ID", nargs="?", const="all",
                        default=None,
                        help="print rule id, invariant, rationale and fix "
                             "hint (one rule, or all without an argument)")
    parser.add_argument("--root", metavar="PATH", default=None,
                        help="repository root to lint "
                             "(default: the tree this package lives in)")
    parser.add_argument("--allowlist", metavar="PATH", default=None,
                        help="allowlist file "
                             "(default: <root>/lint_allow.toml)")
    return parser


def cmd_explain(which: str) -> int:
    if which == "all":
        print("\n\n".join(rule.explain() for rule in REGISTRY))
        return 0
    rule = RULES_BY_ID.get(which)
    if rule is None:
        print(f"repro.lint: unknown rule {which!r}; known: "
              f"{', '.join(RULES_BY_ID)}", file=sys.stderr)
        return 2
    print(rule.explain())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    if args.explain is not None:
        return cmd_explain(args.explain)

    rules: Optional[List[str]] = None
    if args.rule is not None:
        rules = [r.strip() for r in args.rule.split(",") if r.strip()]
        if not rules:
            parser.error("--rule needs at least one rule id")
        unknown = [r for r in rules if r not in RULES_BY_ID]
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(unknown)} "
                         f"(known: {', '.join(RULES_BY_ID)})")

    root = Path(args.root).resolve() if args.root else repo_root()
    if not (root / "src").is_dir():
        parser.error(f"no src/ under {root}; pass --root at the "
                     "repository root")
    allowlist = Path(args.allowlist).resolve() if args.allowlist else None
    try:
        report = run_lint(root, rules=rules, allowlist=allowlist)
    except AllowlistError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2
    print(report.to_json() if args.json else report.format())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
