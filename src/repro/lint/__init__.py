"""``repro.lint``: the unified invariant-checking engine.

The reproduction asserts contracts in prose -- zero-cost-when-disabled
observability, complete checkpoint capture, bit-identical determinism
-- and this package is where they are *checked*.  One shared AST pass
per file feeds a registry of rules:

====  =====================================================  ==========
 id   invariant                                              heritage
====  =====================================================  ==========
 L1   hot-path tracer calls are guarded                      ported
 L2   model code imports no harness-side subsystem           ported
 L3   stateful simulator classes implement ckpt_state        ported
 D1   no bare set iteration in simulator packages            new
 D2   no wall-clock/os.environ reads inside the machine      new
 D3   hook slots: read into a local, guard, then call        new
 D4   no id()-keyed ordering of simulated objects            new
 D5   host-clock reads stay in repro.obs / repro.harness     new
 A0   allowlist entries still suppress something             engine
====  =====================================================  ==========

Deliberate violations live in ``lint_allow.toml`` with a reason per
entry; stale entries fire A0.  See ``python -m repro.lint --explain``
for each rule's full rationale, DESIGN.md ("Static guarantees") for the
owning subsystems, and ``tests/test_lint.py`` + ``tests/lint_fixtures/``
for the rules' own coverage.
"""

from repro.lint.allowlist import AllowEntry, AllowlistError, load_allowlist
from repro.lint.engine import (
    FileContext,
    LintReport,
    Rule,
    RunContext,
    STALE_RULE,
    Violation,
    repo_root,
    run_lint,
)
from repro.lint.rules import REGISTRY, RULES_BY_ID, select_rules

__all__ = [
    "AllowEntry",
    "AllowlistError",
    "FileContext",
    "LintReport",
    "REGISTRY",
    "RULES_BY_ID",
    "Rule",
    "RunContext",
    "STALE_RULE",
    "Violation",
    "load_allowlist",
    "repo_root",
    "run_lint",
    "select_rules",
]
