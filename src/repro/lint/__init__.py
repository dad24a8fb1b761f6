"""``repro.lint``: the invariant checks, as a table of rules.

The reproduction asserts contracts in prose -- zero-cost-when-disabled
observability, complete checkpoint capture, bit-identical determinism
-- and this package is where they are *checked*.  The table is the
registry in ``repro.lint.rules`` (``python -m repro.lint --explain``
prints it, with each rule's rationale and fix) beside ``ALLOW``, the
reasoned deliberate violations; DESIGN.md ("Static guarantees") names
the owning subsystems, and ``tests/test_lint.py`` runs the registry over
the live tree and over ``tests/lint_fixtures/``, a package of known-bad
code.
"""
