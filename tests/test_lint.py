"""Tests for the invariant-lint subsystem (repro.lint).

Three layers:

* the engine and registry over fixture mini-packages with seeded
  violations (``tests/lint_fixtures/badtree``) -- every rule fires at
  its expected line, and every sanctioned nearby pattern does not;
* allow mechanics -- suppression, staleness (A0), blank reasons;
* the CLI contract (--rule/--explain, exit codes) and the live-tree
  guarantee: the real repository lints clean, which is what the tier-1
  gate in scripts/run_tier1_matrix.sh enforces.
"""

from pathlib import Path

import pytest

from repro.lint.cli import main as lint_main
from repro.lint.engine import STALE_RULE, Violation, repo_root, run_lint
from repro.lint.rules import (
    ALLOW,
    AMBIENT_SLOTS,
    REGISTRY,
    RULES_BY_ID,
    BanRule,
    select_rules,
)

pytestmark = pytest.mark.lint

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
BADTREE = FIXTURES / "badtree"

#: One live suppression and one stale entry (nothing in the badtree
#: fixture matches it -> A0).
STALE_ALLOW = {
    "D1:repro.memsys.hazards.HazardSoup.invalidate":
        "exercises suppression in tests",
    "L3:repro.mem.leaky.LongGoneClass": "this class no longer exists",
}

#: Every violation seeded into the fixture tree: rule -> {basename: lines}.
SEEDED = {
    "L1": {"kernel.py": [6]},
    "L2": {"leaky.py": [3, 4, 5, 6, 50]},
    "L3": {"leaky.py": [10, 39], "hazards.py": [16]},
    "D1": {"hazards.py": [22, 29]},
    "D2": {"hazards.py": [33, 34, 49, 53]},
    "D3": {"hazards.py": [38], "hostclock.py": [17]},
    "D4": {"hazards.py": [46]},
    "D5": {"hostclock.py": [11, 14]},
}
SEEDED_TOTAL = sum(len(lines) for files in SEEDED.values()
                   for lines in files.values())


def badtree_report(rules=None, allow=None):
    # The fixture tree is parsed, never imported; the live tree's ALLOW
    # is not its allow mapping.
    return run_lint(BADTREE, rules=rules, allow=allow or {})


def lines_of(report, rule, basename):
    return sorted(v.line for v in report.violations
                  if v.rule == rule and v.path.endswith(basename))


class TestRegistry:
    def test_rule_ids_are_unique_and_expected(self):
        ids = [rule.id for rule in REGISTRY]
        assert len(ids) == len(set(ids))
        assert set(ids) == {"L1", "L2", "L3",
                            "D1", "D2", "D3", "D4", "D5"}

    def test_every_rule_carries_its_documentation(self):
        for rule in REGISTRY:
            assert rule.title, rule.id
            assert rule.rationale, rule.id
            assert rule.hint, rule.id
            assert rule.subsystem, rule.id
            assert rule.id in rule.explain()

    def test_select_rules(self):
        assert select_rules(None) == list(REGISTRY)
        assert [r.id for r in select_rules(["D1", "L3"])] == ["D1", "L3"]
        with pytest.raises(KeyError, match="Z9"):
            select_rules(["Z9"])


class TestSeededViolations:
    @pytest.fixture(scope="class")
    def report(self):
        return badtree_report()

    @pytest.mark.parametrize(
        "rule,basename,lines",
        [(rule, basename, lines)
         for rule, files in sorted(SEEDED.items())
         for basename, lines in sorted(files.items())])
    def test_rule_fires_at_seeded_lines(self, report, rule, basename,
                                        lines):
        assert lines_of(report, rule, basename) == lines

    def test_no_violations_beyond_the_seeded_ones(self, report):
        # Any extra hit would be a false positive on one of the
        # deliberately-sanctioned patterns sitting next to each seed
        # (guarded tracer call, hooks/gate imports, ckpt_state classes,
        # sorted() wrappers, frozenset/sum consumers, hoisted slot read).
        assert len(report.violations) == SEEDED_TOTAL
        assert set(v.rule for v in report.violations) == set(SEEDED)

    def test_violations_are_sorted_and_structured(self, report):
        keys = [(v.path, v.line, v.rule) for v in report.violations]
        assert keys == sorted(keys)
        for violation in report.violations:
            assert violation.qualname.startswith("repro.")
            assert violation.message
            assert violation.hint
            assert violation.key == f"{violation.rule}:{violation.qualname}"

    def test_single_rule_run_sees_only_that_rule(self):
        report = badtree_report(rules=["D1"])
        assert report.rules == ["D1"]
        assert {v.rule for v in report.violations} == {"D1"}
        assert lines_of(report, "D1", "hazards.py") == [22, 29]

    def test_l3_names_the_missing_half(self, report):
        # A class that can be captured and not restored fails later,
        # inside Machine.ckpt_restore; L3 catches it here.
        by_line = {v.line: v.message for v in report.violations
                   if v.rule == "L3" and v.path.endswith("leaky.py")}
        assert "implements no ckpt_restore" in by_line[39]
        assert "implements no ckpt_state and no ckpt_restore" in by_line[10]

    def test_every_ban_row_is_exercised(self, report):
        # A row nobody tests cannot be added: each row of each ban table
        # has a seeded hit naming one of its dotted names.
        tables = [rule for rule in REGISTRY if isinstance(rule, BanRule)]
        assert [rule.id for rule in tables] == ["L2", "D2", "D3", "D5"]
        for rule in tables:
            messages = [v.message for v in report.violations
                        if v.rule == rule.id]
            for ban in rule.bans:
                assert any(message.startswith(name)
                           for message in messages
                           for name in ban.names), (rule.id, ban.names)

    def test_an_uncalled_banned_reference_is_a_reference(self, tmp_path):
        # `f = time.time` reads the wall clock as surely as `time.time()`.
        path = tmp_path / "src" / "repro" / "mem" / "clock.py"
        path.parent.mkdir(parents=True)
        path.write_text("import time\nnow = time.time\n")
        report = run_lint(tmp_path, rules=["D2"], allow={})
        assert [(v.rule, v.line) for v in report.violations] == [("D2", 2)]

    def test_rule_state_does_not_leak_between_runs(self, report):
        # L3 and D1 keep cross-file registries; each run must start empty.
        again = badtree_report()
        assert again == report
        assert badtree_report(rules=["L3", "D1"]).violations == [
            v for v in report.violations if v.rule in ("L3", "D1")]


class TestAllowlist:
    def test_suppression_and_staleness(self):
        report = badtree_report(allow=STALE_ALLOW)
        # The D1 entry suppresses hazards.py:22 (and only that line).
        assert lines_of(report, "D1", "hazards.py") == [29]
        assert [v.line for v in report.suppressed] == [22]
        assert report.suppressed[0].key == \
            "D1:repro.memsys.hazards.HazardSoup.invalidate"
        # The entry for the long-gone class suppresses nothing -> A0.
        stale = [v for v in report.violations if v.rule == STALE_RULE]
        assert len(stale) == 1
        assert stale[0].qualname == "L3:repro.mem.leaky.LongGoneClass"
        assert len(report.violations) == SEEDED_TOTAL  # -1 suppressed, +1 A0

    def test_partial_runs_do_not_judge_staleness(self):
        # A --rule D1 run cannot tell a stale entry from one whose rule
        # simply did not run, so A0 only fires on full-registry runs.
        report = badtree_report(rules=["D1"], allow=STALE_ALLOW)
        assert not any(v.rule == STALE_RULE for v in report.violations)
        assert [v.line for v in report.suppressed] == [22]

    def test_blank_reason_raises(self):
        # An allowlist without reasons decays into a mute button.
        with pytest.raises(ValueError, match="reason"):
            badtree_report(allow={"D1:repro.memsys.hazards": "  "})

    def test_bare_module_suppresses_the_whole_file(self):
        report = badtree_report(
            rules=["D1"], allow={"D1:repro.memsys.hazards": "fixture"})
        assert report.ok
        assert [v.line for v in report.suppressed] == [22, 29]


class TestJsonSchema:
    # The JSON codec is gone; the class and test names are the ones the
    # surviving format() assertions have always run under.
    def test_violation_round_trip(self):
        violation = Violation(rule="D1", path="src/repro/x.py", line=3,
                              qualname="repro.x.f", message="m", hint="h")
        assert "src/repro/x.py:3" in violation.format()
        assert "[D1]" in violation.format()
        assert "fix: h" in violation.format()


class TestCli:
    def run(self, capsys, *argv):
        code = lint_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_rule_d1_json_catches_the_seeded_hazard(self):
        # Once `--root BADTREE --rule D1 --json`; the human format is the
        # only one now, and a fixture tree is linted through run_lint.
        out = badtree_report(rules=["D1"]).format()
        assert "hazards.py:22: [D1]" in out
        assert "hazards.py:29: [D1]" in out
        assert "2 violation(s) across 1 rule(s)" in out

    def test_human_output_carries_location_and_fix(self):
        out = badtree_report(rules=["L1"]).format()
        assert "kernel.py:6" in out
        assert "fix:" in out
        assert "1 violation(s) across 1 rule(s)" in out

    def test_live_tree_run_exits_0(self, capsys):
        code, out, _err = self.run(capsys)
        assert code == 0
        assert out.startswith("ok:")
        assert "8 rules" in out

    def test_unknown_rule_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            self.run(capsys, "--rule", "Z9")
        assert excinfo.value.code == 2

    def test_explain_one_and_all(self, capsys):
        code, out, _err = self.run(capsys, "--explain", "D1")
        assert code == 0
        assert "D1" in out and "rationale" in out
        code, out, _err = self.run(capsys, "--explain")
        assert code == 0
        for rule in REGISTRY:
            assert f"{rule.id}: {rule.title}" in out

    def test_explain_unknown_rule_exits_2(self, capsys):
        code, _out, err = self.run(capsys, "--explain", "Z9")
        assert code == 2
        assert "unknown rule" in err


class TestLiveTree:
    def test_the_repository_lints_clean(self):
        # The full registry: the same run the tier-1 matrix gates on.
        report = run_lint(repo_root())
        assert report.ok, report.format()
        assert report.files_scanned > 0
        # Every ALLOW entry is live (else A0 would have fired) and today
        # they are all deliberate L3 non-Checkpointables, one class each.
        assert len(report.suppressed) == len(ALLOW) == 4
        assert {v.rule for v in report.suppressed} == {"L3"}

    def test_no_ambient_slot_beyond_the_table(self):
        # An ambient slot is a module-level `active` rebound by an
        # installer (`global active`).  The lint rules cover exactly the
        # slots in AMBIENT_SLOTS, so a new one must be added there (and
        # argued for) before it can exist.
        import ast

        src = repo_root() / "src"
        slots = set()
        for path in sorted((src / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text())
            defines = any(
                isinstance(node, (ast.Assign, ast.AnnAssign))
                and any(isinstance(t, ast.Name) and t.id == "active"
                        for t in (node.targets if isinstance(node, ast.Assign)
                                  else [node.target]))
                for node in tree.body)
            installs = any(isinstance(node, ast.Global)
                           and "active" in node.names
                           for node in ast.walk(tree))
            if defines and installs:
                module = path.relative_to(src).with_suffix("")
                slots.add(".".join(module.parts))
        assert slots == set(AMBIENT_SLOTS)
        (row,) = RULES_BY_ID["D3"].bans
        assert set(row.names) == {f"{m}.active" for m in slots}
