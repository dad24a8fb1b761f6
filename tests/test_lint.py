"""Tests for the invariant-lint subsystem (repro.lint).

Three layers:

* the engine and registry over fixture mini-packages with seeded
  violations (``tests/lint_fixtures/badtree``) -- every rule fires at
  its expected line, and every sanctioned nearby pattern does not;
* allowlist mechanics -- suppression, staleness (A0), parse errors;
* the CLI contract (--rule/--json/--explain, exit codes) and the
  live-tree guarantee: the real repository lints clean, which is what
  the tier-1 gate in scripts/run_tier1_matrix.sh enforces.
"""

import json
from pathlib import Path

import pytest

from repro.lint.allowlist import AllowlistError, load_allowlist
from repro.lint.cli import main as lint_main
from repro.lint.engine import (
    JSON_SCHEMA_VERSION,
    STALE_RULE,
    LintReport,
    Violation,
    repo_root,
    run_lint,
)
from repro.lint.rules import (
    AMBIENT_SLOTS,
    REGISTRY,
    RULES_BY_ID,
    select_rules,
)

pytestmark = pytest.mark.lint

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
BADTREE = FIXTURES / "badtree"
STALE_ALLOW = FIXTURES / "stale_allow.toml"

#: Every violation seeded into the fixture tree: rule -> {basename: lines}.
SEEDED = {
    "L1": {"kernel.py": [6]},
    "L2": {"leaky.py": [3, 4, 5, 6]},
    "L3": {"leaky.py": [10], "hazards.py": [16]},
    "D1": {"hazards.py": [22, 29]},
    "D2": {"hazards.py": [33, 34]},
    "D3": {"hazards.py": [38], "hostclock.py": [17]},
    "D4": {"hazards.py": [46]},
    "D5": {"hostclock.py": [11, 14]},
}
SEEDED_TOTAL = sum(len(lines) for files in SEEDED.values()
                   for lines in files.values())


def badtree_report(rules=None, allowlist=None):
    # The fixture tree is parsed, never imported.
    return run_lint(BADTREE, rules=rules, allowlist=allowlist)


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


class TestAllowlist:
    def test_suppression_and_staleness(self):
        report = badtree_report(allowlist=STALE_ALLOW)
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
        report = badtree_report(rules=["D1"], allowlist=STALE_ALLOW)
        assert not any(v.rule == STALE_RULE for v in report.violations)
        assert [v.line for v in report.suppressed] == [22]

    def test_load_allowlist_parses_entries(self):
        entries = load_allowlist(STALE_ALLOW)
        assert [e.key for e in entries] == [
            "D1:repro.memsys.hazards.HazardSoup.invalidate",
            "L3:repro.mem.leaky.LongGoneClass",
        ]
        assert all(e.reason for e in entries)
        assert all(e.line > 0 for e in entries)

    @pytest.mark.parametrize("body,match", [
        ('[allow]\n"D1:a.b" = ""\n', "reason"),
        ('[allow]\n"D1:a.b" = "x"\n"D1:a.b" = "y"\n', "duplicate"),
        ('[surprise]\n"D1:a.b" = "x"\n', "section"),
        ('[allow]\n"no-rule-prefix" = "x"\n', "rule-id:qualname"),
    ])
    def test_load_allowlist_rejects(self, tmp_path, body, match):
        path = tmp_path / "allow.toml"
        path.write_text(body)
        with pytest.raises(AllowlistError, match=match):
            load_allowlist(path)


class TestJsonSchema:
    def test_report_round_trips_through_json(self):
        report = badtree_report()
        payload = json.loads(report.to_json())
        assert payload["schema"] == JSON_SCHEMA_VERSION
        assert payload["ok"] is False
        back = LintReport.from_dict(payload)
        assert back.violations == report.violations
        assert back.suppressed == report.suppressed
        assert back.files_scanned == report.files_scanned
        assert back.rules == report.rules

    def test_unknown_schema_version_is_rejected(self):
        payload = badtree_report().to_dict()
        payload["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            LintReport.from_dict(payload)

    def test_violation_round_trip(self):
        violation = Violation(rule="D1", path="src/repro/x.py", line=3,
                              qualname="repro.x.f", message="m", hint="h")
        assert Violation.from_dict(violation.to_dict()) == violation
        assert "src/repro/x.py:3" in violation.format()
        assert "[D1]" in violation.format()


class TestCli:
    def run(self, capsys, *argv):
        code = lint_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_rule_d1_json_catches_the_seeded_hazard(self, capsys):
        code, out, _err = self.run(
            capsys, "--root", str(BADTREE), "--rule", "D1", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["rules"] == ["D1"]
        assert sorted(v["line"] for v in payload["violations"]) == [22, 29]
        assert all(v["rule"] == "D1" for v in payload["violations"])

    def test_human_output_carries_location_and_fix(self, capsys):
        code, out, _err = self.run(
            capsys, "--root", str(BADTREE), "--rule", "L1")
        assert code == 1
        assert "kernel.py:6" in out
        assert "fix:" in out

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
        # Every allowlist entry is live (else A0 would have fired) and
        # today they are all deliberate L3 non-Checkpointables.
        assert report.suppressed
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
        assert RULES_BY_ID["D3"].SLOTS == {f"{m}.active" for m in slots}
