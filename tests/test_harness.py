"""Harness tests: registry, findings, cheap experiments, markdown output."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro.common.config import REPRO_SCALE, TINY_SCALE
from repro.common.errors import ConfigurationError
from repro.harness import (
    DEFAULT_ORDER,
    experiment_ids,
    run_experiment,
    summarize,
    write_experiments_md,
)
from repro.harness.findings import ExperimentResult, Finding


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = set(experiment_ids())
        for required in ("table1", "table2", "table3",
                         "fig1", "fig2", "fig3", "fig4",
                         "fig5", "fig6", "fig7",
                         "tlb_blocking", "instr_latency", "bugs",
                         "tuning_loop", "tlb_microbench"):
            assert required in ids

    def test_default_order_covers_registry(self):
        assert set(DEFAULT_ORDER) == set(experiment_ids())

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")


class TestCheapExperiments:
    def test_table1_runs_and_passes(self):
        result = run_experiment("table1", REPRO_SCALE)
        assert result.all_ok
        assert "Table 1" in result.rendered
        assert result.scale_name == "repro"

    def test_table1_repro_column_reads_the_model(self, monkeypatch):
        # The repro column is derived from the hardware configuration, not
        # typed beside it: change the DRAM access and the row follows.
        from repro.harness import experiments
        from repro.sim.configs import hardware_config

        hw = hardware_config()
        slow = hw.derive(memsys=dataclasses.replace(hw.memsys,
                                                    dram_ps=175_000))
        monkeypatch.setattr(experiments, "hardware_config", lambda: slow)
        rendered = run_experiment("table1", TINY_SCALE).rendered
        memory = [line for line in rendered.splitlines()
                  if line.strip().startswith("Memory")]
        assert memory and memory[0].rstrip().endswith("175 ns access")

    def test_table2_lists_four_apps(self):
        result = run_experiment("table2", REPRO_SCALE)
        assert result.rendered.count("\n") >= 5

    @pytest.mark.parametrize("exp_id", ["table3", "tuning_loop"])
    def test_dependent_load_chase_fits_the_tiny_l2(self, exp_id):
        # Regression: a fixed 200-line chase overflowed tiny's 64-line L2
        # (WorkloadError) and crashed `repro.harness all --scale tiny`.
        result = run_experiment(exp_id, TINY_SCALE)
        assert result.scale_name == "tiny"
        assert result.findings



class TestFindings:
    def _result(self):
        return ExperimentResult(
            exp_id="x", title="t", rendered="body",
            findings=[
                Finding("a", "1.0", "1.1", True),
                Finding("b", "2.0", "9.9", False, note="known divergence"),
            ],
            wall_seconds=1.0, scale_name="tiny",
        )

    def test_all_ok_reflects_findings(self):
        assert not self._result().all_ok

    def test_format_shows_marks(self):
        lines = self._result().format().splitlines()
        assert lines[:3] == ["x: t", "scale=tiny, runtime 1.0s", "body"]
        assert [line.split() for line in lines[3:]] == [
            ["paper", "vs", "measured:"],
            ["check", "paper", "measured", "shape", "holds"],
            ["a", "1.0", "1.1", "yes"],
            ["b", "2.0", "9.9", "(known", "divergence)", "no"]]

    def test_markdown_table(self):
        md = self._result().to_markdown()
        assert md.startswith("## x: t\n")
        assert md.splitlines()[-4:] == [
            "| check | paper | measured | shape holds |",
            "|---|---|---|---|",
            "| a | 1.0 | 1.1 | yes |",
            "| b | 2.0 | 9.9 (known divergence) | **no** |"]

    def test_summarize_counts(self):
        text = summarize([self._result()])
        assert "1/2" in text

    def test_write_experiments_md(self, tmp_path):
        path = tmp_path / "E.md"
        write_experiments_md([self._result()], str(path))
        content = path.read_text()
        assert content.startswith("# EXPERIMENTS")
        assert "1/2 shape checks hold" in content


def refresh_script():
    """``scripts/refresh_experiments.py``, imported as a module."""
    path = Path(__file__).parents[1] / "scripts" / "refresh_experiments.py"
    spec = importlib.util.spec_from_file_location("refresh_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRefreshRecount:
    """The refresh script recounts the headline from the findings rows
    ``write_experiments_md`` writes; the two must agree."""

    def test_recount_reproduces_the_written_headline(self, tmp_path):
        results = [
            TestFindings()._result(),
            ExperimentResult("y", "t2", "| yes |", [
                Finding("c", "1", "1", True),
                Finding("monotone", "yes", "yes", False),
                Finding("pipe|name", "2", "3 | 4", True, note="n")]),
            ExperimentResult("z", "no checks", "body"),
        ]
        path = tmp_path / "E.md"
        write_experiments_md(results, str(path))
        written = path.read_text()
        assert "**3/5 shape checks hold.**" in written
        stale = written.replace("**3/5 shape", "**0/0 shape")
        assert refresh_script().recount(stale) == written
