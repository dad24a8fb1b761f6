"""Tests for differential attribution (obs.diff) and the metrics ledger
(obs.metrics): the closing-the-loop machinery."""

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro.common.config import get_scale
from repro.common.errors import AttributionError
from repro.obs import hooks as obs_hooks
from repro.obs import metrics as obs_metrics
from repro.obs.cli import main as obs_main
from repro.obs.diff import (
    RESIDUAL,
    AttributionDiff,
    CategoryDelta,
    diff_breakdowns,
    diff_runs,
)
from repro.obs.profile import CpuBreakdown, RunBreakdown
from repro.obs.trace import TraceRecorder
from repro.sim import farm_hooks
from repro.sim.configs import get_config
from repro.sim.request import RunRequest
from repro.workloads import make_app

TINY = get_scale("tiny")


@pytest.fixture(autouse=True)
def _nothing_observing():
    """Every test starts and ends with the probe slot empty."""
    assert obs_hooks.active is None
    yield
    assert obs_hooks.active is None


def traced_run(config_name: str, workload, n_cpus: int = 1):
    with obs_hooks.observing(TraceRecorder()):
        return farm_hooks.run(
            RunRequest(get_config(config_name), workload, n_cpus, TINY))


# ---------------------------------------------------------------------------
# the pure accounting
# ---------------------------------------------------------------------------

class TestCategoryDelta:
    def test_delta_sign_is_candidate_minus_reference(self):
        assert CategoryDelta("tlb", ref_ps=100.0, cand_ps=40.0).delta_ps == -60.0
        assert CategoryDelta("mem", ref_ps=10.0, cand_ps=25.0).delta_ps == 15.0

    def test_round_trip(self):
        d = CategoryDelta("busy", 1.5, 2.5)
        assert CategoryDelta.from_dict(d.to_dict()) == d


class TestDiffBreakdowns:
    def test_overall_pairs_categories(self):
        ref = RunBreakdown([CpuBreakdown(0, 1000, {"busy": 600, "tlb": 400})])
        cand = RunBreakdown([CpuBreakdown(0, 900, {"busy": 900})])
        overall, per_cpu = diff_breakdowns(ref, cand)
        by_cat = {d.category: d for d in overall}
        assert by_cat["busy"].delta_ps == 300
        assert by_cat["tlb"].delta_ps == -400
        assert set(per_cpu) == {0}

    def test_cpu_missing_on_one_side_reads_zero(self):
        ref = RunBreakdown([CpuBreakdown(0, 1000, {"busy": 1000}),
                            CpuBreakdown(1, 500, {"busy": 500})])
        cand = RunBreakdown([CpuBreakdown(0, 1000, {"busy": 1000})])
        _, per_cpu = diff_breakdowns(ref, cand)
        busy1 = next(d for d in per_cpu[1] if d.category == "busy")
        assert busy1.ref_ps == 500 and busy1.cand_ps == 0.0


def make_diff(ref_parts, cand_parts, ref_machine=None, cand_machine=None):
    """AttributionDiff from two single-CPU part dicts; machine times
    default to the traced sums (zero residual)."""
    ref = RunBreakdown([CpuBreakdown(0, sum(ref_parts.values()), ref_parts)])
    cand = RunBreakdown(
        [CpuBreakdown(0, sum(cand_parts.values()), cand_parts)])
    overall, per_cpu = diff_breakdowns(ref, cand)
    return AttributionDiff(
        workload="synthetic", ref_config="ref", cand_config="cand",
        n_cpus=1, scale_name="tiny",
        ref_machine_ps=(sum(ref_parts.values())
                        if ref_machine is None else ref_machine),
        cand_machine_ps=(sum(cand_parts.values())
                         if cand_machine is None else cand_machine),
        ref_parallel_ps=1000, cand_parallel_ps=1200,
        overall=overall, per_cpu=per_cpu)


class TestAttributionDiff:
    def test_gap_equals_explained_plus_residual(self):
        diff = make_diff({"busy": 600, "tlb": 400}, {"busy": 900},
                         cand_machine=1100)
        assert diff.gap_ps == 100
        assert diff.explained_ps == -100    # -400 tlb, +300 busy
        assert diff.residual_ps == diff.gap_ps - diff.explained_ps
        assert diff.gap_ps == pytest.approx(
            diff.explained_ps + diff.residual_ps)

    def test_fully_traced_runs_have_zero_residual(self):
        diff = make_diff({"busy": 500, "mem": 500}, {"busy": 800, "mem": 450})
        assert diff.residual_ps == 0.0
        assert diff.explained_fraction == 1.0

    def test_explained_fraction_counts_residual_against_the_gap(self):
        diff = make_diff({"busy": 1000}, {"busy": 1050}, cand_machine=1100)
        # gap 100, explained 50, residual 50 -> half attributed.
        assert diff.explained_fraction == pytest.approx(0.5)

    def test_zero_gap_is_fully_explained_with_zero_shares(self):
        diff = make_diff({"busy": 1000}, {"busy": 1000})
        assert diff.gap_ps == 0
        assert diff.explained_fraction == 1.0
        assert diff.share(123.0) == 0.0

    def test_fractions_include_residual_row(self):
        diff = make_diff({"busy": 600, "tlb": 400}, {"busy": 900},
                         cand_machine=1100)
        fractions = diff.fractions()
        assert RESIDUAL in fractions
        assert fractions["tlb"] == pytest.approx(-4.0)  # -400 of a 100 gap
        # Signed shares always rebuild the whole gap.
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_waterfall_renders_every_category_and_residual(self):
        diff = make_diff({"busy": 600, "tlb": 400}, {"busy": 900})
        text = diff.format_waterfall()
        for token in ("busy", "tlb", "residual", "attributed", "waterfall"):
            assert token in text

    def test_round_trip_preserves_accounting(self):
        diff = make_diff({"busy": 600, "tlb": 400}, {"busy": 900},
                         cand_machine=1100)
        back = AttributionDiff.from_dict(
            json.loads(json.dumps(diff.to_dict())))
        assert back == diff
        assert back.per_cpu and 0 in back.per_cpu   # int keys restored


class TestDiffRuns:
    @pytest.fixture(scope="class")
    def fft_runs(self):
        workload = make_app("fft", TINY)
        ref = traced_run("hardware", workload)
        cand = traced_run("solo-mipsy-150-tuned", workload)
        return ref, cand

    def test_attributes_at_least_90_percent_of_the_gap(self, fft_runs):
        diff = diff_runs(*fft_runs)
        assert diff.gap_ps != 0
        assert diff.explained_fraction >= 0.9
        # Solo has no TLB model: the tlb column must push the candidate
        # *below* the reference.
        tlb = next(d for d in diff.overall if d.category == "tlb")
        assert tlb.cand_ps == 0.0 and tlb.ref_ps > 0

    def test_untraced_run_is_rejected(self, fft_runs):
        ref, _ = fft_runs
        workload = make_app("fft", TINY)
        untraced = farm_hooks.run(
            RunRequest(get_config("solo-mipsy-150-tuned"), workload, 1, TINY))
        with pytest.raises(AttributionError, match="no breakdown"):
            diff_runs(ref, untraced)

    def test_mismatched_workload_rejected(self, fft_runs):
        ref, _ = fft_runs
        other = traced_run("solo-mipsy-150-tuned", make_app("radix", TINY))
        with pytest.raises(AttributionError, match="workload"):
            diff_runs(ref, other)

    def test_mismatched_cpu_count_rejected(self, fft_runs):
        ref, _ = fft_runs
        wide = traced_run("solo-mipsy-150-tuned", make_app("fft", TINY), 2)
        with pytest.raises(AttributionError, match="CPU count"):
            diff_runs(ref, wide)


# ---------------------------------------------------------------------------
# the ledger
# ---------------------------------------------------------------------------

def sample_record(**overrides):
    base = {
        "schema": obs_metrics.SCHEMA_VERSION, "ts": 1.0, "key": "k",
        "config": "hardware", "workload": "fft", "n_cpus": 1,
        "scale": "tiny", "seed": 7, "parallel_ps": 1000, "total_ps": 1100,
        "instructions": 50.0, "wall_s": 0.25, "outcome": "run",
        "percent_error": None, "attribution": None,
    }
    base.update(overrides)
    return base


class TestValidateRecord:
    def test_valid_record_has_no_problems(self):
        assert obs_metrics.validate_record(sample_record()) == []

    def test_unknown_field_rejected(self):
        problems = obs_metrics.validate_record(sample_record(surprise=1))
        assert any("surprise" in p for p in problems)

    def test_missing_required_field_rejected(self):
        record = sample_record()
        del record["parallel_ps"]
        assert obs_metrics.validate_record(record)

    def test_wrong_type_rejected_including_bool_as_int(self):
        assert obs_metrics.validate_record(sample_record(parallel_ps="fast"))
        assert obs_metrics.validate_record(sample_record(n_cpus=True))

    def test_int_accepted_where_float_expected(self):
        assert obs_metrics.validate_record(sample_record(wall_s=2)) == []

    def test_unknown_outcome_rejected(self):
        assert obs_metrics.validate_record(sample_record(outcome="warped"))


#: Two ledger lines exactly as the pre-schema-driven-codec writer
#: appended them (one with every optional field, one cache hit).
PARENT_LINES = (
    '{"attribution": {"busy": 0.6, "mem": 0.15, "tlb": 0.25}, '
    '"config": "solo-mipsy-150-tuned", "instructions": 1000000, '
    '"key": "0123456789abcdef", "n_cpus": 1, "outcome": "run", '
    '"parallel_ps": 123456789, "percent_error": -3.25, "scale": "repro", '
    '"schema": 1, "seed": 42, "total_ps": 133456789, "ts": 1722945600.0, '
    '"wall_s": 1.5, "workload": "fft"}',
    '{"attribution": null, "config": "hardware", "instructions": 5.0, '
    '"key": "k", "n_cpus": 4, "outcome": "hit", "parallel_ps": 10, '
    '"percent_error": null, "scale": "tiny", "schema": 1, "seed": 1, '
    '"total_ps": 11, "ts": 2.5, "wall_s": 0.0, "workload": "lu"}',
)


class TestFrozenSchemas:
    """Both ledgers are read back across sessions: editing a schema means
    bumping its version and this pinned copy in the same change."""

    @staticmethod
    def pinned(schema):
        return {name: (typ.__name__, required)
                for name, (typ, required) in schema.items()}

    def test_metrics_ledger_schema_is_pinned(self):
        assert obs_metrics.SCHEMA_VERSION == 1
        assert self.pinned(obs_metrics.LEDGER_SCHEMA) == {
            "schema": ("int", True), "ts": ("float", True),
            "key": ("str", True), "config": ("str", True),
            "workload": ("str", True), "n_cpus": ("int", True),
            "scale": ("str", True), "seed": ("int", True),
            "parallel_ps": ("int", True), "total_ps": ("int", True),
            "instructions": ("float", True), "wall_s": ("float", True),
            "outcome": ("str", True), "percent_error": ("float", False),
            "attribution": ("dict", False),
        }

    def test_bench_ledger_schema_is_pinned(self):
        assert obs_metrics.BENCH_SCHEMA_VERSION == 3
        assert self.pinned(obs_metrics.BENCH_SCHEMA) == {
            "schema": ("int", True), "bench": ("str", True),
            "case": ("str", True), "wall_s": ("float", True),
            "sim_ps": ("int", False), "events": ("int", False),
            "events_per_sec": ("float", False), "speedup": ("float", False),
        }

    @pytest.mark.parametrize("cls", [obs_metrics.LedgerRecord,
                                     obs_metrics.BenchRecord])
    def test_record_fields_are_exactly_the_schema(self, cls):
        assert ({f.name for f in dataclasses.fields(cls)}
                == set(cls.SCHEMA))

    def test_lines_written_before_the_shared_codec_read_back_equal(
            self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("\n".join(PARENT_LINES) + "\n")
        records = obs_metrics.read_ledger(path)
        assert [json.dumps(r.to_dict(), sort_keys=True)
                for r in records] == list(PARENT_LINES)
        assert records[0].attribution == {"busy": 0.6, "mem": 0.15,
                                          "tlb": 0.25}
        assert records[1].percent_error is None


def fake_result(config="hardware", parallel_ps=1000, breakdown=None):
    return SimpleNamespace(
        config_name=config, workload_name="fft", n_cpus=1, scale_name="tiny",
        parallel_ps=parallel_ps, total_ps=parallel_ps + 100,
        instructions=50.0, breakdown=breakdown)


def fake_request():
    return SimpleNamespace(cache_key=lambda: "deadbeef", seed=42)


class TestMetricsWriter:
    def test_appends_valid_json_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        writer = obs_metrics.MetricsWriter(path)
        writer.observe(fake_request(), fake_result(), 0.5, "run")
        writer.observe(fake_request(), fake_result(), 0.0, "hit")
        lines = path.read_text().splitlines()
        assert len(lines) == 2 and writer.written == 2
        for line in lines:
            assert obs_metrics.validate_record(json.loads(line)) == []

    def test_candidate_after_reference_carries_percent_error(self, tmp_path):
        writer = obs_metrics.MetricsWriter(tmp_path / "l.jsonl")
        writer.observe(fake_request(), fake_result("hardware", 1000), 0.1,
                       "run")
        record = writer.observe(
            fake_request(), fake_result("solo-mipsy-150-tuned", 1300), 0.1,
            "run")
        assert record.percent_error == pytest.approx(30.0)

    def test_candidate_without_reference_has_no_percent_error(self, tmp_path):
        writer = obs_metrics.MetricsWriter(tmp_path / "l.jsonl")
        record = writer.observe(
            fake_request(), fake_result("solo-mipsy-150-tuned", 1300), 0.1,
            "run")
        assert record.percent_error is None

    def test_traced_result_carries_attribution_fractions(self, tmp_path):
        writer = obs_metrics.MetricsWriter(tmp_path / "l.jsonl")
        breakdown = RunBreakdown(
            [CpuBreakdown(0, 1000, {"busy": 750, "tlb": 250})])
        record = writer.observe(
            fake_request(), fake_result(breakdown=breakdown), 0.1, "run")
        assert record.attribution["tlb"] == pytest.approx(0.25)

    def test_read_ledger_skips_torn_blank_and_foreign_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        good = json.dumps(sample_record())
        foreign = json.dumps(sample_record(schema=99))
        path.write_text(
            good + "\n\n" + foreign + "\nnot json\n" + good + "\n"
            + good[: len(good) // 2])    # torn final append
        records = obs_metrics.read_ledger(path)
        assert len(records) == 2
        assert all(r.schema == obs_metrics.SCHEMA_VERSION for r in records)

    def test_read_ledger_missing_file_is_empty(self, tmp_path):
        assert obs_metrics.read_ledger(tmp_path / "nope.jsonl") == []

    def test_scan_ledger_counts_torn_and_invalid_but_not_foreign(
            self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        good = json.dumps(sample_record())
        path.write_text("\n".join([
            good, good[: len(good) // 2],                 # torn
            json.dumps(sample_record(schema=99)),         # foreign history
            json.dumps(sample_record(outcome="maybe")),   # schema-invalid
            "[1, 2]", good]) + "\n")
        records, problems = obs_metrics.scan_ledger(path)
        assert len(records) == 2
        assert [p.split(":")[0] for p in problems] == [
            "invalid line 2", "invalid line 4", "invalid line 5"]


class TestDetectDrift:
    def group_records(self, parallel_list, errors=None):
        errors = errors or [None] * len(parallel_list)
        return [obs_metrics.LedgerRecord.from_dict(
                    sample_record(parallel_ps=ps, percent_error=err, ts=i))
                for i, (ps, err) in enumerate(zip(parallel_list, errors))]

    def test_single_record_groups_cannot_drift(self):
        report = obs_metrics.detect_drift(self.group_records([1000]))
        assert report.ok and report.checked == 0

    def test_identical_replays_never_flag(self):
        report = obs_metrics.detect_drift(self.group_records([1000] * 5))
        assert report.ok and report.checked == 1

    def test_time_drift_beyond_threshold_flags(self):
        report = obs_metrics.detect_drift(
            self.group_records([1000, 1000, 1100]))
        assert not report.ok
        assert report.flags[0].metric == "time"
        assert report.flags[0].change == pytest.approx(0.10)

    def test_baseline_is_median_so_one_old_outlier_is_harmless(self):
        report = obs_metrics.detect_drift(
            self.group_records([1000, 5000, 1000, 1001]))
        assert report.ok

    def test_accuracy_drift_flags_in_points(self):
        report = obs_metrics.detect_drift(self.group_records(
            [1000, 1000, 1000], errors=[10.0, 10.0, 12.5]))
        assert [f.metric for f in report.flags] == ["accuracy"]
        assert report.flags[0].change == pytest.approx(2.5)

    def test_report_format_names_the_group(self):
        report = obs_metrics.detect_drift(
            self.group_records([1000, 1000, 1100]))
        assert "fft@hardware/P1/tiny" in report.format()


# ---------------------------------------------------------------------------
# the CLI surfaces
# ---------------------------------------------------------------------------

class TestDiffCli:
    def test_diff_prints_waterfall_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "diff.json"
        code = obs_main(["diff", "fft", "--cand", "solo", "--scale", "tiny",
                         "--json", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "solo-mipsy-150-tuned vs hardware" in text
        assert "attributed" in text and "residual" in text
        payload = json.loads(out.read_text())
        diff = AttributionDiff.from_dict(payload)
        assert diff.explained_fraction >= 0.9

    def test_unknown_candidate_shorthand_fails_cleanly(self):
        from repro.common.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            obs_main(["diff", "fft", "--cand", "warp-drive",
                      "--scale", "tiny"])


class TestWatchCli:
    def test_empty_ledger_exits_zero_with_hint(self, tmp_path, capsys):
        path = tmp_path / "none.jsonl"
        assert obs_main(["watch", "--ledger", str(path)]) == 0
        assert "no ledger records" in capsys.readouterr().out

    def write_ledger(self, path, parallel_list):
        with open(path, "w") as fh:
            for i, ps in enumerate(parallel_list):
                fh.write(json.dumps(sample_record(parallel_ps=ps, ts=i))
                         + "\n")

    def test_stable_history_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        self.write_ledger(path, [1000, 1000, 1000])
        assert obs_main(["watch", "--ledger", str(path)]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_drifted_history_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        self.write_ledger(path, [1000, 1000, 1200])
        assert obs_main(["watch", "--ledger", str(path)]) == 1
        assert "DRIFT[time]" in capsys.readouterr().out

    def test_torn_middle_line_is_reported_in_the_verdict(self, tmp_path,
                                                         capsys):
        path = tmp_path / "ledger.jsonl"
        self.write_ledger(path, [1000, 1000, 1000])
        lines = path.read_text().splitlines()
        lines.insert(1, lines[1][:20])          # a writer killed mid-append
        path.write_text("\n".join(lines) + "\n")
        assert obs_main(["watch", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 unreadable ledger line(s) skipped" in out
        assert "no drift" in out

    def test_thresholds_are_tunable(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self.write_ledger(path, [1000, 1000, 1010])   # +1%: inside default
        assert obs_main(["watch", "--ledger", str(path)]) == 0
        assert obs_main(["watch", "--ledger", str(path),
                         "--time-threshold", "0.005"]) == 1


class TestFarmLedgerLoop:
    """The acceptance loop: farm runs ledger themselves; replays are
    drift-free; a tweaked tuning knob under the same config name flags."""

    def request(self, config=None):
        config = config or get_config("hardware")
        return RunRequest(config, make_app("fft", TINY), 1, TINY)

    def test_replay_is_stable_and_knob_change_drifts(self, tmp_path):
        from repro.harness.farm import Farm, ResultCache

        ledger = tmp_path / "ledger.jsonl"
        writer = obs_metrics.MetricsWriter(ledger)
        farm = Farm(jobs=1, cache=ResultCache(tmp_path / "cache"),
                    metrics=writer)
        with farm.activate():
            farm_hooks.run(self.request())          # executed
            farm_hooks.run(self.request())          # cache replay
        records = obs_metrics.read_ledger(ledger)
        assert [r.outcome for r in records] == ["run", "hit"]
        assert records[0].parallel_ps == records[1].parallel_ps
        assert obs_main(["watch", "--ledger", str(ledger)]) == 0

        # Same config *name*, slower TLB refill: the cache key changes,
        # the run re-executes, and watch must flag the time drift.
        config = get_config("hardware")
        tweaked = config.with_core(
            config.core.with_updates(
                tlb_refill_cycles=config.core.tlb_refill_cycles * 4),
            suffix="")
        assert tweaked.name == config.name
        farm2 = Farm(jobs=1, cache=ResultCache(tmp_path / "cache"),
                     metrics=writer)
        with farm2.activate():
            farm_hooks.run(self.request(tweaked))
        records = obs_metrics.read_ledger(ledger)
        assert records[-1].outcome == "run"
        assert records[-1].parallel_ps != records[0].parallel_ps
        assert obs_main(["watch", "--ledger", str(ledger)]) == 1
