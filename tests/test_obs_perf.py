"""The BENCH perf ledgers and the ``perf`` gate (``repro.obs.metrics``).

Two contracts:

* **the BENCH perf ledger** -- the frozen record schema validates and
  round-trips; a ledger is JSON lines, appended and never rewritten, read
  back by the metrics ledger's scan (missing, torn and invalid lines
  tolerated and counted, foreign versions skipped as history), and the
  committed ledgers read back whole;
* **the regression gate** -- :func:`repro.obs.metrics.diff_bench` judges a
  fresh run against every earlier same-case record and flags throughput
  collapses beyond threshold and nothing else, and ``python -m repro.obs
  perf`` times one unobserved run and wires the gate to exit codes.
"""

import json
from pathlib import Path

import pytest

from repro.obs import metrics as perf
from repro.obs.cli import main as obs_main

REPO = Path(__file__).resolve().parent.parent

# -- the BENCH perf ledger -------------------------------------------------

def record(case="fft@simos-mipsy-150/P1/tiny/ref", **kwargs):
    return perf.BenchRecord(bench="unit", case=case, wall_s=1.0, **kwargs)


class TestBenchLedger:
    def test_make_case(self):
        assert (perf.make_case("fft", "hardware", 4, "repro", "ref")
                == "fft@hardware/P4/repro/ref")

    def test_record_round_trips(self):
        original = record(sim_ps=7, events=100, events_per_sec=100.0,
                          speedup=2.0)
        back = perf.BenchRecord.from_dict(original.to_dict())
        assert back == original
        assert not perf.validate_record(original.to_dict(), perf.BENCH_SCHEMA)

    @pytest.mark.parametrize("mangle,problem", [
        (lambda d: d.pop("case"), "missing required field 'case'"),
        (lambda d: d.update(wall_s="fast"), "field 'wall_s' has type str"),
        (lambda d: d.update(events=True), "field 'events' has type bool"),
        (lambda d: d.update(surprise=1), "unknown field 'surprise'"),
    ])
    def test_schema_violations_are_reported(self, mangle, problem):
        payload = record().to_dict()
        mangle(payload)
        assert any(problem in p
                   for p in perf.validate_record(payload, perf.BENCH_SCHEMA))

    def test_appends_and_reads_back_in_order(self, tmp_path):
        path = tmp_path / "BENCH_unit.jsonl"
        a, b = record(case="a"), record(case="b")
        perf.append_records(path, [b, a])
        perf.append_records(path, [record(case="b", speedup=9.0)])
        assert perf.read_ledger(path, perf.BenchRecord) == [
            b, a, record(case="b", speedup=9.0)]
        assert len(path.read_text().splitlines()) == 3

    def test_read_tolerates_bad_baselines(self, tmp_path):
        assert perf.scan_ledger(tmp_path / "nope.jsonl",
                                perf.BenchRecord) == ([], [])
        good = json.dumps(record().to_dict())
        path = tmp_path / "mixed.jsonl"
        path.write_text("\n".join([
            good, "{torn write",
            json.dumps(record(schema=2).to_dict()),   # older history
            json.dumps({"not": "a record"}), good]) + "\n")
        records, problems = perf.scan_ledger(path, perf.BenchRecord)
        assert records == [record(), record()]
        assert [p.split(":")[0] for p in problems] == [
            "invalid line 2", "invalid line 4"]

    def test_appending_runs_never_rewrites_earlier_lines(self, tmp_path):
        """What is there stays a byte-identical prefix, bad lines
        included, and a torn last line does not swallow the next record."""
        path = tmp_path / "BENCH_obs_perf.jsonl"
        # Written against another schema: a field the frozen one lacks.
        foreign = dict(record().to_dict(), phases={"engine": 0.5})
        original = "\n".join([json.dumps(record().to_dict()),
                              json.dumps(foreign),
                              '{"bench": "unit", "ca'])  # torn, no newline
        path.write_text(original)
        args = TestPerfCli.ARGS + ["--json", str(path)]
        assert obs_main(args) == 0 and obs_main(args) == 0
        assert path.read_text().startswith(original)
        records, problems = perf.scan_ledger(path, perf.BenchRecord)
        assert [r.case for r in records] == [
            record().case, *["fft@simos-mipsy-150/P1/tiny/ref"] * 2]
        assert [p.split(":")[0] for p in problems] == [
            "invalid line 2", "invalid line 3"]

    def test_committed_ledgers_read_back_whole(self, capsys):
        paths = sorted((REPO / "benchmarks").glob("BENCH_*.json*"))
        assert [p.name for p in paths] == [
            "BENCH_ckpt.jsonl", "BENCH_engine_hotpath.jsonl",
            "BENCH_farm.jsonl", "BENCH_obs_overhead.jsonl"]
        for path in paths:
            records, problems = perf.scan_ledger(path, perf.BenchRecord)
            assert records and problems == [], path.name
        # The tier-1 perf smoke's case has a history to be judged against.
        assert obs_main(TestPerfCli.ARGS + [
            "--baseline", str(REPO / "benchmarks" / "BENCH_engine_hotpath"
                              ".jsonl"), "--report-only"]) == 0
        assert ("perf: 1 series judged against history"
                in capsys.readouterr().out)


# -- the regression gate ---------------------------------------------------

class TestDiffBench:
    def test_throughput_collapse_is_flagged(self, tmp_path):
        path = tmp_path / "BENCH_unit.jsonl"
        perf.append_records(path, [record(events_per_sec=1000.0)] * 3)
        history = perf.read_ledger(path, perf.BenchRecord)
        report = perf.diff_bench(history, [record(events_per_sec=400.0)])
        assert not report.ok and report.checked == 1
        assert "PERF[throughput]" in report.format()
        # Within threshold: noise, not a regression.
        assert perf.diff_bench(history, [record(events_per_sec=600.0)]).ok
        # A case without history gates nothing.
        report = perf.diff_bench(history, [record(case="other",
                                                  events_per_sec=1.0)])
        assert report.ok and (report.checked, report.unmatched) == (0, 1)

    def test_wall_time_is_the_fallback_metric(self):
        base = [perf.BenchRecord(bench="unit", case="c", wall_s=1.0)]
        slow = [perf.BenchRecord(bench="unit", case="c", wall_s=3.0)]
        report = perf.diff_bench(base, slow)
        assert not report.ok and report.flags[0].change == pytest.approx(-2 / 3)
        assert perf.diff_bench(base, base).ok

    def test_unmatched_cases_gate_nothing(self):
        report = perf.diff_bench([], [record()])
        assert report.ok
        assert report.checked == 0
        assert report.unmatched == 1
        assert "no regression" in report.format()


# -- the CLI ---------------------------------------------------------------

class TestPerfCli:
    ARGS = ["perf", "fft", "--config", "simos-mipsy-150", "--scale", "tiny"]

    def test_records_a_profiled_run(self, tmp_path, capsys):
        path = tmp_path / "bench.jsonl"
        assert obs_main(self.ARGS + ["--json", str(path)]) == 0
        records = perf.read_ledger(path, perf.BenchRecord)
        assert [r.case for r in records] == ["fft@simos-mipsy-150/P1/tiny/ref"]
        assert records[0].events > 0 and records[0].events_per_sec > 0

    def test_prints_wall_and_throughput_but_no_phase_table(self, tmp_path,
                                                           capsys):
        collapsed = tmp_path / "BENCH_collapsed.jsonl"
        perf.append_records(collapsed, [perf.BenchRecord(
            bench="obs_perf", case="fft@simos-mipsy-150-tuned/P1/tiny/ref",
            wall_s=1e-6, events_per_sec=1e12)])
        args = ["perf", "fft", "--scale", "tiny"]
        assert obs_main(args + ["--baseline", str(collapsed)]) == 1
        assert "PERF[throughput]" in capsys.readouterr().out
        assert obs_main(args) == 0
        out = capsys.readouterr().out
        host = next(line for line in out.splitlines()
                    if line.startswith("host:"))
        assert " s wall, " in host and " events (" in host
        assert host.endswith("events/s)")
        assert "phase" not in out and "engine.dispatch" not in out
        assert out.rstrip().endswith("python3 benchmarks/e2e/run.py")

    def test_baseline_gate_and_report_only(self, tmp_path, capsys):
        # A baseline claiming implausible throughput must trip the gate;
        # --report-only downgrades it to a printed report.
        baseline = tmp_path / "BENCH_baseline.jsonl"
        perf.append_records(baseline, [perf.BenchRecord(
            bench="obs_perf", case="fft@simos-mipsy-150/P1/tiny/ref",
            wall_s=1e-6, events_per_sec=1e12)])
        args = self.ARGS + ["--baseline", str(baseline)]
        assert obs_main(args) == 1
        assert "PERF[throughput]" in capsys.readouterr().out
        assert obs_main(args + ["--report-only"]) == 0
        assert "PERF[throughput]" in capsys.readouterr().out

    def test_missing_baseline_exits_2_naming_it(self, tmp_path, capsys):
        missing = tmp_path / "BENCH_nope.jsonl"
        assert obs_main(self.ARGS + ["--baseline", str(missing)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("repro.obs: ") and str(missing) in err
        assert "host:" not in out              # refused before the run

    def test_unreadable_baseline_lines_are_counted(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_baseline.jsonl"
        baseline.write_text("{torn\n[1, 2]\n")
        assert obs_main(self.ARGS + ["--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "perf: 0 series judged against history, 1 without" in out
        assert "2 unreadable ledger line(s) skipped" in out
