"""The BENCH perf ledger and the ``perf`` gate (``repro.obs.metrics``).

Two contracts:

* **the BENCH perf ledger** -- the frozen record schema validates,
  round-trips, merges idempotently, tolerates missing/foreign/corrupt
  *baselines* by gating nothing, and refuses to *merge* into a file it
  cannot fully read (rewriting it would drop the unread cases);
* **the regression gate** -- :func:`repro.obs.metrics.diff_bench` flags
  throughput collapses beyond threshold and nothing else, and
  ``python -m repro.obs perf`` times one unobserved run and wires the
  gate to exit codes.
"""

import json

import pytest

from repro.obs import metrics as perf
from repro.obs.cli import main as obs_main


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

    def test_write_read_and_merge(self, tmp_path):
        path = tmp_path / "BENCH_unit.json"
        a, b = record(case="a"), record(case="b")
        perf.write_bench(path, "unit", [b, a])
        assert [r.case for r in perf.read_bench(path)] == ["a", "b"]
        # Merging replaces same-case records and keeps the rest.
        perf.merge_bench(path, "unit", [record(case="b", speedup=9.0),
                                        record(case="c")])
        merged = {r.case: r for r in perf.read_bench(path)}
        assert sorted(merged) == ["a", "b", "c"]
        assert merged["b"].speedup == 9.0
        # Identical content writes byte-identical files.
        first = path.read_text()
        perf.merge_bench(path, "unit", [record(case="c")])
        assert path.read_text() == first

    def test_read_tolerates_bad_baselines(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert perf.read_bench(missing) == []
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{torn write")
        assert perf.read_bench(corrupt) == []
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps(
            {"schema": 999, "bench": "unit",
             "records": [record().to_dict()]}))
        assert perf.read_bench(foreign) == []
        mixed = tmp_path / "mixed.json"
        mixed.write_text(json.dumps(
            {"schema": perf.BENCH_SCHEMA_VERSION, "bench": "unit",
             "records": [record().to_dict(), {"not": "a record"}]}))
        assert len(perf.read_bench(mixed)) == 1

    def test_merge_refuses_a_file_it_cannot_fully_read(self, tmp_path):
        """Rewriting such a file would silently drop every other case."""
        old = {"schema": 2, "bench": "unit", "records": [
            {"schema": 2, "bench": "unit", "case": "a", "wall_s": 1.0,
             "sim_ps": None, "events": None, "events_per_sec": None,
             "speedup": None}]}
        torn = "{torn write"
        mixed = {"schema": perf.BENCH_SCHEMA_VERSION, "bench": "unit",
                 "records": [record().to_dict(), {"not": "a record"}]}
        for name, text, complaint in [
                ("schema2.json", json.dumps(old, indent=2), r"2.*3"),
                ("torn.json", torn, "unparsable"),
                ("mixed.json", json.dumps(mixed), "invalid record 1")]:
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ValueError, match=complaint) as excinfo:
                perf.merge_bench(path, "unit", [record(case="b")])
            assert name in str(excinfo.value)
            assert path.read_text() == text
        assert perf.read_bench(tmp_path / "schema2.json") == []


# -- the regression gate ---------------------------------------------------

class TestDiffBench:
    def test_throughput_collapse_is_flagged(self):
        base = [record(events_per_sec=1000.0)]
        report = perf.diff_bench(base, [record(events_per_sec=400.0)])
        assert not report.ok
        assert "PERF[throughput]" in report.format()
        # Within threshold: noise, not a regression.
        assert perf.diff_bench(base, [record(events_per_sec=600.0)]).ok

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
        path = tmp_path / "bench.json"
        assert obs_main(self.ARGS + ["--json", str(path)]) == 0
        records = perf.read_bench(path)
        assert [r.case for r in records] == ["fft@simos-mipsy-150/P1/tiny/ref"]
        assert records[0].events > 0 and records[0].events_per_sec > 0

    def test_prints_wall_and_throughput_but_no_phase_table(self, tmp_path,
                                                           capsys):
        collapsed = tmp_path / "BENCH_collapsed.json"
        perf.write_bench(collapsed, "obs_perf", [perf.BenchRecord(
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
        baseline = tmp_path / "BENCH_baseline.json"
        perf.write_bench(baseline, "obs_perf", [perf.BenchRecord(
            bench="obs_perf", case="fft@simos-mipsy-150/P1/tiny/ref",
            wall_s=1e-6, events_per_sec=1e12)])
        args = self.ARGS + ["--baseline", str(baseline)]
        assert obs_main(args) == 1
        assert "PERF[throughput]" in capsys.readouterr().out
        assert obs_main(args + ["--report-only"]) == 0
        assert "PERF[throughput]" in capsys.readouterr().out
