"""repro.obs.perf lock-down net: host profiling and the BENCH ledger.

Three contracts:

* **profiling is pure observation** -- a run with the perf hook
  installed is bit-identical (full ``RunResult.to_dict()``) to one
  without, and the ``engine.dispatch`` phase covers exactly
  ``events_processed`` events;
* **the BENCH perf ledger** -- the frozen record schema validates,
  round-trips, merges idempotently, and tolerates missing/foreign/corrupt
  baselines by gating nothing;
* **the regression gate** -- :func:`repro.obs.perf.diff_bench` flags
  throughput collapses beyond threshold and nothing else, and
  ``python -m repro.obs perf`` wires it to exit codes.
"""

import json

import pytest

from repro.common.config import TINY_SCALE
from repro.obs import hooks as obs_hooks
from repro.obs import perf
from repro.obs.cli import main as obs_main
from repro.sim.configs import get_config
from repro.sim.machine import Machine
from repro.workloads import make_app


def tiny_machine(n_cpus=1):
    return Machine(get_config("simos-mipsy-150"), n_cpus, TINY_SCALE)


@pytest.fixture(scope="module")
def profiled_fft():
    """One profiled fft@tiny run, shared by the read-only tests."""
    profiler = perf.PerfProfiler()
    machine = tiny_machine()
    with obs_hooks.observing(profiler):
        result = machine.run(make_app("fft", TINY_SCALE))
    return result, machine, profiler


# -- the profiler and its hook slot ----------------------------------------

class TestProfiler:
    def test_commit_accumulates_time_and_units(self):
        profiler = perf.PerfProfiler()
        t0 = profiler.host_begin()
        profiler.host_commit("engine.dispatch", t0, n=3)
        profiler.host_commit("engine.dispatch", profiler.host_begin())
        assert profiler.phase_count("engine.dispatch") == 4
        assert profiler.phase_seconds("engine.dispatch") >= 0.0
        assert profiler.phase_count("engine.calendar") == 0

    def test_breakdown_round_trips(self):
        profiler = perf.PerfProfiler()
        profiler.host_commit("engine.dispatch", profiler.host_begin(), n=2)
        profiler.bind(None)
        profiler.finish(None, None)
        breakdown = profiler.breakdown()
        back = perf.HostBreakdown.from_dict(breakdown.to_dict())
        assert back == breakdown
        assert back.count("engine.dispatch") == 2

    def test_breakdown_fractions_and_table(self):
        breakdown = perf.HostBreakdown(
            wall_s=2.0, phases={"engine.dispatch": {"s": 1.0, "n": 10.0},
                                "custom.phase": {"s": 0.5, "n": 1.0}})
        assert breakdown.fraction("engine.dispatch") == pytest.approx(0.5)
        assert breakdown.seconds("custom.phase") == pytest.approx(0.5)
        assert breakdown.fraction("missing") == 0.0
        table = breakdown.format_table()
        assert "engine.dispatch" in table
        assert "custom.phase" in table       # unknown phases still print
        assert "overlap" in table            # the not-a-partition caveat

    def test_profiling_installs_and_restores_the_slot(self):
        assert obs_hooks.active is None
        outer, inner = perf.PerfProfiler(), perf.PerfProfiler()
        with obs_hooks.observing(outer) as outer_probe:
            assert obs_hooks.active is outer_probe
            with obs_hooks.observing(inner) as inner_probe:
                assert inner_probe.recorders == (inner,)
            assert obs_hooks.active is outer_probe
        assert obs_hooks.active is None


# -- profiling is pure observation -----------------------------------------

class TestBitIdentity:
    def test_profiled_reference_run_is_bit_identical(self, profiled_fft):
        profiled, _machine, _profiler = profiled_fft
        plain = tiny_machine().run(make_app("fft", TINY_SCALE))
        assert profiled.to_dict() == plain.to_dict()

    def test_dispatch_phase_covers_every_event(self, profiled_fft):
        _result, machine, profiler = profiled_fft
        assert (profiler.phase_count(perf.DISPATCH)
                == machine.env.events_processed)
        assert profiler.phase_count(perf.CALENDAR) > 0
        assert profiler.phase_count(perf.ROWS_SCALAR) > 0
        breakdown = profiler.breakdown()
        assert 0.0 < breakdown.fraction(perf.DISPATCH)
        assert breakdown.wall_s > 0.0


# -- the BENCH perf ledger -------------------------------------------------

def record(case="fft@simos-mipsy-150/P1/tiny/ref", **kwargs):
    return perf.BenchRecord(bench="unit", case=case, wall_s=1.0, **kwargs)


class TestBenchLedger:
    def test_make_case(self):
        assert (perf.make_case("fft", "hardware", 4, "repro", "ref")
                == "fft@hardware/P4/repro/ref")

    def test_record_round_trips(self):
        original = record(events=100, events_per_sec=100.0, speedup=2.0,
                          host_phases={"wall_s": 1.0, "phases": {}})
        back = perf.BenchRecord.from_dict(original.to_dict())
        assert back == original
        assert not perf.validate_bench_record(original.to_dict())

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
                   for p in perf.validate_bench_record(payload))

    def test_run_record_folds_a_profiled_run(self, profiled_fft):
        result, machine, profiler = profiled_fft
        events = machine.env.events_processed
        rec = perf.run_record("unit", "fft@simos-mipsy-150/P1/tiny/ref",
                              0.5, result=result, events=events,
                              profiler=profiler, speedup=2.0)
        assert rec.sim_ps == result.total_ps
        assert rec.events_per_sec == pytest.approx(events / 0.5)
        assert rec.host_phases["phases"]
        assert not perf.validate_bench_record(rec.to_dict())

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
        assert report.cases_checked == 0
        assert report.cases_unmatched == 1
        assert "no regression" in report.format()


# -- the CLI ---------------------------------------------------------------

class TestPerfCli:
    ARGS = ["perf", "fft", "--config", "simos-mipsy-150", "--scale", "tiny"]

    def test_records_a_profiled_run(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        assert obs_main(self.ARGS + ["--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "engine.dispatch" in out
        records = perf.read_bench(path)
        assert [r.case for r in records] == ["fft@simos-mipsy-150/P1/tiny/ref"]
        assert records[0].host_phases["phases"]

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
