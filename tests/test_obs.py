"""Tests for the repro.obs observability subsystem."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.config import get_scale
from repro.common.errors import SimulationError
from repro.obs import hooks as obs_hooks
from repro.obs import hotspot
from repro.obs import txn as obs_txn
from repro.obs.export import chrome_trace, flame_summary, write_chrome_trace
from repro.obs.profile import CATEGORIES, build_breakdown
from repro.obs.topo import RingBuffer, TopoRecorder
from repro.obs.trace import Span, TraceRecorder
from repro.obs.txn import TxnRecorder
from repro.sim.configs import get_config
from repro.sim.machine import Machine, run_workload
from repro.sim.request import RunRequest
from repro.workloads import make_app


@pytest.fixture(autouse=True)
def _nothing_observing():
    """Every test starts and ends with the probe slot empty."""
    assert obs_hooks.active is None
    yield
    assert obs_hooks.active is None


class TestRingBuffer:
    def test_records_in_order_below_capacity(self):
        rec = TraceRecorder(capacity=8)
        for i in range(5):
            rec.span(i * 10, "cat", f"e{i}", dur_ps=1, args=0)
        assert rec.recorded == 5
        assert rec.dropped == 0
        assert len(rec) == 5
        assert [s.name for s in rec.spans()] == ["e0", "e1", "e2", "e3", "e4"]

    def test_wraparound_keeps_newest_chronologically(self):
        rec = TraceRecorder(capacity=4)
        for i in range(10):
            rec.span(i, "cat", f"e{i}")
        assert rec.recorded == 10
        assert rec.dropped == 6
        assert len(rec) == 4
        spans = rec.spans()
        assert [s.name for s in spans] == ["e6", "e7", "e8", "e9"]
        assert [s.t_ps for s in spans] == sorted(s.t_ps for s in spans)

    def test_aggregates_survive_wraparound(self):
        rec = TraceRecorder(capacity=2)
        for i in range(100):
            rec.span(i, "tlb", "refill", dur_ps=3, args=1)
        agg = rec.aggregates()
        assert agg[(1, "tlb", "refill")] == (100, 300)

    def test_span_cpu_extraction(self):
        assert Span(0, "c", "n", 0, 5).cpu == 5
        assert Span(0, "c", "n", 0, {"cpu": 2, "x": 1}).cpu == 2
        assert Span(0, "c", "n", 0, None).cpu is None
        assert Span(0, "c", "n", 0, {"node": 3}).cpu is None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    @given(st.integers(1, 12), st.lists(st.integers(0, 10 ** 6), max_size=40))
    def test_both_rings_keep_exactly_the_newest_capacity(self, capacity,
                                                        pushed):
        # Differential against the specification: pushed[-capacity:].
        kept = pushed[-capacity:]
        ring = RingBuffer(capacity)
        rec = TraceRecorder(capacity=capacity)
        for value in pushed:
            ring.push(float(value))
            rec.span(value, "cat", "e")
        assert ring.values() == [float(v) for v in kept]
        assert [s.t_ps for s in rec.spans()] == kept
        assert len(ring) == len(rec) == len(kept)
        assert ring.pushed == rec.recorded == len(pushed)
        assert ring.dropped == rec.dropped == len(pushed) - len(kept)

    def test_counter_set_view_uses_registry_naming(self):
        rec = TraceRecorder(capacity=8)
        rec.span(0, "tlb", "refill", dur_ps=100, args=0)
        rec.span(0, "net", "msg", dur_ps=50, args=None)
        cs = rec.as_counter_set()
        assert cs.get("cpu0.tlb.refill.events") == 1
        assert cs.get("cpu0.tlb.refill.dur_ps") == 100
        assert cs.get("net.msg.dur_ps") == 50


class TestHooks:
    def test_disabled_by_default(self):
        assert obs_hooks.active is None

    def test_tracing_context_installs_and_restores(self):
        rec = TraceRecorder(capacity=16)
        with obs_hooks.observing(rec) as probe:
            assert obs_hooks.active is probe
            assert probe.recorders == (rec,)
        assert obs_hooks.active is None

    def test_tracing_context_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs_hooks.observing(TraceRecorder()):
                raise RuntimeError("boom")
        assert obs_hooks.active is None

    def test_nested_tracing_restores_outer(self):
        with obs_hooks.observing(TraceRecorder()) as outer:
            with obs_hooks.observing(TopoRecorder()) as inner:
                assert obs_hooks.active is inner
            assert obs_hooks.active is outer

    def test_probe_fans_each_event_to_its_subscribers_only(self):
        tracer, topo, txn = TraceRecorder(), TopoRecorder(), TxnRecorder()
        probe = obs_hooks.Probe(tracer, topo, txn)
        probe.cache_miss("l2", 0, 0x1000)        # all three fold it
        probe.span(5, "mem", "load_miss", 7, 0)  # tracer only
        probe.drain(3)                           # txn only
        assert tracer.recorded == 2
        assert topo.struct_misses == {"l2": 1}
        assert (txn.cache_misses, txn.write_drains) == ({"l2": 1}, 1)
        # Unsubscribed events are inert, and open_txn yields no record
        # without a txn recorder (so the DSM's txn.cut guards stay off).
        assert obs_hooks.Probe(topo).open_txn(0, 0, "read") is None
        assert obs_hooks.Probe(tracer).drain(3) is None


def _tiny_run(tracer=None, workload="fft", n_cpus=2):
    scale = get_scale("tiny")
    config = get_config("simos-mipsy-150-tuned")
    wl = make_app(workload, scale)
    if tracer is None:
        return run_workload(config, wl, n_cpus)
    with obs_hooks.observing(tracer):
        return run_workload(config, wl, n_cpus)


class TestDisabledNoOp:
    def test_untraced_run_records_nothing_and_has_no_breakdown(self):
        scale = get_scale("tiny")
        config = get_config("simos-mipsy-150-tuned")
        machine = Machine(config, 2, scale)
        result = machine.run(make_app("fft", scale))
        assert "breakdown" not in result.to_dict()
        assert machine.env.tracer is None

    def test_engine_events_off_by_default(self):
        rec = TraceRecorder(capacity=1024)
        scale = get_scale("tiny")
        machine = Machine(get_config("simos-mipsy-150-tuned"), 2, scale)
        with obs_hooks.observing(rec):
            machine.run(make_app("fft", scale))
        assert machine.env.tracer is None
        assert all(s.category != "engine" for s in rec.spans())


class TestOneRunFeedsEveryRecorder:
    """The subscriber property: observing changes nothing -- not the
    result, not its cache key -- and a recorder sees the same stream
    whether it listens alone or with the others."""

    @staticmethod
    def request():
        return RunRequest(get_config("hardware"),
                          make_app("fft", get_scale("tiny")), 4)

    @classmethod
    def run(cls, *recorders):
        request = cls.request()
        with obs_hooks.observing(*recorders):
            return request.execute()

    @pytest.fixture(scope="class")
    def plain(self):
        return self.request().execute()

    @pytest.fixture(scope="class")
    def together(self):
        recorders = (TraceRecorder(), TopoRecorder(), TxnRecorder())
        return recorders, self.run(*recorders)

    def test_result_equals_the_unobserved_run(self, together, plain):
        _recorders, observed = together
        assert observed == plain

    @pytest.mark.parametrize("recorders", [
        (), (TraceRecorder,), (TopoRecorder,), (TxnRecorder,),
        (TraceRecorder, TopoRecorder, TxnRecorder),
    ], ids=["none", "trace", "topo", "txn", "all"])
    def test_observing_changes_neither_result_nor_key(self, recorders,
                                                      plain):
        request = self.request()
        key = request.cache_key()
        with obs_hooks.observing(*(make() for make in recorders)):
            assert request.cache_key() == key
            observed = request.execute()
        assert observed == plain

    def test_each_report_equals_its_solo_run(self, together):
        (tracer, topo, txn), observed = together
        solo_tracer, solo_topo, solo_txn = (TraceRecorder(), TopoRecorder(),
                                            TxnRecorder())
        self.run(solo_tracer)
        solo_spatial = self.run(solo_topo)
        solo_anatomy = self.run(solo_txn)
        assert build_breakdown(tracer) == build_breakdown(solo_tracer)
        assert (hotspot.build_report(topo, observed).to_dict()
                == hotspot.build_report(solo_topo, solo_spatial).to_dict())
        assert (obs_txn.build_report(txn, observed).to_dict()
                == obs_txn.build_report(solo_txn, solo_anatomy).to_dict())


class TestChromeExport:
    def test_schema_validity(self):
        rec = TraceRecorder(capacity=64)
        rec.span(1_000_000, "mem", "load_miss", dur_ps=2_000_000, args=0)
        rec.span(3_000_000, "sync", "barrier_arrive", 0,
                 {"cpu": 1, "bid": 7})
        rec.span(4_000_000, "net", "msg", dur_ps=500_000,
                 args={"src": 0, "dst": 1})
        doc = json.loads(json.dumps(chrome_trace(rec)))
        assert isinstance(doc["traceEvents"], list)
        non_meta = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert len(non_meta) == 3
        for event in doc["traceEvents"]:
            for key in ("name", "ph", "ts", "pid", "tid"):
                assert key in event, f"missing {key!r} in {event}"
        complete = [e for e in non_meta if e["ph"] == "X"]
        instants = [e for e in non_meta if e["ph"] == "i"]
        assert len(complete) == 2 and len(instants) == 1
        assert all("dur" in e for e in complete)
        assert all(e["s"] == "t" for e in instants)
        # ps -> us conversion
        assert complete[0]["ts"] == pytest.approx(1.0)
        assert complete[0]["dur"] == pytest.approx(2.0)

    def test_write_chrome_trace_roundtrip(self, tmp_path):
        rec = TraceRecorder(capacity=16)
        rec.span(0, "cpu", "total", 100, 0)
        path = tmp_path / "trace.json"
        write_chrome_trace(rec, str(path))
        doc = json.loads(path.read_text())
        assert doc["otherData"]["recorded"] == 1

    def test_flame_summary_lists_heaviest_first(self):
        rec = TraceRecorder(capacity=16)
        rec.span(0, "mem", "load_miss", 500, 0)
        rec.span(0, "tlb", "refill", 2000, 0)
        text = flame_summary(rec)
        assert text.index("tlb;refill") < text.index("mem;load_miss")

    def test_flame_summary_empty(self):
        assert "no spans" in flame_summary(TraceRecorder(capacity=4))


class TestBreakdownIntegration:
    def test_fft_on_flashlite_fractions_sum_to_one(self):
        rec = TraceRecorder(capacity=32768)
        _tiny_run(rec, workload="fft", n_cpus=2)
        breakdown = build_breakdown(rec)
        assert len(breakdown.per_cpu) == 2
        for row in breakdown.per_cpu:
            assert row.total_ps > 0
            total = sum(row.fractions().values())
            assert total == pytest.approx(1.0, abs=0.01)
            # FFT at tiny scale misses the TLB and the caches: the
            # attribution must see real stall time, not just "busy".
            assert row.fraction("busy") < 1.0
            assert row.fraction("tlb") > 0.0
            assert row.fraction("mem") > 0.0
        overall = breakdown.overall()
        assert sum(overall.fraction(cat) for cat in CATEGORIES) == (
            pytest.approx(1.0, abs=0.01))

    def test_breakdown_table_renders_every_cpu(self):
        rec = TraceRecorder(capacity=8192)
        _tiny_run(rec, n_cpus=2)
        breakdown = build_breakdown(rec)
        rows = [line.split() for line in
                breakdown.format_table().splitlines()]
        # Header, one row per CPU, then ALL: every fraction printed.
        assert rows[0] == ["cpu", "total_ms", *(f"{c}%" for c in CATEGORIES)]
        expected = [*breakdown.per_cpu, breakdown.overall()]
        assert len(rows) == 1 + len(expected) == 4
        for cells, row in zip(rows[1:], expected):
            assert cells == [
                "ALL" if row.cpu < 0 else str(row.cpu),
                f"{row.total_ps / 1e9:.3f}",
                *(f"{100.0 * row.fraction(c):.1f}" for c in CATEGORIES)]

    def test_breakdown_exact_after_ring_wrap(self):
        # A ring far too small for the run: the timeline drops spans but
        # the attribution (fed by aggregates) still sums to 1.
        rec = TraceRecorder(capacity=64)
        _tiny_run(rec, n_cpus=2)
        assert rec.dropped > 0
        for row in build_breakdown(rec).per_cpu:
            assert sum(row.fractions().values()) == pytest.approx(1.0, abs=0.01)

    def test_spans_cover_paper_categories(self):
        rec = TraceRecorder(capacity=65536)
        _tiny_run(rec, n_cpus=2)
        categories = {cat for (_cpu, cat, _name) in rec.aggregates()}
        # The error-source taxonomy: TLB, memory, DSM occupancy, network,
        # synchronisation, per-CPU execution.
        assert {"tlb", "mem", "dsm", "net", "sync", "cpu", "cache"} <= categories

    def test_build_breakdown_scales_oversubscribed_stalls(self):
        rec = TraceRecorder(capacity=16)
        rec.span(0, "cpu", "total", 100, 0)
        rec.span(0, "tlb", "refill", 90, 0)
        rec.span(0, "mem", "load_miss", 90, 0)  # 180 > 100 total
        row = build_breakdown(rec).per_cpu[0]
        assert sum(row.fractions().values()) == pytest.approx(1.0)
        assert row.fraction("busy") == 0.0
        assert row.fraction("tlb") == pytest.approx(0.5)

    def test_breakdown_without_stalls_is_all_busy(self):
        rec = TraceRecorder(capacity=16)
        rec.span(0, "cpu", "total", 100, 3)
        row = build_breakdown(rec).per_cpu[0]
        assert row.cpu == 3
        assert row.fraction("busy") == pytest.approx(1.0)

    def test_overall_is_cycle_weighted_not_a_fraction_average(self):
        # Regression: overall() must weight each CPU by its cycles.  CPU 0
        # runs 1000 ps with half its time in TLB refills; CPU 1 runs 3000
        # ps with none.  Machine-wide that is 500/4000 = 12.5% tlb -- an
        # unweighted mean of the per-CPU fractions would wrongly say 25%.
        from repro.obs.profile import CpuBreakdown, RunBreakdown

        breakdown = RunBreakdown([
            CpuBreakdown(0, 1000, {"busy": 500.0, "tlb": 500.0}),
            CpuBreakdown(1, 3000, {"busy": 3000.0}),
        ])
        overall = breakdown.overall()
        assert overall.total_ps == 4000
        assert overall.fraction("tlb") == pytest.approx(0.125)
        assert overall.fraction("busy") == pytest.approx(0.875)
        assert sum(overall.fractions().values()) == pytest.approx(1.0)


class TestMachineSingleUse:
    def test_second_run_raises(self):
        scale = get_scale("tiny")
        machine = Machine(get_config("simos-mipsy-150-tuned"), 2, scale)
        workload = make_app("fft", scale)
        machine.run(workload)
        with pytest.raises(SimulationError, match="single-use"):
            machine.run(workload)


class TestCli:
    def test_breakdown_and_trace(self, tmp_path, capsys):
        from repro.obs.cli import main

        out = tmp_path / "trace.json"
        rc = main(["fft", "--scale", "tiny", "--cpus", "2",
                   "--breakdown", "--flame", "--obs-stats",
                   "--trace", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "cycle attribution" in printed
        assert "busy%" in printed
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        # CLI must leave the module hook cleared for the next run.
        assert obs_hooks.active is None

    def test_unknown_config_rejected(self, capsys):
        from repro.obs.cli import main

        assert main(["fft", "--scale", "tiny", "--config", "nope"]) == 2
        assert "unknown simulator configuration" in capsys.readouterr().err
