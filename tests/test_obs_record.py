"""The contract of repro.obs.record: one dict codec under every report
and ledger row.

Two layers: the codec's promises checked over a small instance of each
of the ``Record`` classes under ``repro.obs``, the bisector's
``DivergenceReport``, the calibration's ``TuningReport`` and the
harness's ``Finding``/``ExperimentResult`` (round trip,
JSON, copies in both directions, strictness, defaults; a report view
renders the same from its payload), then the payloads an earlier codec
wrote -- the three committed payload goldens -- read back equal with no
simulation.
"""

import copy
import dataclasses
import json
from pathlib import Path

import pytest

from repro.obs.bisect import DivergenceReport
from repro.common.errors import ConfigurationError
from repro.harness.findings import ExperimentResult, Finding
from repro.obs.diff import AttributionDiff, CategoryDelta
from repro.obs.doc import render_markdown, render_text
from repro.obs.hotspot import HotRegion, HotspotReport
from repro.obs.metrics import BenchRecord, Flag, GateReport, LedgerRecord
from repro.obs.profile import CpuBreakdown, RunBreakdown
from repro.obs.txn import TxnReport
from repro.validation.tuning import TuningReport

GOLDEN = Path(__file__).parent / "golden"

HOT = HotRegion(region=3, base_paddr=0x180, home=1, accesses=4, remote=2,
                mean_latency_ps=812.125, requesters=[0, 1], peak_sharers=2)
DELTAS = [CategoryDelta("busy", 10.0, 12.0), CategoryDelta("tlb", 0.0, 3.5)]
DIFF = AttributionDiff(workload="fft", ref_config="hardware",
                       cand_config="solo", n_cpus=2, scale_name="tiny",
                       ref_machine_ps=200, cand_machine_ps=231,
                       ref_parallel_ps=90, cand_parallel_ps=99,
                       overall=DELTAS, per_cpu={1: DELTAS[:1], 0: DELTAS})

GATE = GateReport(gate="watch", checked=2, unmatched=1, skipped=1,
                  flags=[Flag(series="fft@hardware/P1/tiny", metric="time",
                              baseline=1000.0, latest=1200.0, change=0.2,
                              threshold=0.02)])
DIVERGENCE = DivergenceReport(
    config_a="simos-mipsy-150", config_b="simos-mipsy-225",
    workload="fft-tlb", resumed_at_ps=100, events_a=12, events_b=11, index=1, probes=4,
    event_a={"when_ps": 120, "event": "Event._fire"},
    event_b={"when_ps": 110, "event": "Steps._walk"},
    neighborhood_a=[{"index": 0, "when_ps": 100, "event": "Steps._walk"},
                    {"index": 1, "when_ps": 120, "event": "Event._fire"}],
    neighborhood_b=[{"index": 1, "when_ps": 110, "event": "Steps._walk"}],
    context_a=[{"t_ps": 120, "category": "sync", "name": "barrier_wait",
                "dur_ps": 0, "args": {"bid": 4, "cpu": 0}}])

FINDING = Finding(name="a", paper="+40%", measured="+43%", ok=True,
                  note="P=16", attribution={"kind": "topo", "samples": 2})

SAMPLES = [
    CpuBreakdown(cpu=0, total_ps=100, parts_ps={"busy": 60.0, "tlb": 40.0}),
    RunBreakdown(per_cpu=[CpuBreakdown(0, 100, {"busy": 100.0}),
                          CpuBreakdown(1, 80, {"busy": 50.0, "mem": 30.0})]),
    DELTAS[0],
    DIFF,
    HOT,
    HotspotReport(region="line", region_bytes=128, n_nodes=2,
                  matrix=[[3, 1], [2, 4]], kinds={"read": 7, "write": 3},
                  hot_regions=[HOT],
                  dir_transitions={"0": {"to_shared": 2}},
                  link_heat=[{"link": "0->1", "msgs": 3, "flits": 9,
                              "busy_ps": 5.0, "wait_ps": 0.0,
                              "queued_grants": 0.0}],
                  occupancy={"magic0.pp.queue": {"mean": 0.5, "max": 1.0,
                                                 "last": 0.0,
                                                 "series": [0.0, 1.0]}},
                  samples=2, end_ps=1000, config_name="hardware",
                  struct_misses={"l2Z0": 5}),
    TxnReport(total_txns=1,
              kinds={"read.local": {"count": 1, "buckets": [0, 1]}},
              top=[{"uid": 0, "kind": "read.local",
                    "segments": [["dram", 0, 70]]}],
              context={"cache_misses": {"l2Z0": 1}},
              residual_ps=0, residual_txns=0, end_ps=70, config="hardware"),
    LedgerRecord(key="k", config="solo", workload="fft", n_cpus=1,
                 scale="tiny", seed=1, parallel_ps=10, total_ps=11,
                 instructions=5.0, wall_s=0.1, outcome="run",
                 percent_error=-3.25, attribution={"busy": 1.0}, ts=2.5),
    BenchRecord(bench="b", case="fft@solo/P1/tiny/ref", wall_s=0.5,
                events=100, events_per_sec=200.0),
    GATE,
    DIVERGENCE,
    TuningReport(reference_name="hardware",
                 target_cases_ns={"local_clean": 587.0},
                 before_cases_ns={"local_clean": 510.0},
                 after_cases_ns={"local_clean": 586.0},
                 target_tlb_cycles=65.0, before_tlb_cycles=25.0,
                 after_tlb_cycles=65.0, port_occupancy_cycles=11.5,
                 rounds=2, case_extra_adjust_ps={"local_clean": 77_000}),
    FINDING,
    ExperimentResult(exp_id="fig7", title="hotspot", rendered="P  8  16",
                     findings=[FINDING, Finding("b", "no", "no", False)],
                     wall_seconds=1.5, scale_name="tiny", farm_hits=2,
                     farm_runs=3, attribution={"kind": "txn"}),
]


def scribble(obj):
    """Mutate every container reachable from *obj*."""
    if isinstance(obj, dict):
        for value in obj.values():
            scribble(value)
        obj["scribbled"] = True
    elif isinstance(obj, list):
        for value in obj:
            scribble(value)
        obj.append("scribbled")


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
class TestRecordContract:
    def test_round_trip_is_an_equality(self, record):
        rebuilt = type(record).from_dict(record.to_dict())
        assert rebuilt == record
        assert rebuilt.to_dict() == record.to_dict()

    def test_payload_survives_json(self, record):
        payload = json.loads(json.dumps(record.to_dict()))
        assert type(record).from_dict(payload) == record

    def test_both_directions_copy(self, record):
        pristine = copy.deepcopy(record)
        payload = record.to_dict()
        rebuilt = type(record).from_dict(payload)
        scribble(payload)
        assert record == pristine
        assert rebuilt == pristine

    def test_unknown_key_is_rejected_by_name(self, record):
        payload = record.to_dict()
        payload["wibble"] = 1
        with pytest.raises(ConfigurationError, match="wibble"):
            type(record).from_dict(payload)

    def test_foreign_kind_is_rejected(self, record):
        payload = record.to_dict()
        payload["kind"] = "somebody-else"
        with pytest.raises(ConfigurationError):
            type(record).from_dict(payload)

    def test_tagged_payload_needs_its_kind(self, record):
        payload = record.to_dict()
        assert payload.get("kind") == record.KIND
        if record.KIND is not None:
            del payload["kind"]
            with pytest.raises(ConfigurationError, match=record.KIND):
                type(record).from_dict(payload)

    def test_absent_optional_fields_take_their_defaults(self, record):
        payload = record.to_dict()
        defaults = {}
        for f in dataclasses.fields(record):
            if f.default is not dataclasses.MISSING:
                defaults[f.name] = f.default
            elif f.default_factory is not dataclasses.MISSING:
                defaults[f.name] = f.default_factory()
        for name in defaults:
            del payload[name]
        rebuilt = type(record).from_dict(payload)
        for name, default in defaults.items():
            assert getattr(rebuilt, name) == default


@pytest.mark.parametrize("report", [
    GATE, GateReport(gate="perf", checked=1),
    DIVERGENCE, dataclasses.replace(DIVERGENCE, index=None, event_a=None,
                                    event_b=None, events_b=12)])
def test_verdict_renders_the_same_from_its_payload(report):
    rebuilt = type(report).from_dict(json.loads(json.dumps(report.to_dict())))
    assert render_text(rebuilt.blocks()) == render_text(report.blocks())
    assert render_markdown(rebuilt.blocks()) == render_markdown(
        report.blocks())
    assert render_text(report.blocks()).strip()


class TestAttributionKeys:
    def test_cpu_ids_are_ints_live_and_sorted_strings_on_the_wire(self):
        assert list(DIFF.to_dict()["per_cpu"]) == ["0", "1"]
        rebuilt = AttributionDiff.from_dict(DIFF.to_dict())
        assert sorted(rebuilt.per_cpu) == [0, 1]
        assert all(isinstance(d, CategoryDelta)
                   for deltas in rebuilt.per_cpu.values() for d in deltas)


@pytest.mark.parametrize("name,cls", [
    ("attribution_fft_solo", AttributionDiff),
    ("hotspot_ocean_hardware", HotspotReport),
    ("txn_fft_hardware", TxnReport),
])
def test_committed_payloads_read_back_equal(name, cls):
    """The goldens were written by the hand-spelled codecs; this passes
    there and here, which is what pins the wire form."""
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    report = cls.from_dict(golden)
    assert report.to_dict() == golden
    assert render_text(report.blocks())
