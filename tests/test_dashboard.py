"""Tests for the validation dashboard renderer."""

import json

import pytest

from repro.harness.findings import ExperimentResult, Finding
from repro.obs import metrics as obs_metrics
from repro.obs.diff import AttributionDiff, CategoryDelta
from repro.validation.dashboard import (
    collect_attributions,
    group_ledger,
    render_dashboard,
    render_html,
    render_markdown,
)


def waterfall_payload():
    return AttributionDiff(
        workload="fft", ref_config="hardware",
        cand_config="solo-mipsy-150-tuned", n_cpus=1, scale_name="tiny",
        ref_machine_ps=1000, cand_machine_ps=1100,
        ref_parallel_ps=900, cand_parallel_ps=1000,
        overall=[CategoryDelta("busy", 600.0, 750.0),
                 CategoryDelta("tlb", 400.0, 0.0),
                 CategoryDelta("mem", 0.0, 350.0)],
        per_cpu={0: [CategoryDelta("busy", 600.0, 750.0)]},
    ).to_dict()


def tuning_payload():
    return {"kind": "tuning", "reference": "hardware", "rounds": 2,
            "tlb_refill_cycles": {"before": 25.0, "after": 65.0,
                                  "target": 65.0},
            "l2_port_occupancy_cycles": 4.5,
            "case_extra_adjust_ps": {"local_clean": 100},
            "case_error_before": {"local_clean": -0.30},
            "case_error_after": {"local_clean": 0.01}}


def topo_payload():
    from repro.obs.hotspot import build_report
    from repro.obs.topo import TopoRecorder

    rec = TopoRecorder(region="line", line_bytes=128)
    # Hotspot shape: node 0 homes almost everything (node-0 placement).
    for requester in range(4):
        for i in range(10):
            rec.mem_access(requester, 0, i * 128, "read", 0, 500)
    rec.mem_access(1, 1, (1 << 28) + 128, "write", 0, 100)
    rec.dir_transition(0, 0, "to_shared", 3)
    rec.net_msg(1, 0, 4, [(1, 0)])
    rec.n_nodes = 4
    rec.take_sample(1000)
    rec.take_sample(2000)
    payload = build_report(rec).to_dict()
    payload["config_name"] = "hardware"
    payload["workload_name"] = "radix"
    return payload


def results():
    return [
        ExperimentResult(
            exp_id="table1", title="machine geometry", rendered="geometry…",
            findings=[Finding("cpus", "64", "64", True)],
            wall_seconds=1.0, scale_name="tiny", farm_hits=1, farm_runs=2),
        ExperimentResult(
            exp_id="fig2", title="simulator vs hardware", rendered="bars…",
            findings=[
                Finding("solo fast", "<1", "0.7", True,
                        attribution=waterfall_payload()),
                Finding("mxs close", "~1", "1.4", False, note="slow model"),
            ],
            wall_seconds=2.0, scale_name="tiny"),
        ExperimentResult(
            exp_id="fig5", title="speedup trend", rendered="curve…",
            findings=[Finding("monotone", "yes", "yes", True)],
            wall_seconds=0.5, scale_name="tiny"),
        ExperimentResult(
            exp_id="tuning_loop", title="calibration", rendered="knobs…",
            findings=[], wall_seconds=0.5, scale_name="tiny",
            attribution=tuning_payload()),
        ExperimentResult(
            exp_id="fig7", title="unplaced radix hotspot", rendered="rows…",
            findings=[Finding("hotspot", "poor", "poor", True)],
            wall_seconds=0.5, scale_name="tiny",
            attribution=topo_payload()),
    ]


def ledger_records(n=4):
    out = []
    for i in range(n):
        out.append(obs_metrics.LedgerRecord(
            key="k", config="hardware", workload="fft", n_cpus=1,
            scale="tiny", seed=7, parallel_ps=1000 + 10 * i, total_ps=1100,
            instructions=50.0, wall_s=0.2, outcome="run",
            percent_error=None if i == 0 else 1.0 * i, ts=float(i)))
    return out


def bench_records():
    from repro.obs.metrics import BenchRecord

    return [
        BenchRecord(bench="engine_hotpath",
                    case="fft@simos-mipsy-150/P1/repro/ref",
                    wall_s=1.25, events=100000, events_per_sec=80000.0),
        BenchRecord(bench="farm",
                    case="fig6@farm-jobs2/P2/tiny/warm",
                    wall_s=0.2, speedup=6.25),
    ]


class TestHelpers:
    def test_collect_attributions_finds_both_levels(self):
        found = collect_attributions(results())
        owners = {(e, o) for e, o, _ in found}
        assert ("fig2", "solo fast") in owners
        assert ("tuning_loop", "") in owners
        assert ("fig7", "") in owners
        assert len(found) == 3

    def test_group_ledger_keys_by_run_identity(self):
        groups = group_ledger(ledger_records())
        assert list(groups) == [("fft", "hardware", 1, "tiny")]
        assert len(groups[("fft", "hardware", 1, "tiny")]) == 4


class TestMarkdown:
    def test_headline_and_experiment_table(self):
        text = render_markdown(results())
        assert "**4/5 shape checks hold**" in text
        assert "| `fig2` simulator vs hardware | 1/2 | ✗ 1 off |" in text
        assert "mxs close" in text     # failing check is listed

    def test_waterfall_and_tuning_sections(self):
        text = render_markdown(results())
        assert "## Where the error comes from" in text
        assert "| tlb |" in text and "| residual |" in text
        assert "TLB refill 25 → 65 cycles (target 65)" in text

    def test_where_in_the_machine_section(self):
        text = render_markdown(results())
        assert "## Where in the machine" in text
        # The hotspot signature: node 0 takes nearly all home traffic.
        assert "hottest home node 0" in text
        assert "| req\\home |" in text
        assert "Top hot lines (128 B):" in text
        assert "Busiest link `1->0`" in text

    def test_topo_payload_is_not_mistaken_for_a_waterfall(self):
        from repro.validation.dashboard import _is_topo, _is_waterfall
        payload = topo_payload()
        assert _is_topo(payload)
        assert not _is_waterfall(payload)
        assert not _is_topo(waterfall_payload())
        assert not _is_topo(tuning_payload())

    def test_trend_and_ledger_sections(self):
        text = render_markdown(results(), ledger_records())
        assert "## Trend agreement" in text and "`fig5` monotone" in text
        assert "## Ledger trends" in text
        assert "fft@hardware/P1/tiny" in text
        assert "▁" in text and "█" in text   # the sparkline

    def test_no_ledger_means_no_trends_section(self):
        assert "## Ledger trends" not in render_markdown(results())

    def test_bench_records_render_the_simulator_speed_section(self):
        text = render_markdown(results(), bench_records=bench_records())
        assert "## How fast is the simulator" in text
        assert "`fft@simos-mipsy-150/P1/repro/ref`" in text
        assert "80,000" in text and "6.2x" in text

    def test_no_bench_records_means_no_speed_section(self):
        assert "How fast is the simulator" not in render_markdown(results())


class TestHtml:
    def test_self_contained_document_with_status_glyphs(self):
        html = render_html(results(), ledger_records())
        assert html.startswith("<!doctype html>")
        assert "<link" not in html and "<script" not in html
        assert "prefers-color-scheme: dark" in html
        # Status is never color alone: glyph + label ride along.
        assert "✓ 1/1 checks" in html and "✗ 1/2 checks" in html

    def test_waterfall_rows_and_sparkline_svg(self):
        html = render_html(results(), ledger_records())
        assert 'class="wf"' in html and "residual" in html
        assert "<svg class=spark" in html and "<polyline" in html

    def test_where_in_the_machine_section(self):
        html = render_html(results())
        assert "Where in the machine" in html
        assert "req\\home" in html
        # The hottest matrix cell gets a heat-shaded background.
        assert "color-mix" in html

    def test_content_is_escaped(self):
        rows = results()
        rows[0].rendered = "<script>alert(1)</script>"
        html = render_html(rows)
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;" in html

    def test_bench_records_render_the_simulator_speed_table(self):
        html = render_html(results(), bench_records=bench_records())
        assert "How fast is the simulator" in html
        assert "fft@simos-mipsy-150/P1/repro/ref" in html
        assert "6.2x" in html


class TestRenderDashboard:
    def test_writes_both_files_in_one_call(self, tmp_path):
        html_path, md_path = render_dashboard(
            results(), tmp_path / "out", ledger_records())
        assert html_path.name == "dashboard.html" and html_path.exists()
        assert md_path.name == "dashboard.md" and md_path.exists()
        assert "Validation dashboard" in md_path.read_text()

    def test_round_trips_through_serialized_findings(self, tmp_path):
        """Dashboards built from findings JSON (a prior run's snapshot)
        render the same attributions."""
        revived = [ExperimentResult.from_dict(
                       json.loads(json.dumps(r.to_dict())))
                   for r in results()]
        text = render_markdown(revived)
        assert "## Where the error comes from" in text
        assert "| tlb |" in text
