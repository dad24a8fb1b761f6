"""Tests for the validation dashboard renderer."""

import json
import re

import pytest

from repro.harness.findings import ExperimentResult, Finding
from repro.obs import metrics as obs_metrics
from repro.obs.diff import AttributionDiff, CategoryDelta
from repro.obs import doc
from repro.validation import dashboard
from repro.validation.dashboard import (
    collect_attributions,
    dashboard_blocks,
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
    from repro.validation.tuning import TuningReport

    return TuningReport(
        reference_name="hardware", rounds=2,
        target_cases_ns={"local_clean": 587.0},
        before_cases_ns={"local_clean": 411.0},
        after_cases_ns={"local_clean": 593.0},
        target_tlb_cycles=65.0, before_tlb_cycles=25.0,
        after_tlb_cycles=65.0, port_occupancy_cycles=4.5,
        case_extra_adjust_ps={"local_clean": 100}).to_dict()


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


def txn_payload():
    from repro.obs.txn import TxnRecorder, build_report

    rec = TxnRecorder()
    for start, waited in ((0, 0), (1000, 400)):
        txn = rec.open_txn(1, 128, "read")
        txn.begin(start)
        txn.cut("bus_req", start + 85_000)
        txn.add_wait("magic0.pp", waited)
        txn.cut("pp_home", start + 300_000 + waited)
        txn.close(start + 300_000 + waited, "remote_clean")
        rec.commit_txn(txn)
    return build_report(rec).to_dict()


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
        # An earlier run of the case below: history, not a row of its own.
        BenchRecord(bench="engine_hotpath",
                    case="fft@simos-mipsy-150/P1/repro/ref",
                    wall_s=2.5, events=100000, events_per_sec=40000.0),
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

    def test_ledger_series_key_is_the_run_identity(self):
        groups = obs_metrics.by_series(ledger_records())
        assert list(groups) == ["fft@hardware/P1/tiny"]
        assert len(groups["fft@hardware/P1/tiny"]) == 4


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
        assert ("calibration against `hardware`: converged in 2 round(s), "
                "max case error 1.0%") in text
        assert "- TLB refill 25 → 65 cycles (target 65)" in text
        assert "- L2 interface occupancy 4.5 cycles" in text
        assert ("| local_clean | 411 | 593 | 587 | -30.0% | +1.0% | +100 |"
                in text)

    def test_where_in_the_machine_section(self):
        text = render_markdown(results())
        assert "## Where in the machine" in text
        # The hotspot signature: node 0 takes nearly all home traffic.
        assert "hottest home node 0" in text
        assert "| req\\home |" in text
        assert "Top hot lines (128 B):" in text
        assert "Busiest link `1->0`" in text

    def test_payload_kind_names_every_registered_kind(self):
        payload_kind = dashboard.payload_kind
        assert payload_kind(topo_payload()) == "topo"
        assert payload_kind(txn_payload()) == "txn"
        assert payload_kind(tuning_payload()) == "tuning"
        # Waterfalls are untagged: recognised by their `overall` rows.
        assert payload_kind(waterfall_payload()) == "waterfall"
        assert payload_kind({"kind": "mystery"}) is None
        assert payload_kind({}) is None
        assert payload_kind("not a payload") is None

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
        # One row per case: its latest record, its history as a trend.
        row = next(line for line in text.splitlines()
                   if "fft@simos-mipsy-150/P1/repro/ref" in line)
        assert "| 2 |" in row and "1.250" in row and "█" in row
        assert "40,000" not in text

    def test_no_bench_records_means_no_speed_section(self):
        assert "How fast is the simulator" not in render_markdown(results())


class TestHtml:
    def test_self_contained_document_with_status_glyphs(self):
        html = render_html(results(), ledger_records())
        assert html.startswith("<!doctype html>")
        assert "<link" not in html and "<script" not in html
        assert "prefers-color-scheme: dark" in html
        # Status is never color alone: glyph + label ride along.
        assert ("<td><code>table1</code> machine geometry</td>"
                "<td class=num>1/1</td><td><span class=ok>✓</span> ok</td>"
                in html)
        assert ("<td><code>fig2</code> simulator vs hardware</td>"
                "<td class=num>1/2</td><td><span class=bad>✗</span> 1 off"
                "</td>" in html)

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


def md_headings(text):
    return [(len(m[1]), m[2].replace("`", ""))
            for m in re.finditer(r"^(#+) (.*)$", text, re.M)]


def html_headings(page):
    return [(int(m[1]), re.sub(r"<[^>]+>", "", m[2]))
            for m in re.finditer(r"<h(\d)>(.*?)</h\d>", page)]


class TestOneDocumentTwoFiles:
    @pytest.mark.parametrize("only", [None, "fig7"])
    def test_headings_agree_and_no_section_is_empty(self, only):
        rows = [r for r in results() if only in (None, r.exp_id)]
        md = render_markdown(rows, ledger_records(),
                             bench_records=bench_records())
        page = render_html(rows, ledger_records(),
                           bench_records=bench_records())
        headings = md_headings(md)
        assert headings == html_headings(page)
        sections = [title for level, title in headings if level == 2]
        if only == "fig7":
            # topo evidence but no waterfall or tuning payload: no
            # "Where the error comes from" heading in either file.
            assert sections == ["Paper vs. measured", "Where in the machine",
                                "Trend agreement", "Ledger trends",
                                "How fast is the simulator"]
        else:
            assert "Where the error comes from" in sections
        # A section heading is followed by body, never by the next
        # heading of its own level or the end of the document.
        blocks = dashboard_blocks(rows, ledger_records(),
                                  bench_records=bench_records())
        for block, after in zip(blocks, blocks[1:] + [None]):
            if isinstance(block, doc.Heading) and block.level == 2:
                assert after is not None
                assert not (isinstance(after, doc.Heading)
                            and after.level <= 2), block.text

    def test_each_experiment_section_is_its_own_blocks(self):
        """The dashboard reuses ExperimentResult.blocks one level down:
        the findings have one description, not a dashboard copy."""
        rows = results()
        blocks = dashboard_blocks(rows)
        for result in rows:
            own = result.blocks(3)
            start = blocks.index(own[0])
            assert blocks[start:start + len(own)] == own

    def test_a_new_payload_kind_costs_one_block_function(self, monkeypatch):
        def probe_blocks(payload):
            return [doc.Para(f"probe saw `{payload['what']}`"),
                    doc.Table("tn", ["what", "n"],
                              [[payload["what"], payload["n"]]])]

        monkeypatch.setitem(dashboard.PAYLOAD_VIEWS, "probe",
                            ("What the probe saw", probe_blocks))
        rows = results()
        rows[0].attribution = {"kind": "probe", "what": "<quarks>", "n": 42}
        assert dashboard.payload_kind(rows[0].attribution) == "probe"
        blocks = dashboard_blocks(rows)
        text = doc.render_text(blocks)
        md = doc.render_markdown(blocks)
        page = doc.render_html(blocks, "t")
        for out in (text, md):
            assert "What the probe saw" in out and "<quarks>" in out
            assert "42" in out
        assert "## What the probe saw" in md
        assert "<h2>What the probe saw</h2>" in page
        assert "probe saw <code>&lt;quarks&gt;</code>" in page
        assert "<td class=num>42</td>" in page
        # Registered last, so its section follows the built-in three.
        assert md.index("## Where in the machine") < \
            md.index("## What the probe saw") < md.index("## Trend agreement")

    def test_txn_view_carries_mix_and_slowest_table_in_both_files(self):
        rows = results()
        rows[1].attribution = txn_payload()
        md, page = render_markdown(rows), render_html(rows)
        for out in (md, page):
            assert "Where does latency come from" in out
            assert "% wait" in out                 # the wait/service mix
            assert "slowest 2:" in out
            assert "pp_home" in out and "residual" in out
        assert 'class="wf split"' in page

    def test_topo_view_carries_links_and_occupancy_in_both_files(self):
        payload = topo_payload()
        payload["occupancy"]["magic0.pp.queue"] = {
            "mean": 0.5, "max": 2.0, "last": 0.0,
            "series": [0.0, 2.0, 1.0, 0.0]}
        rows = results()
        rows[-1].attribution = payload
        md, page = render_markdown(rows), render_html(rows)
        for out in (md, page):
            assert "Busiest link" in out and "queue occupancy" in out
            assert "magic0.pp.queue" in out
        assert "▁█▅▁" in md and "<svg class=spark" in page
