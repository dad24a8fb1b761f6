"""The validation dashboard: one self-contained accuracy report.

``python -m repro.harness all --dashboard out/`` folds everything the
closing-the-loop machinery produces into two files:

* ``dashboard.md`` -- terminal/PR-friendly markdown: headline check
  counts, the per-experiment paper-vs-measured tables, attribution
  waterfalls for every finding that carries a *why* payload, the trend
  studies, one unicode sparkline per metrics-ledger run group, and a
  "How fast is the simulator" table fed by the committed BENCH perf
  ledgers (:mod:`repro.obs.metrics`);
* ``dashboard.html`` -- the same content as a standalone page (inline
  CSS, no external assets, light/dark via ``prefers-color-scheme``).

Chart conventions: signed attribution deltas use a diverging blue/red
pair around a neutral midline (blue = the candidate spends *less* machine
time than the reference there, red = *more*); pass/fail is a reserved
status color plus a glyph label, never color alone; sparklines are a
single series hue.
"""

from __future__ import annotations

import html as _html
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.validation.report import sparkline

#: Experiments whose findings form the "does it predict the trend" story.
TREND_EXPERIMENTS = ("fig5", "fig6", "fig7")

#: Role -> (light, dark) colors; the validated reference palette.
_PALETTE = {
    "surface": ("#fcfcfb", "#1a1a19"),
    "surface2": ("#f0efec", "#242423"),
    "ink": ("#0b0b0b", "#ffffff"),
    "ink2": ("#52514e", "#c3c2b7"),
    "grid": ("#e4e3df", "#383835"),
    "pos": ("#e34948", "#e66767"),   # candidate spends MORE (diverging warm)
    "neg": ("#2a78d6", "#3987e5"),   # candidate spends LESS (diverging cool)
    "series": ("#2a78d6", "#3987e5"),
    "good": ("#008300", "#33a033"),
    "bad": ("#e34948", "#e66767"),
}


def _is_waterfall(payload: Dict) -> bool:
    """True for AttributionDiff-shaped payloads (vs e.g. tuning records)."""
    return isinstance(payload, dict) and "overall" in payload


def _is_topo(payload: Dict) -> bool:
    """True for HotspotReport-shaped payloads (the spatial evidence)."""
    return isinstance(payload, dict) and payload.get("kind") == "topo"


def _is_txn(payload: Dict) -> bool:
    """True for TxnReport-shaped payloads (the latency anatomy)."""
    return isinstance(payload, dict) and payload.get("kind") == "txn"


def collect_attributions(results: Sequence) -> List[Tuple[str, str, Dict]]:
    """Every attribution payload in *results*: (exp_id, owner, payload)."""
    out = []
    for result in results:
        if result.attribution is not None:
            out.append((result.exp_id, "", result.attribution))
        for finding in result.findings:
            if finding.attribution is not None:
                out.append((result.exp_id, finding.name, finding.attribution))
    return out


def group_ledger(records: Sequence) -> Dict[Tuple, List]:
    """Ledger records grouped for trend rows, insertion-ordered."""
    groups: Dict[Tuple, List] = {}
    for record in records:
        groups.setdefault(record.group(), []).append(record)
    return groups


# ---------------------------------------------------------------------------
# markdown
# ---------------------------------------------------------------------------

def _md_waterfall(exp_id: str, owner: str, payload: Dict,
                  width: int = 16) -> List[str]:
    from repro.obs.diff import AttributionDiff

    diff = AttributionDiff.from_dict(payload)
    where = f"`{exp_id}`" + (f" / {owner}" if owner else "")
    lines = [
        f"**{where}** — {diff.workload}: `{diff.cand_config}` vs "
        f"`{diff.ref_config}` (P={diff.n_cpus}), "
        f"error {diff.percent_error:+.1f}%, "
        f"{100 * diff.explained_fraction:.1f}% of the gap attributed",
        "",
        "| category | delta (ms) | share | |",
        "|---|---:|---:|:---|",
    ]
    peak = max([abs(d.delta_ps) for d in diff.overall]
               + [abs(diff.residual_ps), 1.0])
    rows = [(d.category, d.delta_ps) for d in diff.overall]
    rows.append(("residual", diff.residual_ps))
    for category, delta in rows:
        n = int(round(width * abs(delta) / peak))
        bar = ("`" + "#" * n + "`") if n else ""
        sign = "+" if delta >= 0 else "−"
        lines.append(
            f"| {category} | {delta / 1e9:+.3f} | "
            f"{100 * diff.share(delta):+.1f}% | {sign}{bar} |")
    lines.append("")
    return lines


def _md_tuning(exp_id: str, owner: str, payload: Dict) -> List[str]:
    where = f"`{exp_id}`" + (f" / {owner}" if owner else "")
    tlb = payload.get("tlb_refill_cycles", {})
    lines = [
        f"**{where}** — calibration against `{payload.get('reference', '?')}`"
        f" ({payload.get('rounds', '?')} round(s)):",
        f"- TLB refill {tlb.get('before', 0):.0f} → {tlb.get('after', 0):.0f}"
        f" cycles (target {tlb.get('target', 0):.0f})",
        f"- L2 interface occupancy "
        f"{payload.get('l2_port_occupancy_cycles', 0):.1f} cycles",
    ]
    before = payload.get("case_error_before", {})
    after = payload.get("case_error_after", {})
    for case in before:
        lines.append(f"- {case}: error {100 * before[case]:+.1f}% → "
                     f"{100 * after.get(case, 0):+.1f}%")
    lines.append("")
    return lines


def _md_topo(exp_id: str, owner: str, payload: Dict) -> List[str]:
    from repro.obs.hotspot import HotspotReport

    report = HotspotReport.from_dict(payload)
    where = f"`{exp_id}`" + (f" / {owner}" if owner else "")
    node, share = report.hottest_home()
    lines = [
        f"**{where}** — {report.workload_name} on `{report.config_name}` "
        f"(P={report.n_nodes}): {report.total_accesses} DSM transactions, "
        f"{100 * report.remote_fraction:.1f}% remote, hottest home node "
        f"{node} ({100 * share:.1f}% of home traffic)",
        "",
        "| req\\home | " + " | ".join(str(h) for h in range(report.n_nodes))
        + " |",
        "|---|" + "---:|" * report.n_nodes,
    ]
    for r in range(report.n_nodes):
        lines.append(f"| **{r}** | "
                     + " | ".join(str(v) for v in report.matrix[r]) + " |")
    lines.append("")
    if report.hot_regions:
        lines += [
            f"Top hot {report.region}s ({report.region_bytes} B):",
            "",
            "| region | home | accesses | remote | sharers | requesters |",
            "|---|---:|---:|---:|---:|---|",
        ]
        for hr in report.hot_regions[:5]:
            req = ",".join(str(n) for n in hr.requesters)
            lines.append(
                f"| `{hr.base_paddr:#x}` | {hr.home} | {hr.accesses} "
                f"| {100 * hr.remote_fraction:.0f}% | {hr.peak_sharers} "
                f"| {req} |")
        lines.append("")
    if report.link_heat:
        busiest = report.link_heat[0]
        lines.append(
            f"Busiest link `{busiest['link']}`: {busiest['msgs']} messages, "
            f"{busiest['busy_ps'] / 1e6:.2f} us busy, "
            f"{busiest['wait_ps'] / 1e6:.2f} us queued.")
        lines.append("")
    return lines


def _md_txn(exp_id: str, owner: str, payload: Dict) -> List[str]:
    from repro.obs.txn import TxnReport, _fmt_ps

    report = TxnReport.from_dict(payload)
    where = f"`{exp_id}`" + (f" / {owner}" if owner else "")
    lines = [
        f"**{where}** — {report.workload} on `{report.config}` "
        f"(P={report.n_cpus}): {report.total_txns} transactions in "
        f"{len(report.kinds)} kinds; residual {report.residual_ps} ps "
        f"across {report.residual_txns} transactions",
        "",
        "| kind | count | p50 | p90 | p99 | mean |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    for key in sorted(report.kinds):
        entry = report.kinds[key]
        mean = entry["total_ps"] // max(1, entry["count"])
        lines.append(
            f"| `{key}` | {entry['count']} | {_fmt_ps(entry['p50_ps'])} "
            f"| {_fmt_ps(entry['p90_ps'])} | {_fmt_ps(entry['p99_ps'])} "
            f"| {_fmt_ps(mean)} |")
    lines.append("")
    if report.top:
        slowest = report.top[-1]
        seg = ", ".join(
            f"{name} {_fmt_ps(wait + service)}"
            for name, wait, service in slowest["segments"])
        lines.append(
            f"Slowest: `{slowest['kind']}` node{slowest['node']}→"
            f"home{slowest['home']}, {_fmt_ps(slowest['latency_ps'])} "
            f"({seg}; residual {slowest['residual_ps']} ps).")
        lines.append("")
    return lines


def _md_bench(bench_records: Sequence) -> List[str]:
    lines = [
        "## How fast is the simulator", "",
        "Headline wall clocks from the committed BENCH perf ledgers "
        "(`benchmarks/BENCH_*.json`, the frozen schema of "
        "`repro.obs.metrics`); `python -m repro.obs perf --baseline ...` "
        "gates regressions against these numbers.",
        "",
        "| bench | case | wall (s) | events/s | speedup |",
        "|---|---|---:|---:|---:|",
    ]
    for r in sorted(bench_records, key=lambda r: (r.bench, r.case)):
        eps = ("" if r.events_per_sec is None
               else f"{r.events_per_sec:,.0f}")
        speedup = "" if r.speedup is None else f"{r.speedup:.1f}x"
        lines.append(f"| {r.bench} | `{r.case}` | {r.wall_s:.3f} | {eps} "
                     f"| {speedup} |")
    lines.append("")
    return lines


def render_markdown(results: Sequence, ledger_records: Sequence = (),
                    title: str = "Validation dashboard",
                    bench_records: Sequence = ()) -> str:
    total = sum(len(r.findings) for r in results)
    ok = sum(1 for r in results for f in r.findings if f.ok)
    runs = sum(r.farm_runs for r in results)
    hits = sum(r.farm_hits for r in results)
    wall = sum(r.wall_seconds for r in results)
    lines = [
        f"# {title}",
        "",
        f"**{ok}/{total} shape checks hold** across {len(results)} "
        f"experiment(s) in {wall:.1f}s "
        f"({runs} simulated, {hits} replayed from cache).",
        "",
        "## Paper vs. measured",
        "",
        "| experiment | checks | status |",
        "|---|---|:---|",
    ]
    for result in results:
        n_ok = sum(1 for f in result.findings if f.ok)
        n = len(result.findings)
        status = "✓ ok" if n_ok == n else f"✗ {n - n_ok} off"
        lines.append(f"| `{result.exp_id}` {result.title} | {n_ok}/{n} "
                     f"| {status} |")
    lines.append("")
    failing = [(r, f) for r in results for f in r.findings if not f.ok]
    if failing:
        lines += ["### Checks that do not hold", ""]
        for result, finding in failing:
            note = f" ({finding.note})" if finding.note else ""
            lines.append(f"- `{result.exp_id}` {finding.name}: paper "
                         f"{finding.paper}, measured {finding.measured}{note}")
        lines.append("")

    attributions = collect_attributions(results)
    if attributions:
        lines += ["## Where the error comes from", "",
                  "Signed share of each candidate-vs-reference machine-time "
                  "gap (`+` = candidate spends more there, `−` = less; the "
                  "residual row is whatever the traces leave unattributed).",
                  ""]
        for exp_id, owner, payload in attributions:
            if _is_waterfall(payload):
                lines += _md_waterfall(exp_id, owner, payload)
            elif payload.get("kind") == "tuning":
                lines += _md_tuning(exp_id, owner, payload)

    topos = [(e, o, p) for e, o, p in attributions if _is_topo(p)]
    if topos:
        lines += ["## Where in the machine", "",
                  "Spatial evidence from the topo recorder: DSM traffic "
                  "bucketed by (requesting node, home node), the hottest "
                  "address regions with their sharer sets, and link heat.",
                  ""]
        for exp_id, owner, payload in topos:
            lines += _md_topo(exp_id, owner, payload)

    txns = [(e, o, p) for e, o, p in attributions if _is_txn(p)]
    if txns:
        lines += ["## Where does latency come from", "",
                  "Per-transaction anatomy from the txn recorder: each "
                  "memory transaction followed end-to-end (CPU issue → "
                  "directory → network → reply), segments summing exactly "
                  "to its latency with an explicit residual row.",
                  ""]
        for exp_id, owner, payload in txns:
            lines += _md_txn(exp_id, owner, payload)

    trends = [r for r in results if r.exp_id in TREND_EXPERIMENTS]
    if trends:
        lines += ["## Trend agreement", ""]
        for result in trends:
            for finding in result.findings:
                mark = "✓" if finding.ok else "✗"
                lines.append(f"- {mark} `{result.exp_id}` {finding.name}: "
                             f"{finding.measured}")
        lines.append("")

    groups = group_ledger(ledger_records)
    if groups:
        lines += ["## Ledger trends", "",
                  "Parallel time per run group, oldest → newest "
                  "(▁ low … █ high within each row).", "",
                  "| run group | records | trend | latest (ms) | error |",
                  "|---|---:|---|---:|---:|"]
        for group, history in sorted(groups.items()):
            workload, config, n_cpus, scale = group
            spark = sparkline([r.parallel_ps for r in history])
            latest = history[-1]
            err = ("" if latest.percent_error is None
                   else f"{latest.percent_error:+.1f}%")
            lines.append(
                f"| {workload}@{config}/P{n_cpus}/{scale} | {len(history)} "
                f"| {spark} | {latest.parallel_ps / 1e9:.3f} | {err} |")
        lines.append("")

    if bench_records:
        lines += _md_bench(bench_records)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# html
# ---------------------------------------------------------------------------

def _css() -> str:
    light = "".join(f"--{k}:{v[0]};" for k, v in _PALETTE.items())
    dark = "".join(f"--{k}:{v[1]};" for k, v in _PALETTE.items())
    return f"""
:root {{ color-scheme: light dark; {light} }}
@media (prefers-color-scheme: dark) {{ :root {{ {dark} }} }}
body {{ margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
  background: var(--surface); color: var(--ink);
  font: 15px/1.5 system-ui, sans-serif; }}
h1, h2, h3 {{ line-height: 1.2; }}
.sub {{ color: var(--ink2); }}
.tiles {{ display: flex; gap: 1rem; flex-wrap: wrap; margin: 1rem 0; }}
.tile {{ background: var(--surface2); border-radius: 8px;
  padding: .7rem 1.1rem; min-width: 8rem; }}
.tile b {{ display: block; font-size: 1.5rem; }}
.tile span {{ color: var(--ink2); font-size: .85rem; }}
table {{ border-collapse: collapse; margin: .5rem 0 1.5rem; }}
th, td {{ text-align: left; padding: .25rem .7rem;
  border-bottom: 1px solid var(--grid); }}
th {{ color: var(--ink2); font-weight: 600; }}
td.num, th.num {{ text-align: right; font-variant-numeric: tabular-nums; }}
.ok {{ color: var(--good); }}
.bad {{ color: var(--bad); }}
.wf {{ display: flex; align-items: center; height: 14px; width: 280px; }}
.wf .l, .wf .r {{ height: 8px; }}
.wf .l {{ margin-left: auto; background: var(--neg);
  border-radius: 4px 0 0 4px; }}
.wf .r {{ background: var(--pos); border-radius: 0 4px 4px 0; }}
.wf .half {{ width: 50%; display: flex; }}
.wf .mid {{ width: 2px; height: 14px; background: var(--grid); }}
.legend {{ color: var(--ink2); font-size: .85rem; margin: .3rem 0 .8rem; }}
.swatch {{ display: inline-block; width: 10px; height: 10px;
  border-radius: 3px; margin: 0 .3rem 0 .8rem; }}
details {{ margin: .4rem 0 1rem; }}
pre {{ background: var(--surface2); padding: .8rem; border-radius: 8px;
  overflow-x: auto; font-size: 12px; line-height: 1.35; }}
svg.spark polyline {{ stroke: var(--series); }}
""".strip()


def _esc(text: object) -> str:
    return _html.escape(str(text))


def _html_waterfall_rows(payload: Dict) -> List[str]:
    from repro.obs.diff import AttributionDiff

    diff = AttributionDiff.from_dict(payload)
    peak = max([abs(d.delta_ps) for d in diff.overall]
               + [abs(diff.residual_ps), 1.0])
    rows = [(d.category, d.delta_ps) for d in diff.overall]
    rows.append(("residual", diff.residual_ps))
    out = [
        "<table><tr><th>category</th><th class=num>delta (ms)</th>"
        "<th class=num>share</th><th>waterfall</th></tr>"
    ]
    for category, delta in rows:
        pct = 100.0 * abs(delta) / peak / 2.0      # half-width per side
        left = f'<span class="l" style="width:{pct:.1f}%"></span>' \
            if delta < 0 else ""
        right = f'<span class="r" style="width:{pct:.1f}%"></span>' \
            if delta >= 0 else ""
        out.append(
            f"<tr><td>{_esc(category)}</td>"
            f"<td class=num>{delta / 1e9:+.3f}</td>"
            f"<td class=num>{100 * diff.share(delta):+.1f}%</td>"
            f'<td><span class="wf"><span class="half">{left}</span>'
            f'<span class="mid"></span>'
            f'<span class="half">{right}</span></span></td></tr>')
    out.append("</table>")
    return out


def _html_sparkline(values: List[float], width: int = 120,
                    height: int = 24) -> str:
    if len(values) < 2:
        return f'<svg class=spark width={width} height={height}></svg>'
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    pts = []
    for i, v in enumerate(values):
        x = 2 + (width - 4) * i / (len(values) - 1)
        y = height - 3 - (height - 6) * (v - lo) / span
        pts.append(f"{x:.1f},{y:.1f}")
    return (f'<svg class=spark width={width} height={height} '
            f'role="img"><polyline fill="none" stroke-width="2" '
            f'points="{" ".join(pts)}"/></svg>')


def _html_topo_parts(exp_id: str, owner: str, payload: Dict) -> List[str]:
    from repro.obs.hotspot import HotspotReport

    report = HotspotReport.from_dict(payload)
    where = f"<code>{_esc(exp_id)}</code>" + \
        (f" / {_esc(owner)}" if owner else "")
    node, share = report.hottest_home()
    parts = [
        f"<h3>{where} — {_esc(report.workload_name)} on "
        f"<code>{_esc(report.config_name)}</code> (P={report.n_nodes})</h3>",
        f"<p class=sub>{report.total_accesses} DSM transactions, "
        f"{100 * report.remote_fraction:.1f}% remote; hottest home node "
        f"{node} ({100 * share:.1f}% of home traffic)</p>",
        "<table><tr><th>req\\home</th>"
        + "".join(f"<th class=num>{h}</th>" for h in range(report.n_nodes))
        + "</tr>",
    ]
    peak = max((max(row) for row in report.matrix if row), default=0) or 1
    for r in range(report.n_nodes):
        cells = []
        for value in report.matrix[r]:
            # Heat-shade: diverging-warm alpha scaled to the hottest cell.
            alpha = 0.45 * value / peak
            style = (f' style="background:'
                     f'color-mix(in srgb, var(--pos) {100 * alpha:.0f}%, '
                     f'transparent)"') if value else ""
            cells.append(f"<td class=num{style}>{value}</td>")
        parts.append(f"<tr><th class=num>{r}</th>{''.join(cells)}</tr>")
    parts.append("</table>")
    if report.hot_regions:
        parts.append(
            f"<table><tr><th>hot {_esc(report.region)}</th>"
            "<th class=num>home</th><th class=num>accesses</th>"
            "<th class=num>remote</th><th class=num>sharers</th>"
            "<th>requesters</th></tr>")
        for hr in report.hot_regions[:5]:
            req = ",".join(str(n) for n in hr.requesters)
            parts.append(
                f"<tr><td><code>{hr.base_paddr:#x}</code></td>"
                f"<td class=num>{hr.home}</td>"
                f"<td class=num>{hr.accesses}</td>"
                f"<td class=num>{100 * hr.remote_fraction:.0f}%</td>"
                f"<td class=num>{hr.peak_sharers}</td>"
                f"<td>{_esc(req)}</td></tr>")
        parts.append("</table>")
    sampled = [(name, info) for name, info in sorted(
        report.occupancy.items()) if info.get("series")]
    if sampled:
        parts.append("<table><tr><th>queue</th><th class=num>mean</th>"
                     "<th class=num>max</th><th>occupancy over time</th>"
                     "</tr>")
        for name, info in sampled:
            parts.append(
                f"<tr><td><code>{_esc(name)}</code></td>"
                f"<td class=num>{info['mean']:.2f}</td>"
                f"<td class=num>{info['max']:.0f}</td>"
                f"<td>{_html_sparkline(info['series'])}</td></tr>")
        parts.append("</table>")
    return parts


def _html_txn_parts(exp_id: str, owner: str, payload: Dict) -> List[str]:
    from repro.obs.txn import TxnReport, _fmt_ps

    report = TxnReport.from_dict(payload)
    where = f"<code>{_esc(exp_id)}</code>" + \
        (f" / {_esc(owner)}" if owner else "")
    parts = [
        f"<h3>{where} — {_esc(report.workload)} on "
        f"<code>{_esc(report.config)}</code> (P={report.n_cpus})</h3>",
        f"<p class=sub>{report.total_txns} transactions in "
        f"{len(report.kinds)} kinds; residual {report.residual_ps} ps "
        f"across {report.residual_txns} transactions</p>",
        "<table><tr><th>kind</th><th class=num>count</th>"
        "<th class=num>p50</th><th class=num>p90</th>"
        "<th class=num>p99</th><th class=num>mean</th>"
        "<th>segment mix (wait vs service)</th></tr>",
    ]
    for key in sorted(report.kinds):
        entry = report.kinds[key]
        mean = entry["total_ps"] // max(1, entry["count"])
        # Per-kind wait/service split across all segments: the diverging
        # pair reads as "queueing (warm) vs doing work (cool)".
        wait = sum(s["wait_ps"] for s in entry["segments"].values())
        service = sum(s["service_ps"] for s in entry["segments"].values())
        span = wait + service
        mix = ""
        if span:
            wpct = 100.0 * wait / span
            mix = (
                '<span class="wf" style="width:160px">'
                f'<span class="r" style="width:{wpct:.1f}%"></span>'
                f'<span class="l" style="width:{100 - wpct:.1f}%;'
                'margin-left:0;border-radius:0 4px 4px 0"></span></span>')
        parts.append(
            f"<tr><td><code>{_esc(key)}</code></td>"
            f"<td class=num>{entry['count']}</td>"
            f"<td class=num>{_fmt_ps(entry['p50_ps'])}</td>"
            f"<td class=num>{_fmt_ps(entry['p90_ps'])}</td>"
            f"<td class=num>{_fmt_ps(entry['p99_ps'])}</td>"
            f"<td class=num>{_fmt_ps(mean)}</td>"
            f"<td>{mix}</td></tr>")
    parts.append("</table>")
    if report.top:
        slowest = report.top[-1]
        parts.append(
            f"<details><summary class=sub>slowest transaction: "
            f"<code>{_esc(slowest['kind'])}</code> "
            f"node{slowest['node']}→home{slowest['home']}, "
            f"{_fmt_ps(slowest['latency_ps'])}</summary>"
            "<table><tr><th>segment</th><th class=num>wait</th>"
            "<th class=num>service</th></tr>")
        for name, wait, service in slowest["segments"]:
            parts.append(
                f"<tr><td><code>{_esc(name)}</code></td>"
                f"<td class=num>{_fmt_ps(wait)}</td>"
                f"<td class=num>{_fmt_ps(service)}</td></tr>")
        parts.append(
            f"<tr><td>residual</td><td class=num colspan=2>"
            f"{slowest['residual_ps']} ps</td></tr></table></details>")
    return parts


def render_html(results: Sequence, ledger_records: Sequence = (),
                title: str = "Validation dashboard",
                bench_records: Sequence = ()) -> str:
    total = sum(len(r.findings) for r in results)
    ok = sum(1 for r in results for f in r.findings if f.ok)
    runs = sum(r.farm_runs for r in results)
    hits = sum(r.farm_hits for r in results)
    wall = sum(r.wall_seconds for r in results)
    parts = [
        "<!doctype html><html lang=en><head><meta charset=utf-8>",
        f"<title>{_esc(title)}</title>",
        '<meta name=viewport content="width=device-width, initial-scale=1">',
        f"<style>{_css()}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        '<div class="tiles">',
        f'<div class=tile><b>{ok}/{total}</b><span>shape checks hold'
        f"</span></div>",
        f"<div class=tile><b>{len(results)}</b><span>experiments</span></div>",
        f"<div class=tile><b>{runs}</b><span>simulated runs</span></div>",
        f"<div class=tile><b>{hits}</b><span>cache replays</span></div>",
        f"<div class=tile><b>{wall:.1f}s</b><span>wall time</span></div>",
        "</div>",
        "<h2>Paper vs. measured</h2>",
    ]
    for result in results:
        n_ok = sum(1 for f in result.findings if f.ok)
        n = len(result.findings)
        chip = (f'<span class=ok>✓ {n_ok}/{n} checks</span>' if n_ok == n
                else f'<span class=bad>✗ {n_ok}/{n} checks</span>')
        parts.append(f"<h3><code>{_esc(result.exp_id)}</code> "
                     f"{_esc(result.title)} — {chip}</h3>")
        if result.findings:
            parts.append("<table><tr><th>check</th><th>paper</th>"
                         "<th>measured</th><th>holds</th></tr>")
            for f in result.findings:
                mark = ('<span class=ok>✓ yes</span>' if f.ok
                        else '<span class=bad>✗ no</span>')
                note = f" <span class=sub>({_esc(f.note)})</span>" \
                    if f.note else ""
                parts.append(f"<tr><td>{_esc(f.name)}</td>"
                             f"<td>{_esc(f.paper)}</td>"
                             f"<td>{_esc(f.measured)}{note}</td>"
                             f"<td>{mark}</td></tr>")
            parts.append("</table>")
        parts.append(f"<details><summary class=sub>rendered output"
                     f"</summary><pre>{_esc(result.rendered)}</pre></details>")

    attributions = collect_attributions(results)
    waterfalls = [(e, o, p) for e, o, p in attributions if _is_waterfall(p)]
    tunings = [(e, o, p) for e, o, p in attributions
               if not _is_waterfall(p) and p.get("kind") == "tuning"]
    if waterfalls or tunings:
        parts.append("<h2>Where the error comes from</h2>")
    if waterfalls:
        parts.append(
            '<p class=legend><span class=swatch '
            'style="background:var(--pos)"></span>candidate spends more '
            'machine time than the reference'
            '<span class=swatch style="background:var(--neg)"></span>'
            'candidate spends less — the residual row is gap the traces '
            'leave unattributed</p>')
    for exp_id, owner, payload in waterfalls:
        from repro.obs.diff import AttributionDiff

        diff = AttributionDiff.from_dict(payload)
        where = f"<code>{_esc(exp_id)}</code>" + \
            (f" / {_esc(owner)}" if owner else "")
        parts.append(
            f"<h3>{where} — {_esc(diff.workload)}: "
            f"<code>{_esc(diff.cand_config)}</code> vs "
            f"<code>{_esc(diff.ref_config)}</code> (P={diff.n_cpus})</h3>"
            f"<p class=sub>error {diff.percent_error:+.1f}%, "
            f"{100 * diff.explained_fraction:.1f}% of the machine-time gap "
            f"attributed</p>")
        parts.extend(_html_waterfall_rows(payload))
    for exp_id, owner, payload in tunings:
        where = f"<code>{_esc(exp_id)}</code>" + \
            (f" / {_esc(owner)}" if owner else "")
        tlb = payload.get("tlb_refill_cycles", {})
        parts.append(
            f"<h3>{where} — calibration against "
            f"<code>{_esc(payload.get('reference', '?'))}</code></h3><ul>"
            f"<li>TLB refill {tlb.get('before', 0):.0f} → "
            f"{tlb.get('after', 0):.0f} cycles "
            f"(target {tlb.get('target', 0):.0f})</li>"
            f"<li>L2 interface occupancy "
            f"{payload.get('l2_port_occupancy_cycles', 0):.1f} cycles</li>")
        before = payload.get("case_error_before", {})
        after = payload.get("case_error_after", {})
        for case in before:
            parts.append(f"<li>{_esc(case)}: error "
                         f"{100 * before[case]:+.1f}% → "
                         f"{100 * after.get(case, 0):+.1f}%</li>")
        parts.append("</ul>")

    topos = [(e, o, p) for e, o, p in attributions if _is_topo(p)]
    if topos:
        parts.append(
            "<h2>Where in the machine</h2>"
            "<p class=legend>spatial evidence from the topo recorder: "
            "traffic by (requesting node, home node), hottest regions with "
            "sharer sets, and sampled queue occupancy</p>")
        for exp_id, owner, payload in topos:
            parts.extend(_html_topo_parts(exp_id, owner, payload))

    txns = [(e, o, p) for e, o, p in attributions if _is_txn(p)]
    if txns:
        parts.append(
            "<h2>Where does latency come from</h2>"
            "<p class=legend>per-transaction anatomy from the txn "
            "recorder: each memory transaction followed end-to-end, "
            "segments summing exactly to its latency"
            '<span class=swatch style="background:var(--pos)"></span>'
            "queue wait"
            '<span class=swatch style="background:var(--neg)"></span>'
            "service</p>")
        for exp_id, owner, payload in txns:
            parts.extend(_html_txn_parts(exp_id, owner, payload))

    trends = [r for r in results if r.exp_id in TREND_EXPERIMENTS]
    if trends:
        parts.append("<h2>Trend agreement</h2><ul>")
        for result in trends:
            for f in result.findings:
                mark = ('<span class=ok>✓</span>' if f.ok
                        else '<span class=bad>✗</span>')
                parts.append(f"<li>{mark} <code>{_esc(result.exp_id)}</code> "
                             f"{_esc(f.name)}: {_esc(f.measured)}</li>")
        parts.append("</ul>")

    groups = group_ledger(ledger_records)
    if groups:
        parts.append(
            "<h2>Ledger trends</h2>"
            "<p class=legend>parallel time per run group, oldest → newest"
            "</p><table><tr><th>run group</th><th class=num>records</th>"
            "<th>trend</th><th class=num>latest (ms)</th>"
            "<th class=num>error</th></tr>")
        for group, history in sorted(groups.items()):
            workload, config, n_cpus, scale = group
            latest = history[-1]
            err = ("" if latest.percent_error is None
                   else f"{latest.percent_error:+.1f}%")
            parts.append(
                f"<tr><td>{_esc(workload)}@{_esc(config)}/P{n_cpus}/"
                f"{_esc(scale)}</td><td class=num>{len(history)}</td>"
                f"<td>{_html_sparkline([r.parallel_ps for r in history])}"
                f"</td><td class=num>{latest.parallel_ps / 1e9:.3f}</td>"
                f"<td class=num>{err}</td></tr>")
        parts.append("</table>")

    if bench_records:
        parts.append(
            "<h2>How fast is the simulator</h2>"
            "<p class=legend>headline wall clocks from the committed "
            "BENCH perf ledgers (<code>benchmarks/BENCH_*.json</code>); "
            "<code>python -m repro.obs perf --baseline ...</code> gates "
            "regressions against these numbers</p>"
            "<table><tr><th>bench</th><th>case</th>"
            "<th class=num>wall (s)</th><th class=num>events/s</th>"
            "<th class=num>speedup</th></tr>")
        for r in sorted(bench_records, key=lambda r: (r.bench, r.case)):
            eps = ("" if r.events_per_sec is None
                   else f"{r.events_per_sec:,.0f}")
            speedup = "" if r.speedup is None else f"{r.speedup:.1f}x"
            parts.append(
                f"<tr><td>{_esc(r.bench)}</td>"
                f"<td><code>{_esc(r.case)}</code></td>"
                f"<td class=num>{r.wall_s:.3f}</td>"
                f"<td class=num>{eps}</td>"
                f"<td class=num>{speedup}</td></tr>")
        parts.append("</table>")

    parts.append('<p class=sub>generated by <code>python -m repro.harness '
                 "--dashboard</code></p></body></html>")
    return "".join(parts)


def render_dashboard(results: Sequence, out_dir,
                     ledger_records: Optional[Sequence] = None,
                     title: str = "Validation dashboard",
                     bench_records: Optional[Sequence] = None,
                     ) -> Tuple[Path, Path]:
    """Write ``dashboard.html`` + ``dashboard.md`` into *out_dir*.

    Returns the two paths.  *ledger_records* normally comes from
    :func:`repro.obs.metrics.read_ledger`; pass None to omit the trends
    section.  *bench_records* normally comes from
    :func:`repro.obs.metrics.read_bench` over the committed
    ``benchmarks/BENCH_*.json`` ledgers; pass None to omit the
    "How fast is the simulator" section.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = list(ledger_records) if ledger_records else []
    benches = list(bench_records) if bench_records else []
    html_path = out_dir / "dashboard.html"
    md_path = out_dir / "dashboard.md"
    html_path.write_text(render_html(results, records, title, benches))
    md_path.write_text(render_markdown(results, records, title, benches))
    return html_path, md_path
