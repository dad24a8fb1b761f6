"""The validation dashboard: one self-contained accuracy report.

``python -m repro.harness all --dashboard out/`` folds everything the
closing-the-loop machinery produces into one :mod:`repro.obs.doc` block
list -- headline check counts, the paper-vs-measured tables, one view per
attribution payload (waterfall, tuning, ``topo``, ``txn``), the trend
studies, the metrics-ledger trends and the committed BENCH perf ledgers --
and hands that list to two emitters: ``dashboard.md`` (terminal/PR
friendly) and ``dashboard.html`` (standalone page).  Both files therefore
carry the same sections, rows and numbers in the same order.

A new payload kind costs one block-building function registered in
:data:`PAYLOAD_VIEWS`; nothing here writes markdown or HTML.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.findings import summary_table, tally
from repro.obs import doc
from repro.obs.diff import AttributionDiff
from repro.obs.doc import Heading, Items, Para, Table, spark
from repro.obs.hotspot import HotspotReport
from repro.obs.metrics import by_series
from repro.obs.txn import TxnReport
from repro.validation.tuning import TuningReport

#: Experiments whose findings form the "does it predict the trend" story.
TREND_EXPERIMENTS = ("fig5", "fig6", "fig7")

#: Row limit of every per-payload table (what ``--top`` is to the CLIs).
TOP_K = 5

#: payload kind -> (dashboard section, ``fn(payload) -> blocks``).  Sections
#: appear in first-registration order, each only when some result carries
#: a payload of one of its kinds.
PAYLOAD_VIEWS: Dict[str, Tuple[str, Callable[[Dict], list]]] = {
    "waterfall": ("Where the error comes from", lambda payload:
                  AttributionDiff.from_dict(payload).blocks(width=16)),
    "tuning": ("Where the error comes from", lambda payload:
               TuningReport.from_dict(payload).blocks()),
    "topo": ("Where in the machine", lambda payload:
             HotspotReport.from_dict(payload).blocks(TOP_K)),
    "txn": ("Where does latency come from", lambda payload:
            TxnReport.from_dict(payload).blocks(TOP_K)),
}

#: What a section's numbers mean, shown under its heading.
SECTION_LEGENDS = {
    "Where the error comes from":
        "Signed share of each candidate-vs-reference machine-time gap: + "
        "(warm) the candidate spends more there, − (cool) less; the "
        "residual row is whatever the traces leave unattributed.",
    "Where in the machine":
        "The topo recorder's spatial evidence: DSM traffic by (requesting "
        "node, home node), the hottest address regions with their sharer "
        "sets, link heat and sampled queue occupancy.",
    "Where does latency come from":
        "The txn recorder's anatomy: each memory transaction followed end "
        "to end, segments summing exactly to its latency with an explicit "
        "residual row; warm is queue wait, cool is service.",
    "Ledger trends":
        "Parallel time per run group, oldest → newest, low … high within "
        "each row.",
    "How fast is the simulator":
        "Each case's latest headline wall clock from the committed BENCH "
        "perf ledgers (`benchmarks/BENCH_*.jsonl`, appended per run), its "
        "wall-clock trend oldest → newest; `python -m repro.obs perf "
        "--baseline ...` gates a fresh run against that history.",
}


def payload_kind(payload: object) -> Optional[str]:
    """The :data:`PAYLOAD_VIEWS` key of an attribution payload, or None.

    Waterfall payloads are untagged (a golden pins their dict form) and
    recognised by ``overall``; every other kind says so in ``kind``.
    """
    if not isinstance(payload, dict):
        return None
    kind = "waterfall" if "overall" in payload else payload.get("kind")
    return kind if kind in PAYLOAD_VIEWS else None


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


def section(title: str, body: list) -> list:
    """A level-2 section, or nothing: the one place that decides a
    heading is emitted if and only if it has a body."""
    if not body:
        return []
    legend = SECTION_LEGENDS.get(title)
    return [Heading(title), *([Para(legend)] if legend else []), *body]


def experiment_blocks(results: Sequence) -> list:
    """Paper vs. measured: the summary table, the failing checks, then
    every experiment as its own blocks one heading level down."""
    failing = [f"`{r.exp_id}` {f.name}: paper {f.paper}, measured "
               f"{f.measured}" + (f" ({f.note})" if f.note else "")
               for r in results for f in r.findings if not f.ok]
    return [summary_table(results),
            *([Heading("Checks that do not hold", 3), Items(failing)]
              if failing else []),
            *(block for r in results for block in r.blocks(3))]


def attribution_sections(results: Sequence) -> list:
    bodies: Dict[str, list] = {title: [] for title, _fn in
                               PAYLOAD_VIEWS.values()}
    for exp_id, owner, payload in collect_attributions(results):
        kind = payload_kind(payload)
        if kind is not None:
            title, blocks_fn = PAYLOAD_VIEWS[kind]
            bodies[title] += [
                Heading(f"`{exp_id}`" + (f" / {owner}" if owner else ""), 3),
                *blocks_fn(payload)]
    return [block for title, body in bodies.items()
            for block in section(title, body)]


def ledger_blocks(ledger_records: Sequence) -> list:
    rows = []
    for series, history in sorted(by_series(ledger_records).items()):
        latest = history[-1]
        rows.append([
            series, len(history), spark([r.parallel_ps for r in history]),
            f"{latest.parallel_ps / 1e9:.3f}",
            ("" if latest.percent_error is None
             else f"{latest.percent_error:+.1f}%")])
    return [Table("tntnn", ["run group", "records", "trend", "latest (ms)",
                            "error"], rows)] if rows else []


def bench_blocks(bench_records: Sequence) -> list:
    rows = []
    for history in sorted(by_series(bench_records).values(),
                          key=lambda h: (h[-1].bench, h[-1].case)):
        latest = history[-1]
        rows.append([
            latest.bench, latest.case, len(history),
            spark([r.wall_s for r in history]), f"{latest.wall_s:.3f}",
            ("" if latest.events_per_sec is None
             else f"{latest.events_per_sec:,.0f}"),
            "" if latest.speedup is None else f"{latest.speedup:.1f}x"])
    return [Table("tcntnnn", ["bench", "case", "records", "trend",
                              "wall (s)", "events/s", "speedup"],
                  rows)] if rows else []


def dashboard_blocks(results: Sequence, ledger_records: Sequence = (),
                     title: str = "Validation dashboard",
                     bench_records: Sequence = ()) -> list:
    """The whole dashboard as one block list (what both files emit)."""
    ok, total = tally(results)
    trends = [f"{'✓' if f.ok else '✗'} `{r.exp_id}` {f.name}: {f.measured}"
              for r in results if r.exp_id in TREND_EXPERIMENTS
              for f in r.findings]
    return [
        Heading(title, 1),
        Para(f"**{ok}/{total} shape checks hold** across {len(results)} "
             f"experiment(s) in {sum(r.wall_seconds for r in results):.1f}s "
             f"({sum(r.farm_runs for r in results)} simulated, "
             f"{sum(r.farm_hits for r in results)} replayed from cache)."),
        *section("Paper vs. measured", experiment_blocks(results)),
        *attribution_sections(results),
        *section("Trend agreement", [Items(trends)] if trends else []),
        *section("Ledger trends", ledger_blocks(ledger_records)),
        *section("How fast is the simulator", bench_blocks(bench_records)),
        Para("generated by `python -m repro.harness --dashboard`"),
    ]


def render_markdown(results: Sequence, ledger_records: Sequence = (),
                    title: str = "Validation dashboard",
                    bench_records: Sequence = ()) -> str:
    return doc.render_markdown(dashboard_blocks(
        results, ledger_records, title, bench_records))


def render_html(results: Sequence, ledger_records: Sequence = (),
                title: str = "Validation dashboard",
                bench_records: Sequence = ()) -> str:
    return doc.render_html(dashboard_blocks(
        results, ledger_records, title, bench_records), title)


def render_dashboard(results: Sequence, out_dir,
                     ledger_records: Sequence = (),
                     title: str = "Validation dashboard",
                     bench_records: Sequence = ()) -> Tuple[Path, Path]:
    """Write ``dashboard.html`` + ``dashboard.md`` into *out_dir* and
    return the two paths.

    *ledger_records* normally comes from
    :func:`repro.obs.metrics.read_ledger`, and *bench_records* from the
    same reader over the committed ``benchmarks/BENCH_*.jsonl``; empty
    omits the section it feeds.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    blocks = dashboard_blocks(results, ledger_records, title, bench_records)
    html_path, md_path = out_dir / "dashboard.html", out_dir / "dashboard.md"
    html_path.write_text(doc.render_html(blocks, title))
    md_path.write_text(doc.render_markdown(blocks))
    return html_path, md_path
