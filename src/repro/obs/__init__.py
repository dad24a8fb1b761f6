"""repro.obs -- the observability subsystem.

The paper's methodology is *error attribution*: explaining simulator-vs-
hardware gaps by breaking execution time into causes (TLB refill, L2
interface occupancy, synchronisation imbalance, ...).  This package gives
the reproduction the same visibility into itself:

* :mod:`repro.obs.trace` -- a ring-buffered low-overhead span recorder;
* :mod:`repro.obs.hooks` -- the probe: the one ambient slot the simulator's
  hot paths check (a single ``active is not None`` test when disabled),
  the event vocabulary, and ``observing(*recorders)``;
* :mod:`repro.obs.profile` -- folds recorded spans into a per-CPU
  cycle-attribution breakdown attached to :class:`~repro.sim.results.RunResult`;
* :mod:`repro.obs.export` -- Chrome ``trace_event`` JSON (Perfetto) and a
  flamegraph-style text summary;
* :mod:`repro.obs.diff` -- differential error attribution: the signed
  per-category waterfall explaining a reference-vs-candidate cycle gap;
* :mod:`repro.obs.metrics` -- the two frozen-schema ledgers: the
  run-over-run metrics ledger (:class:`~repro.obs.metrics.MetricsWriter`)
  and the BENCH perf ledgers, their one append-only JSON-lines format
  (:func:`~repro.obs.metrics.append_records`,
  :func:`~repro.obs.metrics.scan_ledger`), and the one gate that judges
  both (:class:`~repro.obs.metrics.GateReport`);
* :mod:`repro.obs.topo` -- spatial observability: the
  (requesting node, home node, address region) counters, directory
  transitions, per-link traffic, and the queue-occupancy sampler;
* :mod:`repro.obs.hotspot` -- folds a topo recording into the NUMA
  traffic matrix, top-K hot regions with sharer sets, and contention heat;
* :mod:`repro.obs.txn` -- per-transaction anatomy: every memory
  transaction's latency cut into wait/service segments, per-kind
  histograms and the slowest-K critical paths;
* :mod:`repro.obs.record` -- the one dict codec: every report and ledger
  row above is a dataclass whose payload is its field list;
* :mod:`repro.obs.doc` -- report documents: the block vocabulary every
  report above describes itself in, and the text/markdown/HTML emitters;
* :mod:`repro.obs.bisect` -- the first event where two configurations'
  timelines part, from one state forked at a quiescent gate;
* :mod:`repro.obs.cli` -- ``python -m repro.obs
  trace|diff|hotspot|txn|bisect|perf|watch``.
"""

from repro.obs.trace import Span, TraceRecorder
from repro.obs.hooks import Probe, Recorder, observing
from repro.obs.topo import TopoRecorder
from repro.obs.hotspot import HotRegion, HotspotReport, build_report
from repro.obs.profile import CpuBreakdown, RunBreakdown, build_breakdown
from repro.obs.export import chrome_trace, flame_summary, write_chrome_trace
from repro.obs.diff import AttributionDiff, CategoryDelta, diff_breakdowns, diff_runs
from repro.obs.metrics import (
    BenchRecord,
    Flag,
    GateReport,
    LedgerRecord,
    MetricsWriter,
    append_records,
    by_series,
    detect_drift,
    diff_bench,
    make_case,
    read_ledger,
    run_record,
    scan_ledger,
)

__all__ = [
    "Span",
    "TraceRecorder",
    "TopoRecorder",
    "HotRegion",
    "HotspotReport",
    "build_report",
    "Probe",
    "Recorder",
    "observing",
    "CpuBreakdown",
    "RunBreakdown",
    "build_breakdown",
    "chrome_trace",
    "flame_summary",
    "write_chrome_trace",
    "AttributionDiff",
    "CategoryDelta",
    "diff_breakdowns",
    "diff_runs",
    "Flag",
    "GateReport",
    "LedgerRecord",
    "MetricsWriter",
    "append_records",
    "by_series",
    "detect_drift",
    "read_ledger",
    "scan_ledger",
    "BenchRecord",
    "diff_bench",
    "make_case",
    "run_record",
]
