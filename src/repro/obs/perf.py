"""Host-side performance observability: where the *wall-clock* time goes.

The rest of ``repro.obs`` explains simulated cycles; this module explains
host seconds -- the axis ROADMAP item 1 needs before any scalar-path
optimisation or compiled backend is worth building.  Three pieces:

* :class:`PerfProfiler` -- guarded, off-by-default host-time brackets.
  The engine dispatch loop, the calendar, and the row loop each bracket
  their work with the probe's ``host_begin()``/``host_commit()`` events
  *only* after reading their observer into a local and testing ``is not
  None`` (the discipline lint rule D3 enforces for every ambient slot).
  With nothing installed -- the default -- each site costs one load
  plus a ``None`` test, verified by ``benchmarks/bench_obs_overhead.py``.
  All ``perf_counter_ns`` reads live *here*, never in the machine, so
  lint rules D2/D5 stay clean and replay determinism cannot depend on
  the host clock.
* :class:`HostBreakdown` -- the folded per-phase table, the host-time
  sibling of :class:`repro.obs.profile.RunBreakdown`.  Phases are
  *overlapping views*, not a partition: calendar pushes happen inside
  event dispatch, and a row segment spans every dispatch its memory
  events trigger, so shares need not sum to 100%.
* the **BENCH perf ledger** -- a frozen-schema JSON format
  (``BENCH_<name>.json``) for simulator-speed trajectories: host wall
  time, simulated picoseconds, events/sec, and the host-phase breakdown.
  ``python -m repro.obs perf`` records one profiled run and diffs it
  against a committed baseline (:func:`diff_bench`), exiting nonzero
  beyond threshold -- the host-time sibling of ``repro.obs watch``.

Profiling is pure host-side observation: cycle counts, stats, and goldens
are bit-identical with the profiler on or off (``tests/test_obs_perf.py``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs import hooks

# -- host phases -----------------------------------------------------------

DISPATCH = "engine.dispatch"       #: one event callback (fn(arg) + drain)
CALENDAR = "engine.calendar"       #: one heap push in schedule_at
ROWS_SCALAR = "cpu.rows_scalar"    #: one chunk's row loop (inclusive)

#: Every phase the instrumented sites report, in display order.
PHASES = (DISPATCH, CALENDAR, ROWS_SCALAR)


class PerfProfiler(hooks.Recorder):
    """Accumulates host nanoseconds per phase while installed with
    :func:`repro.obs.hooks.observing`.

    The call protocol at an instrumented site is::

        probe = obs_hooks.active         # read the slot into a local
        if probe is not None:            # the entire disabled-path cost
            t0 = probe.host_begin()
        ...work...
        if probe is not None:
            probe.host_commit(PHASE, t0)

    ``host_begin`` and ``host_commit`` are the only places the host clock
    is read; the simulator itself never imports :mod:`time`.  The wall
    clock runs from :meth:`bind` to :meth:`finish` of each machine.
    """

    __slots__ = ("_ns", "_counts", "_wall_t0", "wall_s")

    #: Reads only the host clock; simulated state never depends on it.
    ckpt = hooks.CKPT_ALWAYS
    engine_events = True

    def __init__(self):
        self._ns: Dict[str, int] = {}
        self._counts: Dict[str, int] = {}
        self._wall_t0: Optional[int] = None
        #: Accumulated wall seconds between bind/finish pairs.
        self.wall_s: float = 0.0

    # -- the hot protocol ----------------------------------------------

    def host_begin(self) -> int:
        return time.perf_counter_ns()

    def host_commit(self, phase: str, t0: int, n: int = 1) -> None:
        """Charge the time since *t0* to *phase* (*n* units of work)."""
        ns = time.perf_counter_ns() - t0
        self._ns[phase] = self._ns.get(phase, 0) + ns
        self._counts[phase] = self._counts.get(phase, 0) + n

    # -- wall clock ----------------------------------------------------

    def bind(self, machine) -> None:
        self._wall_t0 = time.perf_counter_ns()

    def finish(self, machine, result) -> None:
        if self._wall_t0 is not None:
            self.wall_s += (time.perf_counter_ns() - self._wall_t0) / 1e9
            self._wall_t0 = None

    # -- reporting -----------------------------------------------------

    def phase_seconds(self, phase: str) -> float:
        return self._ns.get(phase, 0) / 1e9

    def phase_count(self, phase: str) -> int:
        return self._counts.get(phase, 0)

    def breakdown(self) -> "HostBreakdown":
        phases = {p: {"s": self._ns[p] / 1e9, "n": float(self._counts[p])}
                  for p in sorted(self._ns)}
        return HostBreakdown(wall_s=self.wall_s, phases=phases)


@dataclass
class HostBreakdown:
    """Per-phase host time for one run; see the module docstring caveat:
    phases overlap (calendar pushes run inside dispatch, row segments
    span dispatches), so fractions need not sum to 1."""

    wall_s: float
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def seconds(self, phase: str) -> float:
        return self.phases.get(phase, {}).get("s", 0.0)

    def count(self, phase: str) -> float:
        return self.phases.get(phase, {}).get("n", 0.0)

    def fraction(self, phase: str) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.seconds(phase) / self.wall_s

    def to_dict(self) -> Dict:
        return {"wall_s": self.wall_s,
                "phases": {p: dict(v) for p, v in sorted(self.phases.items())}}

    @classmethod
    def from_dict(cls, data: Dict) -> "HostBreakdown":
        return cls(wall_s=data["wall_s"],
                   phases={p: dict(v) for p, v in data["phases"].items()})

    def format_table(self) -> str:
        header = f"{'phase':<18s} {'calls':>10s} {'host_ms':>10s} {'wall%':>7s}"
        lines = [header, "-" * len(header)]
        ordered = [p for p in PHASES if p in self.phases]
        ordered += [p for p in sorted(self.phases) if p not in PHASES]
        for phase in ordered:
            lines.append(
                f"{phase:<18s} {self.count(phase):>10.0f} "
                f"{self.seconds(phase) * 1e3:>10.1f} "
                f"{100.0 * self.fraction(phase):>6.1f}%")
        lines.append(f"{'(wall)':<18s} {'':>10s} {self.wall_s * 1e3:>10.1f} "
                     f"{'100.0':>6s}%")
        lines.append("phases overlap (calendar pushes nest inside dispatch; "
                     "row segments span dispatches) -- shares need not sum "
                     "to 100%")
        return "\n".join(lines)


# -- the BENCH perf ledger (frozen schema) ---------------------------------

#: Bumped on any incompatible record change; readers skip foreign versions.
BENCH_SCHEMA_VERSION = 2

#: The frozen BENCH-record schema: field -> (type, required).  Optional
#: fields may also be null.  Extending it is an explicit, reviewed act
#: (mirrors :data:`repro.obs.metrics.LEDGER_SCHEMA`).
BENCH_SCHEMA: Dict[str, Tuple[type, bool]] = {
    "schema": (int, True),             # BENCH_SCHEMA_VERSION of the writer
    "bench": (str, True),              # emitting benchmark ("engine_hotpath")
    "case": (str, True),               # workload@config/Pn/scale/mode
    "wall_s": (float, True),           # host wall time of the measured run
    "sim_ps": (int, False),            # simulated picoseconds covered
    "events": (int, False),            # engine events processed
    "events_per_sec": (float, False),  # the headline simulator-speed metric
    "speedup": (float, False),         # vs. this case's own reference run
    "host_phases": (dict, False),      # HostBreakdown.to_dict()
}


def make_case(workload: str, config: str, n_cpus: int, scale: str,
              mode: str) -> str:
    """The canonical case key: ``workload@config/Pn/scale/mode``."""
    return f"{workload}@{config}/P{n_cpus}/{scale}/{mode}"


def validate_bench_record(record: Dict) -> List[str]:
    """Schema violations in *record* (empty list = valid)."""
    problems = []
    for name, (typ, required) in BENCH_SCHEMA.items():
        if name not in record or record[name] is None:
            if required:
                problems.append(f"missing required field {name!r}")
            continue
        value = record[name]
        ok = (isinstance(value, typ) and not isinstance(value, bool)
              if typ in (int, float) else isinstance(value, typ))
        if typ is float and isinstance(value, int) \
                and not isinstance(value, bool):
            ok = True          # JSON does not distinguish 1 from 1.0
        if not ok:
            problems.append(
                f"field {name!r} has type {type(value).__name__}, "
                f"expected {typ.__name__}")
    for name in record:
        if name not in BENCH_SCHEMA:
            problems.append(f"unknown field {name!r} (schema is frozen; "
                            f"extend BENCH_SCHEMA explicitly)")
    return problems


@dataclass
class BenchRecord:
    """One measured case of one benchmark, as the BENCH ledger keeps it."""

    bench: str
    case: str
    wall_s: float
    sim_ps: Optional[int] = None
    events: Optional[int] = None
    events_per_sec: Optional[float] = None
    speedup: Optional[float] = None
    host_phases: Optional[Dict] = None
    schema: int = BENCH_SCHEMA_VERSION

    def to_dict(self) -> Dict:
        return {
            "schema": self.schema,
            "bench": self.bench,
            "case": self.case,
            "wall_s": self.wall_s,
            "sim_ps": self.sim_ps,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "speedup": self.speedup,
            "host_phases": (None if self.host_phases is None
                            else dict(self.host_phases)),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "BenchRecord":
        phases = data.get("host_phases")
        return cls(
            bench=data["bench"],
            case=data["case"],
            wall_s=data["wall_s"],
            sim_ps=data.get("sim_ps"),
            events=data.get("events"),
            events_per_sec=data.get("events_per_sec"),
            speedup=data.get("speedup"),
            host_phases=None if phases is None else dict(phases),
            schema=data.get("schema", BENCH_SCHEMA_VERSION),
        )


def run_record(bench: str, case: str, wall_s: float, result=None,
               events: Optional[int] = None,
               profiler: Optional[PerfProfiler] = None,
               speedup: Optional[float] = None) -> BenchRecord:
    """Fold one measured run into a :class:`BenchRecord`.

    *result* (a :class:`~repro.sim.results.RunResult`) supplies the
    simulated time.
    """
    return BenchRecord(
        bench=bench,
        case=case,
        wall_s=wall_s,
        sim_ps=None if result is None else result.total_ps,
        events=events,
        events_per_sec=(events / wall_s
                        if events is not None and wall_s > 0 else None),
        speedup=speedup,
        host_phases=(None if profiler is None
                     else profiler.breakdown().to_dict()),
    )


def write_bench(path, bench: str, records: List[BenchRecord]) -> Path:
    """Write ``BENCH_<name>.json`` -- one file per benchmark, records
    sorted by case so reruns produce byte-identical files for identical
    measurements."""
    path = Path(path)
    payload = {
        "schema": BENCH_SCHEMA_VERSION,
        "bench": bench,
        "records": [r.to_dict() for r in
                    sorted(records, key=lambda r: r.case)],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def read_bench(path) -> List[BenchRecord]:
    """Current-schema records in a BENCH file, sorted by case.

    A missing file, a foreign schema version, or unparsable JSON yields
    ``[]`` (baselines must be optional: a fresh checkout gates nothing);
    individual invalid records are skipped, not fatal.
    """
    path = Path(path)
    if not path.exists():
        return []
    try:
        payload = json.loads(path.read_text())
    except ValueError:
        return []
    if (not isinstance(payload, dict)
            or payload.get("schema") != BENCH_SCHEMA_VERSION
            or not isinstance(payload.get("records"), list)):
        return []
    records = []
    for data in payload["records"]:
        if not isinstance(data, dict) or validate_bench_record(data):
            continue
        records.append(BenchRecord.from_dict(data))
    return records


def merge_bench(path, bench: str, records: List[BenchRecord]) -> Path:
    """Write *records* into ``path``, replacing same-case records and
    keeping the rest -- so each benchmark test updates only its own cases
    and reruns stay idempotent."""
    fresh = {r.case: r for r in records}
    kept = [r for r in read_bench(path) if r.case not in fresh]
    return write_bench(path, bench, kept + list(fresh.values()))


# -- the regression gate (the `perf` CLI subcommand) -----------------------

#: Default relative events/sec (or wall-time) slowdown that counts as a
#: regression.  Deliberately generous: BENCH baselines travel between
#: machines, so only collapses (an accidentally quadratic loop), not
#: noise, should trip the gate.
TIME_THRESHOLD = 0.5


@dataclass
class PerfFlag:
    """One case that moved past a threshold against its baseline."""

    case: str
    baseline: float
    latest: float
    change: float              #: relative throughput change
    threshold: float

    def format(self) -> str:
        return (f"PERF[throughput] {self.case}: "
                f"{self.baseline:,.0f} -> {self.latest:,.0f} events/s "
                f"({self.change:+.1%}, threshold -{self.threshold:.0%})")


@dataclass
class PerfDiffReport:
    """What the perf gate concluded from baseline-vs-current records."""

    cases_checked: int = 0
    cases_unmatched: int = 0
    flags: List[PerfFlag] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.flags

    def format(self) -> str:
        lines = [f"perf gate: {self.cases_checked} case(s) compared against "
                 f"baseline, {self.cases_unmatched} without a baseline"]
        if self.ok:
            lines.append("  no regression beyond thresholds")
        else:
            lines.extend(f"  {flag.format()}" for flag in self.flags)
        return "\n".join(lines)


def diff_bench(baseline: List[BenchRecord], current: List[BenchRecord],
               time_threshold: float = TIME_THRESHOLD) -> PerfDiffReport:
    """Compare *current* records against same-case *baseline* records.

    Throughput compares events/sec when both sides carry it (the
    machine-independent-ish metric), else inverse wall time.
    """
    report = PerfDiffReport()
    by_case = {record.case: record for record in baseline}
    for record in current:
        base = by_case.get(record.case)
        if base is None:
            report.cases_unmatched += 1
            continue
        report.cases_checked += 1
        if (record.events_per_sec and base.events_per_sec
                and base.events_per_sec > 0):
            change = record.events_per_sec / base.events_per_sec - 1.0
            if change < -time_threshold:
                report.flags.append(PerfFlag(
                    case=record.case,
                    baseline=base.events_per_sec,
                    latest=record.events_per_sec,
                    change=change, threshold=time_threshold))
        elif record.wall_s > 0 and base.wall_s > 0:
            change = base.wall_s / record.wall_s - 1.0
            if change < -time_threshold:
                report.flags.append(PerfFlag(
                    case=record.case,
                    baseline=1.0 / base.wall_s, latest=1.0 / record.wall_s,
                    change=change, threshold=time_threshold))
    return report
