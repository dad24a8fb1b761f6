"""The two frozen-schema ledgers, and the one gate that watches both.

Ramulator 2.0's real-system accuracy regressed silently because nobody
*watched* it between validation papers; "Validating Simplified Processor
Models" argues validation must be continuous, not a one-off table.  Two
ledgers make the reproduction watchable along both axes: the **metrics
ledger** (one JSON-lines :class:`LedgerRecord` per farm-dispatched
simulation: request key, configuration, workload, cycles, percent error
against the reference, attribution fractions, wall time, cache outcome)
and the **BENCH perf ledger** (one ``BENCH_<name>.json`` per benchmark, a
:class:`BenchRecord` per measured case: host wall, simulated ps,
events/sec, speedup; where the host time *goes* is ``benchmarks/e2e``'s
business).  Both share one validator (:func:`validate_record`), one
tolerant scan returning ``(records, problems)``, and the package's dict
codec; ``tests/test_obs_diff.py`` pins both schemas.

Both are judged one way (:meth:`GateReport.judge`): a series' latest value
against the median of its history, relatively or in points, past a
threshold.  ``python -m repro.obs watch`` (:func:`detect_drift`) judges
each ledger run group's newest record, two-sided; ``python -m repro.obs
perf --baseline`` (:func:`diff_bench`) a fresh run against a committed
BENCH baseline, drop-only.  A :class:`Flag` exits nonzero (CI-able).

The metrics writer is an argument of the farm (``Farm(metrics=writer)``);
without one the farm pays one ``is not None`` test per request, and the
simulator never imports this module (lint rule L2).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.obs.doc import Para, Table, render_text
from repro.obs.record import Record, records

#: A frozen record schema: field -> (type, required).  Optional fields
#: may also be null.  Changing one is an explicit, reviewed act: bump its
#: version and the pinned copy in ``tests/test_obs_diff.py`` together.
Schema = Dict[str, Tuple[type, bool]]

#: Bumped on any incompatible record change; ``watch`` skips foreign versions.
SCHEMA_VERSION = 1

LEDGER_SCHEMA: Schema = {
    "schema": (int, True),         # SCHEMA_VERSION of the writing code
    "ts": (float, True),           # wall-clock unix time of the append
    "key": (str, True),            # content address (RunRequest.cache_key)
    "config": (str, True),
    "workload": (str, True),
    "n_cpus": (int, True),
    "scale": (str, True),
    "seed": (int, True),
    "parallel_ps": (int, True),    # the paper's headline timing metric
    "total_ps": (int, True),
    "instructions": (float, True),
    "wall_s": (float, True),       # host seconds (0.0 for cache hits)
    "outcome": (str, True),        # "run" | "hit"
    "percent_error": (float, False),   # vs reference, when one is known
    "attribution": (dict, False),      # category -> fraction of CPU time
}

#: Bumped on any incompatible BENCH record change; readers skip foreign
#: versions (3: the host-phase table went with the in-model profiler).
BENCH_SCHEMA_VERSION = 3

BENCH_SCHEMA: Schema = {
    "schema": (int, True),             # BENCH_SCHEMA_VERSION of the writer
    "bench": (str, True),              # emitting benchmark ("engine_hotpath")
    "case": (str, True),               # workload@config/Pn/scale/mode
    "wall_s": (float, True),           # host wall time of the measured run
    "sim_ps": (int, False),            # simulated picoseconds covered
    "events": (int, False),            # engine events processed
    "events_per_sec": (float, False),  # the headline simulator-speed metric
    "speedup": (float, False),         # vs. this case's own reference run
}

#: The ``outcome`` vocabulary.
OUTCOMES = ("run", "hit")


def validate_record(record: Dict, schema: Schema = LEDGER_SCHEMA) -> List[str]:
    """Violations of *schema* in *record* (empty list = valid).

    Checks required fields, types (bool is not an int here), the outcome
    vocabulary where the schema has one, and rejects fields outside the
    frozen schema -- additions must go through the schema constant.
    """
    problems = []
    for name, (typ, required) in schema.items():
        if name not in record or record[name] is None:
            if required:
                problems.append(f"missing required field {name!r}")
            continue
        value = record[name]
        # JSON does not distinguish 1 from 1.0; bool is never a number.
        accepted = (int, float) if typ is float else typ
        if (not isinstance(value, accepted)
                or (typ in (int, float) and isinstance(value, bool))):
            problems.append(
                f"field {name!r} has type {type(value).__name__}, "
                f"expected {typ.__name__}")
    for name in record:
        if name not in schema:
            problems.append(f"unknown field {name!r} (schema is frozen; "
                            f"extend it explicitly)")
    outcome = record.get("outcome")
    if ("outcome" in schema and isinstance(outcome, str)
            and outcome not in OUTCOMES):
        problems.append(f"outcome {outcome!r} not in {OUTCOMES}")
    return problems


@dataclass
class LedgerRecord(Record):
    """One farm-dispatched simulation, as the ledger remembers it."""

    SCHEMA: ClassVar[Schema] = LEDGER_SCHEMA

    key: str
    config: str
    workload: str
    n_cpus: int
    scale: str
    seed: int
    parallel_ps: int
    total_ps: int
    instructions: float
    wall_s: float
    outcome: str
    percent_error: Optional[float] = None
    attribution: Optional[Dict[str, float]] = None
    ts: float = 0.0
    schema: int = SCHEMA_VERSION

    def group(self) -> Tuple[str, str, int, str]:
        """The drift-tracking identity: same group = comparable records."""
        return (self.workload, self.config, self.n_cpus, self.scale)


class MetricsWriter:
    """Appends one :class:`LedgerRecord` per observed simulation,
    line-atomically (interleaved writers corrupt nothing).

    It keeps the latest reference timing per ``(workload, n_cpus, scale)``,
    so a candidate carries a percent error whenever the reference ran
    earlier in the session (the comparison matrix batches references first).
    """

    def __init__(self, path, reference_config: str = "hardware"):
        self.path = Path(path)
        self.reference_config = reference_config
        self.written = 0
        self._refs: Dict[Tuple[str, int, str], int] = {}

    def observe(self, request, result, wall_s: float, outcome: str,
                key: Optional[str] = None) -> LedgerRecord:
        """Record one request/result pair and return the appended record."""
        ref_key = (result.workload_name, result.n_cpus, result.scale_name)
        if result.config_name == self.reference_config:
            self._refs[ref_key] = result.parallel_ps
        percent_error = None
        ref_ps = self._refs.get(ref_key)
        if ref_ps is not None and result.config_name != self.reference_config:
            percent_error = (result.parallel_ps / ref_ps - 1.0) * 100.0
        attribution = None
        if result.breakdown is not None:
            attribution = result.breakdown.overall().fractions()
        record = LedgerRecord(
            key=key if key is not None else request.cache_key(),
            config=result.config_name, workload=result.workload_name,
            n_cpus=result.n_cpus, scale=result.scale_name, seed=request.seed,
            parallel_ps=result.parallel_ps, total_ps=result.total_ps,
            instructions=result.instructions, wall_s=wall_s, outcome=outcome,
            percent_error=percent_error, attribution=attribution,
            ts=time.time())
        self.append(record)
        return record

    def append(self, record: LedgerRecord) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        self.written += 1


def scan_ledger(path) -> Tuple[List[LedgerRecord], List[str]]:
    """(the current-schema records in *path* in append order, one problem
    per torn or schema-invalid line skipped).  Other schema versions'
    records are skipped silently: they are legitimate history."""
    path = Path(path)
    items = []
    lines = path.read_text().splitlines() if path.exists() else []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except ValueError:
            data = None                    # torn: reported as not an object
        if (isinstance(data, dict)
                and data.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION):
            continue
        items.append((f"line {number}", data))
    return _admit(LedgerRecord, items)


def read_ledger(path) -> List[LedgerRecord]:
    """The records of :func:`scan_ledger`, problems dropped."""
    return scan_ledger(path)[0]


def _admit(cls, items) -> Tuple[list, List[str]]:
    """(a *cls* per valid ``(where, payload)`` item, a problem per other)."""
    found, problems = [], []
    for where, data in items:
        invalid = (validate_record(data, cls.SCHEMA)
                   if isinstance(data, dict) else ["not an object"])
        if invalid:
            problems.append(f"invalid {where}: {'; '.join(invalid)}")
        else:
            found.append(cls.from_dict(data))
    return found, problems


# -- the BENCH perf ledger -------------------------------------------------

def make_case(workload: str, config: str, n_cpus: int, scale: str,
              mode: str) -> str:
    """The canonical case key: ``workload@config/Pn/scale/mode``."""
    return f"{workload}@{config}/P{n_cpus}/{scale}/{mode}"


@dataclass
class BenchRecord(Record):
    """One measured case of one benchmark, as the BENCH ledger keeps it."""

    SCHEMA: ClassVar[Schema] = BENCH_SCHEMA

    bench: str
    case: str
    wall_s: float
    sim_ps: Optional[int] = None
    events: Optional[int] = None
    events_per_sec: Optional[float] = None
    speedup: Optional[float] = None
    schema: int = BENCH_SCHEMA_VERSION


def run_record(bench: str, case: str, wall_s: float, result=None,
               events: Optional[int] = None,
               speedup: Optional[float] = None) -> BenchRecord:
    """Fold one measured run into a :class:`BenchRecord`.

    *result* (a :class:`~repro.sim.results.RunResult`) supplies the
    simulated time.
    """
    return BenchRecord(
        bench=bench, case=case, wall_s=wall_s,
        sim_ps=None if result is None else result.total_ps, events=events,
        events_per_sec=(events / wall_s
                        if events is not None and wall_s > 0 else None),
        speedup=speedup)


def write_bench(path, bench: str, records: List[BenchRecord]) -> Path:
    """Write ``BENCH_<name>.json`` -- one file per benchmark, records
    sorted by case so reruns produce byte-identical files for identical
    measurements."""
    path = Path(path)
    payload = {"schema": BENCH_SCHEMA_VERSION, "bench": bench,
               "records": [r.to_dict() for r in
                           sorted(records, key=lambda r: r.case)]}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _scan_bench(path) -> Tuple[List[BenchRecord], List[str]]:
    """(the valid current-schema records of a BENCH file in file order,
    everything that kept the rest of it from being read)."""
    path = Path(path)
    if not path.exists():
        return [], []
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        return [], [f"unparsable JSON ({exc})"]
    if (not isinstance(payload, dict)
            or not isinstance(payload.get("records"), list)):
        return [], ["not a BENCH payload (no records list)"]
    if payload.get("schema") != BENCH_SCHEMA_VERSION:
        return [], [f"file schema version is {payload.get('schema')!r}, "
                    f"this code reads and writes {BENCH_SCHEMA_VERSION}"]
    return _admit(BenchRecord, ((f"record {index}", data) for index, data
                                in enumerate(payload["records"])))


def read_bench(path) -> List[BenchRecord]:
    """The valid current-schema records of a BENCH file.  A missing,
    foreign-schema or unparsable file yields ``[]``: baselines are
    optional, and a fresh checkout gates nothing."""
    return _scan_bench(path)[0]


def merge_bench(path, bench: str, records: List[BenchRecord]) -> Path:
    """Write *records* into ``path``, replacing same-case records and
    keeping the rest, so each benchmark updates only its own cases.

    Raises :class:`ValueError`, leaving the file untouched, when it holds
    anything this code cannot read: rewriting would drop those records.
    """
    kept, problems = _scan_bench(path)
    if problems:
        raise ValueError(
            f"refusing to merge into {path}: {problems[0]}; rewriting it "
            "would drop every record this code cannot read -- migrate or "
            "delete the file first")
    fresh = {r.case: r for r in records}
    return write_bench(path, bench,
                       [r for r in kept if r.case not in fresh]
                       + list(fresh.values()))


# -- the gate (the `watch` and `perf` CLI subcommands) ---------------------

#: Default relative change in parallel time that counts as drift.
TIME_THRESHOLD = 0.02
#: Change in percent-error points that counts as accuracy drift.
ERROR_THRESHOLD = 1.0
#: Default relative events/sec (or wall-time) slowdown that counts as a
#: regression.  Deliberately generous: BENCH baselines travel between
#: machines, so only collapses (an accidentally quadratic loop), not
#: noise, should trip the gate.
PERF_THRESHOLD = 0.5


#: What the gate judges: metric -> (flag tag, stored-to-printed scale,
#: printed format, change in points rather than relative, a rise flags
#: too rather than only a drop).
METRICS = {
    "time": ("DRIFT[time]", 1e-9, "{:.3f} ms", False, True),
    "accuracy": ("DRIFT[accuracy]", 1.0, "{:+.2f}%", True, True),
    "throughput": ("PERF[throughput]", 1.0, "{:,.0f} events/s", False, False),
}


@dataclass
class Flag(Record):
    """One series whose latest value moved past its threshold."""

    series: str            #: run group (workload@config/Pn/scale) or case
    metric: str            #: a :data:`METRICS` key
    baseline: float        #: median of the series' history
    latest: float
    change: float          #: relative, or in points
    threshold: float

    def row(self) -> list:
        tag, scale, unit, points, two_sided = METRICS[self.metric]
        change, limit = ((f"{self.change:+.2f} pt", f"{self.threshold:.2f} pt")
                         if points else
                         (f"{self.change:+.1%}", f"{self.threshold:.1%}"))
        return [tag, self.series, unit.format(self.baseline * scale),
                unit.format(self.latest * scale), change,
                ("±" if two_sided else "-") + limit]


@dataclass
class GateReport(Record):
    """A gate's verdict: the series it compared, and those that flagged."""

    KIND: ClassVar[str] = "gate"

    gate: str                  #: "watch" or "perf"
    checked: int = 0           #: series with a history to compare against
    unmatched: int = 0         #: series without one
    skipped: int = 0           #: input lines that could not be read
    flags: List[Flag] = field(default_factory=list)

    def __post_init__(self):
        self.flags = records(Flag, self.flags)

    @property
    def ok(self) -> bool:
        return not self.flags

    def judge(self, series: str, metric: str, history: List[float],
              latest: float, threshold: float) -> None:
        """Flag *latest* if it moved past *threshold* from the median of
        *history* (a relative change needs a positive baseline)."""
        *_, points, two_sided = METRICS[metric]
        base = float(median(history))
        if points:
            change = latest - base
        elif base > 0:
            change = (latest - base) / base
        else:
            return
        if (abs(change) if two_sided else -change) > threshold:
            self.flags.append(Flag(series, metric, base, float(latest),
                                   change, threshold))

    def blocks(self) -> list:
        out = [Para(f"{self.gate}: {self.checked} series judged against "
                    f"history, {self.unmatched} without history")]
        if self.skipped:
            out.append(Para(f"{self.skipped} unreadable ledger line(s) "
                            "skipped"))
        if self.ok:
            what = "drift" if self.gate == "watch" else "regression"
            return out + [Para(f"no {what} beyond thresholds")]
        return out + [Table("tcnnnn", ["flag", "series", "baseline",
                                       "latest", "change", "threshold"],
                            [flag.row() for flag in self.flags])]

    def format(self) -> str:
        return render_text(self.blocks())


def detect_drift(records: List[LedgerRecord],
                 time_threshold: float = TIME_THRESHOLD) -> GateReport:
    """Judge each run group's newest record against its earlier ones:
    parallel time relatively, percent error in points, both two-sided.
    A group of one record has no history; cached replays reproduce the
    recorded result exactly, so an unchanged simulator never flags."""
    report = GateReport("watch")
    groups: Dict[Tuple, List[LedgerRecord]] = {}
    for record in records:
        groups.setdefault(record.group(), []).append(record)
    for (workload, config, n_cpus, scale), (*history, latest) in sorted(
            groups.items()):
        if not history:
            report.unmatched += 1
            continue
        report.checked += 1
        series = f"{workload}@{config}/P{n_cpus}/{scale}"
        report.judge(series, "time", [r.parallel_ps for r in history],
                     latest.parallel_ps, time_threshold)
        errors = [r.percent_error for r in history
                  if r.percent_error is not None]
        if latest.percent_error is not None and errors:
            report.judge(series, "accuracy", errors, latest.percent_error,
                         ERROR_THRESHOLD)
    return report


def diff_bench(baseline: List[BenchRecord], current: List[BenchRecord],
               time_threshold: float = PERF_THRESHOLD) -> GateReport:
    """Judge each *current* record's throughput against its same-case
    *baseline* records, drop-only: events/sec when every record carries
    it (the machine-independent-ish metric), else inverse wall time."""
    report = GateReport("perf")
    history: Dict[str, List[BenchRecord]] = {}
    for record in baseline:
        history.setdefault(record.case, []).append(record)
    for record in current:
        base = history.get(record.case)
        if base is None:
            report.unmatched += 1
            continue
        report.checked += 1
        if record.events_per_sec and all(b.events_per_sec for b in base):
            was, now = [b.events_per_sec for b in base], record.events_per_sec
        elif record.wall_s > 0 and all(b.wall_s > 0 for b in base):
            was, now = [1.0 / b.wall_s for b in base], 1.0 / record.wall_s
        else:
            continue
        report.judge(record.case, "throughput", was, now, time_threshold)
    return report
