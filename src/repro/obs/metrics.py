"""The two frozen-schema ledgers, their one format, and the one gate.

Ramulator 2.0's real-system accuracy regressed silently because nobody
*watched* it between validation papers; "Validating Simplified Processor
Models" argues validation must be continuous, not a one-off table.  Two
ledgers make the reproduction watchable along both axes: the **metrics
ledger** (a :class:`LedgerRecord` per farm-dispatched simulation: request
identity, configuration, workload, cycles, percent error against the
reference, wall time, cache outcome) and the **BENCH perf ledgers**
(one ``benchmarks/BENCH_<name>.jsonl`` per benchmark, a
:class:`BenchRecord` per measured case and run: host wall, simulated ps,
events/sec, speedup; where the host time *goes* is ``benchmarks/e2e``'s
business).

Both are one format: JSON lines, appended and never rewritten
(:func:`append_records`), so every series keeps its history, and read by
one tolerant scan (:func:`scan_ledger`) returning ``(records,
problems)``.  Both share one validator (:func:`validate_record`) and the
package's dict codec; ``tests/test_obs_diff.py`` pins both schemas.

Both are judged one way: a series' (``record.series()``, grouped by
:func:`by_series`; in the metrics ledger one series is one request)
newest value against the median of its earlier ones
(:meth:`GateReport.judge`), relatively or in points, past a threshold.
``python -m repro.obs watch`` (:func:`detect_drift`) judges every
metrics-ledger series, two-sided; ``python -m repro.obs perf --baseline``
(:func:`diff_bench`) a fresh run against its case's history in a BENCH
ledger, drop-only.  A :class:`Flag` exits nonzero (CI-able).

The metrics writer is an argument of the farm (``Farm(metrics=writer)``);
without one the farm pays one ``is not None`` test per request, and the
simulator never imports this module (lint rule L2).
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import ClassVar, Dict, Iterable, List, Optional, Tuple

from repro.common.canonical import stable_hash
from repro.obs.doc import Para, Table, render_text
from repro.obs.record import Record, records

#: A frozen record schema: field -> (type, required).  Optional fields
#: may also be null.  Changing one is an explicit, reviewed act: bump its
#: version and the pinned copy in ``tests/test_obs_diff.py`` together.
Schema = Dict[str, Tuple[type, bool]]

#: Bumped on any incompatible record change; scans skip foreign versions
#: (2: ``key`` is the request identity, not the cache key, and the
#: never-written ``attribution`` went).
SCHEMA_VERSION = 2

LEDGER_SCHEMA: Schema = {
    "schema": (int, True),         # SCHEMA_VERSION of the writing code
    "ts": (float, True),           # wall-clock unix time of the append
    "key": (str, True),            # RunRequest.identity: no code version
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
}

#: Bumped on any incompatible BENCH record change; scans skip foreign
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
    ts: float = 0.0
    schema: int = SCHEMA_VERSION

    def series(self) -> str:
        """The drift-tracking identity: the request's, behind a readable
        ``workload@config/Pn/scale`` prefix.  Records of one series are
        one request run again, so they are comparable, across commits
        too (the identity carries no code version); requests that differ
        only in placement, seed or a parameter under the same config
        name are separate series."""
        return (f"{self.workload}@{self.config}/P{self.n_cpus}/{self.scale}"
                f"#{self.key}")


class MetricsWriter:
    """Appends one :class:`LedgerRecord` per observed simulation,
    line-atomically (interleaved writers corrupt nothing).

    It keeps the latest reference timing per request less its
    configuration (workload content, CPU count, placement, seed), so a
    candidate carries a percent error whenever its reference ran earlier
    in the session (the comparison matrix batches references first).
    """

    def __init__(self, path, reference_config: str = "hardware"):
        self.path = Path(path)
        self.reference_config = reference_config
        self.written = 0
        self._refs: Dict[Tuple[str, int, str, int], int] = {}

    def observe(self, request, result, wall_s: float,
                outcome: str) -> LedgerRecord:
        """Record one request/result pair and return the appended record."""
        ref_key = (stable_hash(request.workload), request.n_cpus,
                   request.placement, request.seed)
        if result.config_name == self.reference_config:
            self._refs[ref_key] = result.parallel_ps
        percent_error = None
        ref_ps = self._refs.get(ref_key)
        if ref_ps is not None and result.config_name != self.reference_config:
            percent_error = (result.parallel_ps / ref_ps - 1.0) * 100.0
        record = LedgerRecord(
            key=request.identity,
            config=result.config_name, workload=result.workload_name,
            n_cpus=result.n_cpus, scale=result.scale_name, seed=request.seed,
            parallel_ps=result.parallel_ps, total_ps=result.total_ps,
            instructions=result.instructions, wall_s=wall_s, outcome=outcome,
            percent_error=percent_error, ts=time.time())
        self.append(record)
        return record

    def append(self, record: LedgerRecord) -> None:
        append_records(self.path, [record])
        self.written += 1


# -- the one ledger format -------------------------------------------------

def append_records(path, records: Iterable[Record]) -> None:
    """Append one JSON line per record to *path*; nothing already there
    is rewritten.  A torn last line gets its newline first, so it stays
    one unreadable line rather than swallowing the first new record."""
    path = Path(path)
    data = "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n"
                   for r in records).encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+b") as fh:          # writes always land at the end
        if fh.seek(0, os.SEEK_END):
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                data = b"\n" + data
        fh.write(data)


def scan_ledger(path, cls=LedgerRecord) -> Tuple[list, List[str]]:
    """(the *cls* records in *path* in append order, one problem per torn
    or schema-invalid line skipped).  Records of another schema version
    than ``cls.schema`` are skipped silently: they are legitimate history.
    A missing file holds no records."""
    path = Path(path)
    version = cls.schema
    found, problems = [], []
    lines = path.read_text().splitlines() if path.exists() else []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except ValueError:
            data = None                    # torn: reported as not an object
        if isinstance(data, dict) and data.get("schema", version) != version:
            continue
        invalid = (validate_record(data, cls.SCHEMA)
                   if isinstance(data, dict) else ["not an object"])
        if invalid:
            problems.append(f"invalid line {number}: {'; '.join(invalid)}")
        else:
            found.append(cls.from_dict(data))
    return found, problems


def read_ledger(path, cls=LedgerRecord) -> list:
    """The records of :func:`scan_ledger`, problems dropped."""
    return scan_ledger(path, cls)[0]


def by_series(records: Iterable) -> Dict[str, list]:
    """*records* grouped by ``record.series()``, each group in append order
    (its newest record last), the groups in first-appearance order.

    A group is named by its series' readable prefix (before ``#``), with
    the first 12 characters of the identity after it only where two
    series share that prefix (fig6 and fig7 both run radix at P=16 on
    ``hardware``, under different placements).
    """
    groups: Dict[str, list] = {}
    for record in records:
        groups.setdefault(record.series(), []).append(record)
    prefixes = Counter(series.partition("#")[0] for series in groups)
    named = {}
    for series, group in groups.items():
        prefix, _, identity = series.partition("#")
        named[prefix if prefixes[prefix] == 1
              else f"{prefix}#{identity[:12]}"] = group
    return named


# -- the BENCH perf ledger -------------------------------------------------

def make_case(workload: str, config: str, n_cpus: int, scale: str,
              mode: str) -> str:
    """The canonical case key: ``workload@config/Pn/scale/mode``."""
    return f"{workload}@{config}/P{n_cpus}/{scale}/{mode}"


@dataclass
class BenchRecord(Record):
    """One measured run of one case of one benchmark, as its BENCH ledger
    keeps it."""

    SCHEMA: ClassVar[Schema] = BENCH_SCHEMA

    bench: str
    case: str
    wall_s: float
    sim_ps: Optional[int] = None
    events: Optional[int] = None
    events_per_sec: Optional[float] = None
    speedup: Optional[float] = None
    schema: int = BENCH_SCHEMA_VERSION

    def series(self) -> str:
        """The perf-gate identity: records of one case are comparable."""
        return self.case


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


# -- the gate (the `watch` and `perf` CLI subcommands) ---------------------

#: Default relative change in parallel time that counts as drift.
TIME_THRESHOLD = 0.02
#: Change in percent-error points that counts as accuracy drift.
ERROR_THRESHOLD = 1.0
#: Default relative events/sec (or wall-time) slowdown that counts as a
#: regression.  Deliberately generous: BENCH ledgers travel between
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

    series: str            #: the judged record's ``series()``
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
    """Judge each series' newest record against its earlier ones:
    parallel time relatively, percent error in points, both two-sided.
    A series of one record has no history; cached replays reproduce the
    recorded result exactly, so an unchanged simulator never flags."""
    report = GateReport("watch")
    for series, (*history, latest) in sorted(by_series(records).items()):
        if not history:
            report.unmatched += 1
            continue
        report.checked += 1
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
    """Judge each *current* record, the newest of its series, against
    every earlier same-case *baseline* record, drop-only: events/sec when
    every record carries it (the machine-independent-ish metric), else
    inverse wall time."""
    report = GateReport("perf")
    history = by_series(baseline)
    for record in current:
        base = history.get(record.series())
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
        report.judge(record.series(), "throughput", was, now, time_threshold)
    return report
