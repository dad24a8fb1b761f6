"""The two frozen-schema ledgers: accuracy history and simulator speed.

Ramulator 2.0's real-system accuracy regressed silently because nobody
*watched* it between validation papers; "Validating Simplified Processor
Models" argues validation must be continuous, not a one-off table.  This
module makes the reproduction watchable along both axes:

* the **metrics ledger** -- every farm-dispatched simulation appends one
  JSON-lines :class:`LedgerRecord` (canonical request key, configuration,
  workload, cycles, percent error against the reference, attribution
  fractions, wall time, cache outcome) and ``python -m repro.obs watch``
  diffs the newest records against ledger history
  (:func:`detect_drift`), exiting nonzero when accuracy or performance
  drifts past threshold (CI-able);
* the **BENCH perf ledger** -- one ``BENCH_<name>.json`` per benchmark
  holding a :class:`BenchRecord` per measured case (host wall time,
  simulated picoseconds, events/sec, speedup).  ``python -m repro.obs
  perf`` times one run and diffs it against a committed baseline
  (:func:`diff_bench`), exiting nonzero on a throughput collapse.  Where
  the host time *goes* is not recorded here: ``benchmarks/e2e`` partitions
  it per layer from outside the model.

The metrics writer is an argument of the farm (``Farm(metrics=writer)``),
its one caller; without one the farm pays a single ``is not None`` test
per request -- the ledgers add no cost to the simulator itself, which
never imports this module (lint rule L2 enforces that).

Both record layouts are **frozen schemas** (:data:`LEDGER_SCHEMA`,
:data:`BENCH_SCHEMA`) sharing one validator (:func:`validate_record`) and
the package's dict codec (:class:`~repro.obs.record.Record`; a record's
fields are exactly the keys of its ``SCHEMA``); records round-trip exactly,
and ``tests/test_obs_diff.py`` pins both so an edit breaks a test in review.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.obs.record import Record

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
    """Appends one :class:`LedgerRecord` per observed simulation.

    The writer keeps the latest reference timing it has seen per
    ``(workload, n_cpus, scale)`` so candidate records carry a percent
    error whenever the reference ran earlier in the same session (the
    comparison matrix batches references first, so this is the common
    case).  Records are appended line-atomically; interleaved writers
    corrupt nothing.
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
            config=result.config_name,
            workload=result.workload_name,
            n_cpus=result.n_cpus,
            scale=result.scale_name,
            seed=request.seed,
            parallel_ps=result.parallel_ps,
            total_ps=result.total_ps,
            instructions=result.instructions,
            wall_s=wall_s,
            outcome=outcome,
            percent_error=percent_error,
            attribution=attribution,
            ts=time.time(),
        )
        self.append(record)
        return record

    def append(self, record: LedgerRecord) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        self.written += 1


def read_ledger(path) -> List[LedgerRecord]:
    """All current-schema records in *path*, in append order.

    Torn trailing lines (a writer killed mid-append) and records written
    by a different schema version are skipped, not fatal: the ledger is
    an append-only log that must stay readable across its whole history.
    """
    path = Path(path)
    if not path.exists():
        return []
    records = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except ValueError:
            continue
        if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
            continue
        if validate_record(data):
            continue
        records.append(LedgerRecord.from_dict(data))
    return records


# -- drift detection (the `watch` command) ---------------------------------

#: Default relative change in parallel time that counts as drift.
TIME_THRESHOLD = 0.02
#: Default change in percent-error points that counts as accuracy drift.
ERROR_THRESHOLD = 1.0


@dataclass
class DriftFlag:
    """One group whose newest record moved past a threshold."""

    group: Tuple[str, str, int, str]
    kind: str                  #: "time" or "accuracy"
    baseline: float
    latest: float
    change: float              #: relative (time) or points (accuracy)
    threshold: float

    def format(self) -> str:
        workload, config, n_cpus, scale = self.group
        where = f"{workload}@{config}/P{n_cpus}/{scale}"
        if self.kind == "time":
            return (f"DRIFT[time] {where}: parallel {self.baseline / 1e9:.3f}"
                    f" -> {self.latest / 1e9:.3f} ms "
                    f"({self.change:+.1%}, threshold {self.threshold:.1%})")
        return (f"DRIFT[accuracy] {where}: error {self.baseline:+.2f}% -> "
                f"{self.latest:+.2f}% ({self.change:+.2f} points, "
                f"threshold {self.threshold:.2f})")


@dataclass
class DriftReport:
    """What ``watch`` concluded from the ledger."""

    groups_checked: int = 0
    records_seen: int = 0
    flags: List[DriftFlag] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.flags

    def format(self) -> str:
        lines = [f"watch: {self.records_seen} ledger records, "
                 f"{self.groups_checked} run groups with history"]
        if self.ok:
            lines.append("  no drift beyond thresholds")
        else:
            lines.extend(f"  {flag.format()}" for flag in self.flags)
        return "\n".join(lines)


def detect_drift(records: List[LedgerRecord],
                 time_threshold: float = TIME_THRESHOLD,
                 error_threshold: float = ERROR_THRESHOLD) -> DriftReport:
    """Compare each group's newest record against its history.

    The baseline is the median of the group's earlier records (robust to
    a single outlier in history); a group with fewer than two records has
    no history and cannot drift.  Cached replays reproduce the recorded
    result exactly, so an unchanged simulator never flags.
    """
    report = DriftReport(records_seen=len(records))
    groups: Dict[Tuple, List[LedgerRecord]] = {}
    for record in records:
        groups.setdefault(record.group(), []).append(record)
    for group, history in sorted(groups.items()):
        if len(history) < 2:
            continue
        report.groups_checked += 1
        latest = history[-1]
        earlier = history[:-1]
        base_ps = median(float(r.parallel_ps) for r in earlier)
        if base_ps > 0:
            change = (latest.parallel_ps - base_ps) / base_ps
            if abs(change) > time_threshold:
                report.flags.append(DriftFlag(
                    group=group, kind="time", baseline=base_ps,
                    latest=float(latest.parallel_ps), change=change,
                    threshold=time_threshold))
        earlier_err = [r.percent_error for r in earlier
                       if r.percent_error is not None]
        if latest.percent_error is not None and earlier_err:
            base_err = median(earlier_err)
            delta = latest.percent_error - base_err
            if abs(delta) > error_threshold:
                report.flags.append(DriftFlag(
                    group=group, kind="accuracy", baseline=base_err,
                    latest=latest.percent_error, change=delta,
                    threshold=error_threshold))
    return report


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
        bench=bench,
        case=case,
        wall_s=wall_s,
        sim_ps=None if result is None else result.total_ps,
        events=events,
        events_per_sec=(events / wall_s
                        if events is not None and wall_s > 0 else None),
        speedup=speedup,
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
    records, problems = [], []
    for index, data in enumerate(payload["records"]):
        invalid = (validate_record(data, BENCH_SCHEMA)
                   if isinstance(data, dict) else ["not an object"])
        if invalid:
            problems.append(f"invalid record {index}: {'; '.join(invalid)}")
        else:
            records.append(BenchRecord.from_dict(data))
    return records, problems


def read_bench(path) -> List[BenchRecord]:
    """Current-schema records in a BENCH file, sorted by case.

    A missing file, a foreign schema version, or unparsable JSON yields
    ``[]`` (baselines must be optional: a fresh checkout gates nothing);
    individual invalid records are skipped, not fatal.
    """
    return _scan_bench(path)[0]


def merge_bench(path, bench: str, records: List[BenchRecord]) -> Path:
    """Write *records* into ``path``, replacing same-case records and
    keeping the rest -- so each benchmark test updates only its own cases
    and reruns stay idempotent.

    Raises :class:`ValueError`, leaving the file untouched, when it holds
    anything this code cannot read: rewriting it would silently drop
    every other case.
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


# -- the regression gate (the `perf` CLI subcommand) -----------------------

#: Default relative events/sec (or wall-time) slowdown that counts as a
#: regression.  Deliberately generous: BENCH baselines travel between
#: machines, so only collapses (an accidentally quadratic loop), not
#: noise, should trip the gate.
PERF_THRESHOLD = 0.5


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
               time_threshold: float = PERF_THRESHOLD) -> PerfDiffReport:
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
            was, now = base.events_per_sec, record.events_per_sec
        elif record.wall_s > 0 and base.wall_s > 0:
            was, now = 1.0 / base.wall_s, 1.0 / record.wall_s
        else:
            continue
        change = now / was - 1.0
        if change < -time_threshold:
            report.flags.append(PerfFlag(
                case=record.case, baseline=was, latest=now,
                change=change, threshold=time_threshold))
    return report
