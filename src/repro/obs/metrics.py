"""The run-over-run metrics ledger: accuracy and performance history.

Ramulator 2.0's real-system accuracy regressed silently because nobody
*watched* it between validation papers; "Validating Simplified Processor
Models" argues validation must be continuous, not a one-off table.  This
module makes the reproduction watchable: every farm-dispatched simulation
appends one JSON-lines record -- canonical request key, configuration,
workload, cycles, percent error against the reference, attribution
fractions, wall time, cache outcome -- and ``python -m repro.obs watch``
diffs the newest records against ledger history, exiting nonzero when
accuracy or performance drifts past threshold (CI-able).

The writer is an argument of the farm (``Farm(metrics=writer)``), its one
caller; without one the farm pays a single ``is not None`` test per
request -- the ledger adds no cost to the simulator itself, which never
imports this module (lint rule L2 enforces that).

Record layout is a **frozen schema** (:data:`LEDGER_SCHEMA`): records
round-trip exactly through :meth:`LedgerRecord.to_dict` /
:meth:`LedgerRecord.from_dict`, and lint rule L4 fails if either the
schema constant or the round trip drifts.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Bumped on any incompatible record change; ``watch`` skips foreign versions.
SCHEMA_VERSION = 1

#: The frozen ledger-record schema: field -> (type, required).  Optional
#: fields may also be null.  Lint rule L4 pins this constant; changing it
#: is an explicit, reviewed act.
LEDGER_SCHEMA: Dict[str, Tuple[type, bool]] = {
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

#: The ``outcome`` vocabulary.
OUTCOMES = ("run", "hit")


def validate_record(record: Dict) -> List[str]:
    """Schema violations in *record* (empty list = valid).

    Checks required fields, types (bool is not an int here), the outcome
    vocabulary, and rejects fields outside the frozen schema -- additions
    must go through :data:`LEDGER_SCHEMA`.
    """
    problems = []
    for name, (typ, required) in LEDGER_SCHEMA.items():
        if name not in record or record[name] is None:
            if required:
                problems.append(f"missing required field {name!r}")
            continue
        value = record[name]
        ok = (isinstance(value, typ) and not isinstance(value, bool)
              if typ in (int, float) else isinstance(value, typ))
        if typ is float and isinstance(value, int) and not isinstance(value, bool):
            ok = True          # JSON does not distinguish 1 from 1.0
        if not ok:
            problems.append(
                f"field {name!r} has type {type(value).__name__}, "
                f"expected {typ.__name__}")
    for name in record:
        if name not in LEDGER_SCHEMA:
            problems.append(f"unknown field {name!r} (schema is frozen; "
                            f"extend LEDGER_SCHEMA explicitly)")
    outcome = record.get("outcome")
    if isinstance(outcome, str) and outcome not in OUTCOMES:
        problems.append(f"outcome {outcome!r} not in {OUTCOMES}")
    return problems


@dataclass
class LedgerRecord:
    """One farm-dispatched simulation, as the ledger remembers it."""

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

    def to_dict(self) -> Dict:
        return {
            "schema": self.schema,
            "ts": self.ts,
            "key": self.key,
            "config": self.config,
            "workload": self.workload,
            "n_cpus": self.n_cpus,
            "scale": self.scale,
            "seed": self.seed,
            "parallel_ps": self.parallel_ps,
            "total_ps": self.total_ps,
            "instructions": self.instructions,
            "wall_s": self.wall_s,
            "outcome": self.outcome,
            "percent_error": self.percent_error,
            "attribution": (None if self.attribution is None
                            else dict(self.attribution)),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "LedgerRecord":
        attribution = data.get("attribution")
        return cls(
            key=data["key"],
            config=data["config"],
            workload=data["workload"],
            n_cpus=data["n_cpus"],
            scale=data["scale"],
            seed=data["seed"],
            parallel_ps=data["parallel_ps"],
            total_ps=data["total_ps"],
            instructions=data["instructions"],
            wall_s=data["wall_s"],
            outcome=data["outcome"],
            percent_error=data.get("percent_error"),
            attribution=None if attribution is None else dict(attribution),
            ts=data.get("ts", 0.0),
            schema=data.get("schema", SCHEMA_VERSION),
        )


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


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


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
        base_ps = _median([float(r.parallel_ps) for r in earlier])
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
            base_err = _median(earlier_err)
            delta = latest.percent_error - base_err
            if abs(delta) > error_threshold:
                report.flags.append(DriftFlag(
                    group=group, kind="accuracy", baseline=base_err,
                    latest=latest.percent_error, change=delta,
                    threshold=error_threshold))
    return report
