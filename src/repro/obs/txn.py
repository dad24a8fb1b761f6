"""Per-transaction observability: *what one memory transaction spent
its latency on*.

PR 1's span tracer answers "which category of cycles diverged",
``obs.topo`` answers "where in the machine"; this module answers the
question both leave open: "what did remote miss #4711 actually spend its
2.4 us on?".  The paper's central finding is that simulator error lives
in the memory-system latency *distribution* -- protocol-processor
occupancy, directory queueing, network hops -- not in the mean, so the
evidence has to be per-transaction anatomy, not aggregates.

The recorder is a :mod:`repro.obs.hooks` probe subscriber, like
:mod:`repro.obs.topo`:

* it is installed with ``hooks.observing(TxnRecorder())``; nothing under
  ``cpu/``, ``mem/``, ``memsys/``, ``proto/``, ``network/`` or
  ``engine/`` may import *this* module (lint rule L2);
* recording never perturbs the simulation: the recorder only reads
  ``env.now`` and appends to its own lists -- no events, no timeouts --
  so a recording-enabled run is cycle-bit-identical to a disabled one.

**Exactness contract.**  In the discrete-event engine, simulated time
only advances across waits.  Every wait on a DSM transaction's critical
path is a stage of its plan (``repro.memsys.dsm``) that names the
segment it is charged to, and the walk charges the elapsed time to
exactly that one segment (:meth:`TxnRecord.cut`), so
the segments *partition* the end-to-end latency: their sum equals
``end_ps - start_ps`` by construction and the explicit residual row is
zero in-model.  Queue wait is split from service by the walk carrying
the record to each resource stage (:class:`repro.engine.Steps`), whose
grant reports its delay via :meth:`TxnRecord.add_wait`; the enclosing
segment then splits as ``service = elapsed - wait``.  Segment ownership
(which component opens, cuts, and closes what) is documented in
DESIGN.md.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.mem.address import home_node
from repro.obs import hooks
from repro.obs.doc import Details, Para, Table, fmt_ps, render_text, split
from repro.obs.record import Record

#: Slowest transactions retained with their full segment anatomy.
DEFAULT_TOP_K = 10

#: Fixed log-spaced histogram edges: ``1 ns * (2 ** 0.25) ** i`` -- about
#: 19% per bucket, 64 buckets spanning 1 ns .. ~56 us of transaction
#: latency, plus one overflow bucket.  Fixed so histograms from any two
#: runs merge bucket-for-bucket and goldens stay bit-stable.
N_BUCKETS = 64
FIRST_EDGE_PS = 1_000
EDGES = tuple(int(round(FIRST_EDGE_PS * (2.0 ** 0.25) ** i))
              for i in range(N_BUCKETS))

#: Transaction-kind key for dirty evictions (no protocol case applies).
WRITEBACK_KIND = "writeback"


class Histogram:
    """Fixed-bucket latency histogram with deterministic percentiles."""

    __slots__ = ("counts", "count", "total_ps", "min_ps", "max_ps")

    def __init__(self):
        self.counts = [0] * (N_BUCKETS + 1)
        self.count = 0
        self.total_ps = 0
        self.min_ps = 0
        self.max_ps = 0

    def add(self, value_ps: int) -> None:
        # First edge >= value; past the last edge is the overflow bucket.
        self.counts[bisect_left(EDGES, value_ps)] += 1
        if self.count == 0 or value_ps < self.min_ps:
            self.min_ps = value_ps
        if value_ps > self.max_ps:
            self.max_ps = value_ps
        self.count += 1
        self.total_ps += value_ps

    def merge_counts(self, counts: List[int]) -> None:
        for i, c in enumerate(counts):
            self.counts[i] += c
            self.count += c

    def percentile_ps(self, q_pct: int) -> int:
        """Smallest bucket upper edge with cumulative count >= q%.

        Integer arithmetic throughout, so the result is identical in any
        process.  The overflow bucket reports the exact observed max.
        """
        if self.count == 0:
            return 0
        cum = 0
        for i, c in enumerate(self.counts):
            cum += c
            if 100 * cum >= q_pct * self.count:
                return EDGES[i] if i < N_BUCKETS else self.max_ps
        return self.max_ps  # pragma: no cover - cum always reaches count


class TxnRecord:
    """One memory transaction's causally-linked latency segments.

    Opened at issue (``CpuMemInterface.issue_miss`` for demand misses,
    ``DsmMemorySystem`` itself for internal traffic), cut at every
    critical-path yield inside the DSM, closed when the reply lands.
    Each segment is ``[name, wait_ps, service_ps]``: *wait* is queueing
    delay reported by the resources the transaction acquired inside the
    segment's window, *service* is the remainder of the elapsed time.
    """

    __slots__ = ("uid", "node", "home", "paddr", "kind", "origin", "case",
                 "inval_fanout", "start_ps", "end_ps", "latency_ps",
                 "segments", "residual_ps", "waits", "_mark",
                 "_pending_wait")

    def __init__(self, uid: int, node: int, home: int, paddr: int,
                 kind: str, origin: str):
        self.uid = uid
        self.node = node
        self.home = home
        self.paddr = paddr
        self.kind = kind
        self.origin = origin
        self.case: Optional[str] = None
        self.inval_fanout = 0
        self.start_ps = 0
        self.end_ps = 0
        self.latency_ps = 0
        self.segments: List[List] = []
        self.residual_ps = 0
        self.waits: Dict[str, int] = {}
        self._mark = 0
        self._pending_wait = 0

    # -- lifecycle (called from guarded sites in the simulator) ----------

    def begin(self, t_ps: int) -> None:
        """Anchor the record at the transaction's first simulated instant."""
        self.start_ps = t_ps
        self._mark = t_ps

    def add_wait(self, resource_name: str, waited_ps: int) -> None:
        """A resource this transaction acquired reports its grant delay."""
        if waited_ps > 0:
            self._pending_wait += waited_ps
            self.waits[resource_name] = (
                self.waits.get(resource_name, 0) + waited_ps)

    def cut(self, name: str, t_ps: int) -> None:
        """Close the segment *name* covering ``[_mark, t_ps)``.

        Wait accumulated by :meth:`add_wait` since the previous cut is
        charged to this segment (clamped to the elapsed window, so
        ``wait + service == elapsed`` always); zero-length windows with
        no wait are dropped -- they contribute nothing to the sum.
        """
        dt = t_ps - self._mark
        self._mark = t_ps
        wait = self._pending_wait
        self._pending_wait = 0
        if dt <= 0 and wait <= 0:
            return
        if wait > dt:
            wait = dt
        self.segments.append([name, wait, dt - wait])

    def cut_wait(self, name: str, t_ps: int) -> None:
        """Close an all-wait segment: the whole window was queueing
        (directory busy serialization, invalidation-ack waits)."""
        dt = t_ps - self._mark
        self._mark = t_ps
        self._pending_wait = 0
        if dt <= 0:
            return
        self.segments.append([name, dt, 0])

    def close(self, t_ps: int, case: Optional[str]) -> None:
        """Seal the record; computes latency and the explicit residual."""
        if t_ps != self._mark:
            # Safety net: an unbracketed tail still sums exactly.
            self.cut("tail", t_ps)
        self.case = case
        self.end_ps = t_ps
        self.latency_ps = t_ps - self.start_ps
        self.residual_ps = self.latency_ps - sum(
            seg[1] + seg[2] for seg in self.segments)

    # -- reading ---------------------------------------------------------

    @property
    def kind_key(self) -> str:
        """``<memkind>.<protocol case>`` (+``+inv`` on invalidation
        fan-out), or ``writeback``."""
        if self.kind == "writeback":
            return WRITEBACK_KIND
        base = f"{self.kind}.{self.case}"
        return base + "+inv" if self.inval_fanout else base

    def to_dict(self) -> dict:
        return {
            "uid": self.uid,
            "kind": self.kind_key,
            "node": self.node,
            "home": self.home,
            "origin": self.origin,
            "start_ps": self.start_ps,
            "latency_ps": self.latency_ps,
            "residual_ps": self.residual_ps,
            "inval_fanout": self.inval_fanout,
            "segments": [list(seg) for seg in self.segments],
            "waits": {name: ps for name, ps in sorted(self.waits.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TxnRecord(#{self.uid} {self.kind_key} "
                f"{self.node}->{self.home}, {self.latency_ps} ps, "
                f"{len(self.segments)} segments)")


class _KindStats:
    """Per-kind accumulator: histogram + segment totals + residual."""

    __slots__ = ("hist", "segments", "residual_ps")

    def __init__(self):
        self.hist = Histogram()
        self.segments: Dict[str, List[int]] = {}  # name -> [wait, service]
        self.residual_ps = 0


class TxnRecorder(hooks.Recorder):
    """End-to-end transaction records for one (or more) runs.

    Construction is cheap and binding-free so tests can drive the API
    directly; :meth:`bind` (called by ``Machine.begin`` when the
    recorder is installed) supplies the geometry.  State lives entirely
    outside the machine: the recorder reads ``env.now`` through its
    callers and appends to its own structures, so recording cannot
    change a single scheduled event.
    """

    def __init__(self, top_k: int = DEFAULT_TOP_K):
        if top_k < 1:
            raise ConfigurationError(f"top_k must be >= 1, got {top_k}")
        self.top_k = top_k
        self.n_nodes = 0
        self.end_ps = 0
        #: Total events folded.
        self.total_events = 0
        self.total_txns = 0
        self.kinds: Dict[str, _KindStats] = {}
        #: The slowest-K sealed records, ascending (latency, uid) order.
        self.top: List[TxnRecord] = []
        #: Residual accounting across every transaction -- zero in-model.
        self.residual_ps = 0
        self.residual_txns = 0
        # -- context counters (not part of any transaction's anatomy) ----
        #: cache structure name -> miss count (mem/cache.py hook); local
        #: L1/L2 hits never reach the DSM, so this is the denominator
        #: context for the transactions that do.
        self.cache_misses: Dict[str, int] = {}
        #: directory transition -> count (proto/directory.py hook).
        self.dir_transitions: Dict[str, int] = {}
        #: widest invalidation fan-out observed at a directory entry.
        self.peak_sharers = 0
        #: write-buffer drain waits at sync points (cpu/core.py hook).
        self.write_drains = 0
        self.write_drain_ps = 0
        self._next_uid = 0

    # -- record lifecycle ------------------------------------------------

    def open_txn(self, node: int, paddr: int, kind: str,
                 origin: str = "internal") -> TxnRecord:
        """A new record; uids are assigned monotonically (stable ties)."""
        self.total_events += 1
        uid = self._next_uid
        self._next_uid = uid + 1
        return TxnRecord(uid, node, home_node(paddr), paddr, kind, origin)

    def commit_txn(self, record: TxnRecord) -> None:
        """Fold a sealed record into the per-kind aggregates and top-K."""
        self.total_txns += 1
        key = record.kind_key
        stats = self.kinds.get(key)
        if stats is None:
            stats = self.kinds[key] = _KindStats()
        stats.hist.add(record.latency_ps)
        for name, wait, service in record.segments:
            acc = stats.segments.get(name)
            if acc is None:
                acc = stats.segments[name] = [0, 0]
            acc[0] += wait
            acc[1] += service
        stats.residual_ps += record.residual_ps
        if record.residual_ps:
            self.residual_txns += 1
            self.residual_ps += record.residual_ps
        top = self.top
        if (len(top) < self.top_k
                or (record.latency_ps, record.uid)
                > (top[0].latency_ps, top[0].uid)):
            top.append(record)
            top.sort(key=lambda r: (r.latency_ps, r.uid))
            if len(top) > self.top_k:
                del top[0]

    # -- context events (not part of any transaction's anatomy) ----------

    def cache_miss(self, name: str, node: int, paddr: int) -> None:
        self.total_events += 1
        self.cache_misses[name] = self.cache_misses.get(name, 0) + 1

    def dir_transition(self, home: int, line: int, transition: str,
                       n_sharers: int = 0) -> None:
        # The sharer count is the fan-out width the *next* write to the
        # line will pay for (the "+inv" transaction flavor).
        self.total_events += 1
        self.dir_transitions[transition] = (
            self.dir_transitions.get(transition, 0) + 1)
        if n_sharers > self.peak_sharers:
            self.peak_sharers = n_sharers

    def drain(self, wait_ps: int) -> None:
        self.total_events += 1
        self.write_drains += 1
        self.write_drain_ps += wait_ps

    # -- machine lifecycle ----------------------------------------------

    def bind(self, machine) -> None:
        """Adopt *machine*'s geometry (called by ``Machine.begin``)."""
        self.n_nodes = max(self.n_nodes, machine.n_cpus)

    def finish(self, machine) -> None:
        self.end_ps = max(self.end_ps, machine.env.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TxnRecorder({self.total_txns} txns, "
                f"{len(self.kinds)} kinds, top-{self.top_k})")


# -- the report -------------------------------------------------------------


@dataclass
class TxnReport(Record):
    """Serializable latency anatomy: per-kind histograms + top-K.

    ``to_dict()`` carries ``"kind": "txn"`` so dashboards and findings
    can discriminate the payload; every duration is integer picoseconds
    so goldens are bit-stable.
    """

    KIND = "txn"

    total_txns: int
    kinds: dict
    top: list
    context: dict
    residual_ps: int
    residual_txns: int
    end_ps: int = 0
    config: str = ""
    workload: str = ""
    n_cpus: int = 0

    # -- reading ---------------------------------------------------------

    def percentile_ps(self, kinds, q_pct: int) -> int:
        """Percentile over the merged histograms of *kinds* (an iterable
        of kind keys, or a predicate over keys)."""
        merged = Histogram()
        max_ps = 0
        selector = kinds if callable(kinds) else (
            lambda key, _keys=tuple(kinds): key in _keys)
        for key in sorted(self.kinds):
            if selector(key):
                entry = self.kinds[key]
                merged.merge_counts(entry["buckets"])
                max_ps = max(max_ps, entry["max_ps"])
        merged.max_ps = max_ps
        return merged.percentile_ps(q_pct)

    def case_percentile_ps(self, case: str, q_pct: int) -> int:
        """Percentile over every kind whose protocol case is *case*."""
        return self.percentile_ps(
            lambda key: key.split(".", 1)[-1].split("+", 1)[0] == case,
            q_pct)

    def count_for(self, predicate) -> int:
        return sum(entry["count"] for key, entry in self.kinds.items()
                   if predicate(key))

    def blocks(self, top: Optional[int] = None) -> list:
        """The anatomy as :mod:`repro.obs.doc` blocks: per-kind
        percentiles with the wait-vs-service mix, then the slowest *top*
        critical paths with their explicit residual rows."""
        label = (f"   [{self.workload} @ `{self.config}`, P={self.n_cpus}]"
                 if self.config else "")
        rows = []
        for key in sorted(self.kinds):
            entry = self.kinds[key]
            segments = entry["segments"].values()
            rows.append([
                key, entry["count"], fmt_ps(entry["p50_ps"]),
                fmt_ps(entry["p90_ps"]), fmt_ps(entry["p99_ps"]),
                fmt_ps(entry["total_ps"] // max(1, entry["count"])),
                split(sum(s["wait_ps"] for s in segments),
                      sum(s["service_ps"] for s in segments))])
        out = [
            Para(f"txn: {self.total_txns} transactions, "
                 f"{len(self.kinds)} kinds{label}"),
            Table("cnnnnnt", ["kind", "count", "p50", "p90", "p99", "mean",
                              "wait vs service"], rows),
            Para(f"residual: {self.residual_ps} ps across "
                 f"{self.residual_txns} of {self.total_txns} transactions"),
        ]
        chosen = list(reversed(self.top))[:top]          # slowest first
        if chosen:
            body = []
            for t in chosen:
                fanout = (f" inval*{t['inval_fanout']}"
                          if t["inval_fanout"] else "")
                body += [
                    Para(f"#{t['uid']} `{t['kind']}` node{t['node']}→home"
                         f"{t['home']} {fmt_ps(t['latency_ps'])}{fanout}"),
                    Table("cnn", ["segment", "wait", "service"],
                          [[name, fmt_ps(wait), fmt_ps(service)]
                           for name, wait, service in t["segments"]]
                          + [["residual", fmt_ps(t["residual_ps"]), ""]])]
            out.append(Details(f"slowest {len(chosen)}:", body))
        return out

    def format(self, top: Optional[int] = None) -> str:
        return render_text(self.blocks(top))


def build_report(recorder: TxnRecorder, result=None,
                 top_k: Optional[int] = None) -> TxnReport:
    """Distil *recorder* into a :class:`TxnReport`.

    *result* (a RunResult) only supplies labels; *top_k* trims the
    retained slowest set for compact payloads.
    """
    kinds = {}
    for key in sorted(recorder.kinds):
        stats = recorder.kinds[key]
        hist = stats.hist
        kinds[key] = {
            "count": hist.count,
            "min_ps": hist.min_ps,
            "max_ps": hist.max_ps,
            "total_ps": hist.total_ps,
            "p50_ps": hist.percentile_ps(50),
            "p90_ps": hist.percentile_ps(90),
            "p99_ps": hist.percentile_ps(99),
            "buckets": list(hist.counts),
            "segments": {name: {"wait_ps": acc[0], "service_ps": acc[1]}
                         for name, acc in sorted(stats.segments.items())},
            "residual_ps": stats.residual_ps,
        }
    top = [rec.to_dict() for rec in recorder.top]
    if top_k is not None:
        top = top[max(0, len(top) - top_k):]
    context = {
        "cache_misses": dict(sorted(recorder.cache_misses.items())),
        "dir_transitions": dict(sorted(recorder.dir_transitions.items())),
        "peak_inval_fanout": recorder.peak_sharers,
        "write_drains": recorder.write_drains,
        "write_drain_ps": recorder.write_drain_ps,
    }
    return TxnReport(
        total_txns=recorder.total_txns,
        kinds=kinds,
        top=top,
        context=context,
        residual_ps=recorder.residual_ps,
        residual_txns=recorder.residual_txns,
        end_ps=recorder.end_ps,
        config=getattr(result, "config_name", ""),
        workload=getattr(result, "workload_name", ""),
        n_cpus=getattr(result, "n_cpus", 0),
    )
