"""Divergence bisection: where do two configurations first disagree?

The paper's methodology lives on run-vs-run comparison -- hardware vs.
simulated FLASH, tuned vs. untuned FlashLite, Mipsy vs. MXS.  When two
configurations produce different results, the interesting question is
*where the timelines first part ways*, not just by how much they differ
at the end.

:func:`bisect_divergence` answers it from a shared checkpoint: the
workload is run once under configuration A to a quiescent gate
(:func:`repro.ckpt.checkpoint.save`), and that captured state is injected
into one fresh machine per configuration.  Both sides therefore resume
from the *identical* architectural state -- same caches, same page
frames, same clocks -- and any disagreement afterwards is attributable
to the configuration delta alone.  Each side is replayed exactly once
with an :class:`EventStreamRecorder` on the engine's tracer slot, which
chains a running digest over the event stream; the first divergent event
is then found by binary search over the two digest chains, so locating
it costs at most ``ceil(log2(events)) + 1`` digest probes on top of the
two replays.

Cross-configuration injection requires both configurations to share the
machine shape (same CPU count, scale, core family, and TLB modelling);
comparing, say, a Mipsy config against an MXS config is a shape mismatch
the component ``ckpt_restore`` methods reject.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.ckpt.checkpoint import MODE_QUIESCE, Checkpoint, save
from repro.common.errors import CheckpointError
from repro.common.rng import DEFAULT_SEED
from repro.obs import hooks as obs_hooks
from repro.obs.record import Record
from repro.obs.trace import TraceRecorder
from repro.sim.request import RunRequest

#: Spans reported around the divergence point per side.
CONTEXT_SPANS = 6
#: Recorded events reported around the divergence point per side.
CONTEXT_EVENTS = 3


class EventStreamRecorder(obs_hooks.Recorder):
    """Engine-tracer sink chaining a digest over the event stream.

    Sits on ``Engine.tracer``, so :meth:`span` is called once per
    calendar event with ``(when_ps, "engine", callback qualname)``.  The
    cumulative digest after event *i* summarizes events ``[0, i]``, so
    two streams' chains agree at *i* exactly when their first ``i+1``
    events agree -- the prefix property the binary search relies on.
    """

    def __init__(self):
        self.events: List[Tuple[int, str]] = []
        self.chain: List[str] = []
        self._hash = hashlib.sha256()

    def span(self, t_ps: int, category: str, name: str,
             dur_ps: int = 0, args: object = None) -> None:
        self._hash.update(f"{t_ps}:{name};".encode())
        self.events.append((int(t_ps), str(name)))
        self.chain.append(self._hash.hexdigest()[:16])


def first_divergence(chain_a: List[str],
                     chain_b: List[str]) -> Tuple[Optional[int], int]:
    """(first index where the chains disagree, digest probes spent).

    ``None`` means the streams are identical; an index equal to the
    shorter length means one stream is a strict prefix of the other.
    """
    n = min(len(chain_a), len(chain_b))
    if n == 0:
        return (0 if len(chain_a) != len(chain_b) else None), 0
    probes = 1
    if chain_a[n - 1] == chain_b[n - 1]:
        if len(chain_a) == len(chain_b):
            return None, probes
        return n, probes
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if chain_a[mid] == chain_b[mid]:
            lo = mid + 1
        else:
            hi = mid
    return lo, probes


@dataclass
class DivergenceReport(Record):
    """Where two configurations' event streams first part ways."""

    config_a: str
    config_b: str
    workload: str
    checkpoint_key: str
    resumed_at_ps: int
    events_a: int
    events_b: int
    #: First divergent event index (counted from the resume point), or
    #: None when the two streams are identical.
    index: Optional[int]
    #: The divergent event per side: {"when_ps", "event"}; None when that
    #: side's stream ended before the divergence index.
    event_a: Optional[Dict[str, Any]]
    event_b: Optional[Dict[str, Any]]
    #: Digest probes the binary search spent (<= ceil(log2(events)) + 1).
    probes: int
    #: Full resumed replays performed (2, plus 2 with tracing when
    #: span context was requested).
    replays: int
    #: Recorded events around the divergence, per side.
    neighborhood_a: List[Dict[str, Any]] = field(default_factory=list)
    neighborhood_b: List[Dict[str, Any]] = field(default_factory=list)
    #: Observability spans overlapping the divergence, per side.
    context_a: List[Dict[str, Any]] = field(default_factory=list)
    context_b: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return self.index is None

    @property
    def probe_budget(self) -> int:
        """The binary-search bound the probe count must respect."""
        n = max(1, min(self.events_a, self.events_b))
        return int(math.ceil(math.log2(n))) + 1 if n > 1 else 1

    def format(self) -> str:
        head = (f"{self.workload}: {self.config_a} vs {self.config_b}, "
                f"resumed from checkpoint {self.checkpoint_key[:16]} "
                f"at t={self.resumed_at_ps} ps")
        if self.identical:
            return (f"{head}\n  event streams identical "
                    f"({self.events_a} events; {self.probes} probes)")
        lines = [head,
                 f"  first divergent event: #{self.index} after resume "
                 f"({self.probes} digest probes over "
                 f"{min(self.events_a, self.events_b)} shared events, "
                 f"budget {self.probe_budget}; {self.replays} replays)"]
        for label, event, hood in (
                (self.config_a, self.event_a, self.neighborhood_a),
                (self.config_b, self.event_b, self.neighborhood_b)):
            if event is None:
                lines.append(f"  {label}: stream ended "
                             "(strict prefix of the other side)")
                continue
            lines.append(f"  {label}: t={event['when_ps']} ps  "
                         f"{event['event']}")
            for item in hood:
                marker = "->" if item["index"] == self.index else "  "
                lines.append(f"    {marker} #{item['index']} "
                             f"t={item['when_ps']} ps  {item['event']}")
        for label, spans in ((self.config_a, self.context_a),
                             (self.config_b, self.context_b)):
            if spans:
                lines.append(f"  {label} spans at the divergence:")
                for span in spans:
                    lines.append(
                        f"     t={span['t_ps']} ps  +{span['dur_ps']} ps  "
                        f"[{span['category']}] {span['name']}")
        return "\n".join(lines)


def _replay_recorded(request: RunRequest,
                     checkpoint: Checkpoint) -> EventStreamRecorder:
    """Inject the shared state into a machine for *request* and record."""
    machine = request.machine()
    try:
        machine.begin(request.workload, state=checkpoint.state)
    except Exception as exc:
        raise CheckpointError(
            f"cannot inject the shared checkpoint into "
            f"{request.config.name}: {exc}"
        ) from exc
    recorder = EventStreamRecorder()
    machine.env.tracer = recorder
    machine.advance()
    machine.finish()
    return recorder


def _replay_traced(request: RunRequest,
                   checkpoint: Checkpoint) -> TraceRecorder:
    """Replay one side under the span tracer (resume-suffix spans only)."""
    recorder = TraceRecorder()
    with obs_hooks.observing(recorder):
        machine = request.machine()
        machine.begin(request.workload, state=checkpoint.state,
                      allow_partial_obs=True)
        machine.advance()
        machine.finish()
    return recorder


def _spans_near(recorder: TraceRecorder, t_ps: int,
                limit: int = CONTEXT_SPANS) -> List[Dict[str, Any]]:
    """Spans overlapping *t_ps*, padded with the nearest others."""
    spans = recorder.spans()
    overlapping = [s for s in spans
                   if s.t_ps <= t_ps <= s.t_ps + max(s.dur_ps, 0)]
    # Narrowest first: the most specific span is the best context.
    overlapping.sort(key=lambda s: (max(s.dur_ps, 0), s.t_ps))
    chosen = overlapping[:limit]
    if len(chosen) < limit:
        rest = sorted((s for s in spans if s not in chosen),
                      key=lambda s: abs(s.t_ps - t_ps))
        chosen.extend(rest[:limit - len(chosen)])
        chosen.sort(key=lambda s: s.t_ps)
    return [{"t_ps": s.t_ps, "category": s.category, "name": s.name,
             "dur_ps": s.dur_ps, "args": s.args} for s in chosen]


def _neighborhood(recorder: EventStreamRecorder, index: int,
                  radius: int = CONTEXT_EVENTS) -> List[Dict[str, Any]]:
    lo = max(0, index - radius)
    hi = min(len(recorder.events), index + radius + 1)
    return [{"index": i, "when_ps": recorder.events[i][0],
             "event": recorder.events[i][1]}
            for i in range(lo, hi)]


def _event_at(recorder: EventStreamRecorder,
              index: int) -> Optional[Dict[str, Any]]:
    if index >= len(recorder.events):
        return None
    when, name = recorder.events[index]
    return {"when_ps": when, "event": name}


def bisect_divergence(config_a, config_b, workload, n_cpus: int = 1,
                      scale=None, at_ps: int = 0, seed: int = DEFAULT_SEED,
                      placement: Optional[str] = None,
                      checkpoint: Optional[Checkpoint] = None,
                      with_context: bool = True) -> DivergenceReport:
    """Find the first event where two configurations' timelines diverge.

    A quiescent checkpoint of *config_a* at ``at_ps`` (captured fresh, or
    passed in via *checkpoint* -- e.g. from a :class:`CheckpointStore`)
    seeds both sides; each side then replays once under an event-stream
    recorder, and the first divergent engine event is located by binary
    search over the digest chains.  ``with_context`` adds one traced
    replay per side to report the observability spans active at the
    divergence.
    """
    kwargs = {} if placement is None else {"placement": placement}
    request_a = RunRequest(config_a, workload, n_cpus, scale, seed=seed,
                           **kwargs)
    request_b = RunRequest(config_b, workload, n_cpus, scale, seed=seed,
                           **kwargs)
    if checkpoint is None:
        checkpoint = save(request_a, at_ps=at_ps, mode=MODE_QUIESCE)
    elif not checkpoint.injectable:
        raise CheckpointError(
            "bisection needs an injectable (quiesce-mode) checkpoint")
    rec_a = _replay_recorded(request_a, checkpoint)
    rec_b = _replay_recorded(request_b, checkpoint)
    index, probes = first_divergence(rec_a.chain, rec_b.chain)
    report = DivergenceReport(
        config_a=request_a.config.name,
        config_b=request_b.config.name,
        workload=workload.name,
        checkpoint_key=checkpoint.key,
        resumed_at_ps=checkpoint.stop["now_ps"],
        events_a=len(rec_a.events),
        events_b=len(rec_b.events),
        index=index,
        event_a=None if index is None else _event_at(rec_a, index),
        event_b=None if index is None else _event_at(rec_b, index),
        probes=probes,
        replays=2,
    )
    if index is not None:
        report.neighborhood_a = _neighborhood(rec_a, index)
        report.neighborhood_b = _neighborhood(rec_b, index)
        if with_context:
            for side, request, event in (("a", request_a, report.event_a),
                                         ("b", request_b, report.event_b)):
                if event is None:
                    continue
                traced = _replay_traced(request, checkpoint)
                spans = _spans_near(traced, event["when_ps"])
                setattr(report, f"context_{side}", spans)
                report.replays += 1
    return report
