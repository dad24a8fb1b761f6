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
to the configuration delta alone.  Each side is replayed exactly once,
with an :class:`EventStreamRecorder` on the engine's tracer slot (a
running digest chained over the event stream) and a span
:class:`~repro.obs.trace.TraceRecorder` on the probe in the same pass.
The first divergent event is found by binary search over the two digest
chains -- at most ``ceil(log2(events)) + 1`` probes on top of the two
replays -- and the spans around it come from the same replay.

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
from repro.obs.doc import Para, Table, render_text
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
    #: Digest probes the binary search spent (<= ceil(log2(events)) + 1).
    probes: int
    #: The divergent event per side: {"when_ps", "event"}; None when the
    #: streams are identical or that side's stream ended before it.
    event_a: Optional[Dict[str, Any]] = None
    event_b: Optional[Dict[str, Any]] = None
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

    def blocks(self) -> list:
        out = [Para(f"{self.workload}: `{self.config_a}` vs "
                    f"`{self.config_b}`, resumed from checkpoint "
                    f"{self.checkpoint_key[:16]} at "
                    f"t={self.resumed_at_ps} ps")]
        if self.identical:
            return out + [Para(f"event streams identical ({self.events_a} "
                               f"events; {self.probes} probes)")]
        out.append(Para(
            f"first divergent event: #{self.index} after resume "
            f"({self.probes} digest probes over "
            f"{min(self.events_a, self.events_b)} shared events, "
            f"budget {self.probe_budget})"))
        for label, event, hood, spans in (
                (self.config_a, self.event_a, self.neighborhood_a,
                 self.context_a),
                (self.config_b, self.event_b, self.neighborhood_b,
                 self.context_b)):
            if event is None:
                out.append(Para(f"`{label}`: stream ended (strict prefix "
                                "of the other side)"))
                continue
            out += [Para(f"`{label}`: t={event['when_ps']} ps "
                         f"`{event['event']}`"),
                    Table("tnnc", ["", "#", "t (ps)", "event"],
                          [["->" if item["index"] == self.index else "",
                            item["index"], item["when_ps"], item["event"]]
                           for item in hood])]
            if spans:
                out.append(Table(
                    "nntc", ["t (ps)", "dur (ps)", "category", "span"],
                    [[span["t_ps"], f"+{span['dur_ps']}", span["category"],
                      span["name"]] for span in spans]))
        return out

    def format(self) -> str:
        return render_text(self.blocks())


def _replay(request: RunRequest, checkpoint: Checkpoint
            ) -> Tuple[EventStreamRecorder, TraceRecorder]:
    """Inject the shared state into a machine for *request* and replay it
    once: engine events feed the digest chain (``Engine.tracer``), model
    spans the span recorder (the resumed suffix only)."""
    spans = TraceRecorder()
    with obs_hooks.observing(spans):
        machine = request.machine()
        try:
            machine.begin(request.workload, state=checkpoint.state,
                          allow_partial_obs=True)
        except Exception as exc:
            raise CheckpointError(
                f"cannot inject the shared checkpoint into "
                f"{request.config.name}: {exc}"
            ) from exc
        stream = machine.env.tracer = EventStreamRecorder()
        machine.advance()
        machine.finish()
    return stream, spans


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
                      checkpoint: Optional[Checkpoint] = None
                      ) -> DivergenceReport:
    """Find the first event where two configurations' timelines diverge.

    A quiescent checkpoint of *config_a* at ``at_ps`` (captured fresh, or
    passed in via *checkpoint* -- e.g. from a :class:`CheckpointStore`)
    seeds both sides; each side then replays once, feeding its event
    stream's digest chain and a span tracer, and the first divergent
    engine event is located by binary search over the two chains, with
    the spans active at it as context.
    """
    kwargs = {} if placement is None else {"placement": placement}
    request_a, request_b = (
        RunRequest(config, workload, n_cpus, scale, seed=seed, **kwargs)
        for config in (config_a, config_b))
    if checkpoint is None:
        checkpoint = save(request_a, at_ps=at_ps, mode=MODE_QUIESCE)
    elif not checkpoint.injectable:
        raise CheckpointError(
            "bisection needs an injectable (quiesce-mode) checkpoint")
    replays = [_replay(request, checkpoint)
               for request in (request_a, request_b)]
    (rec_a, _), (rec_b, _) = replays
    index, probes = first_divergence(rec_a.chain, rec_b.chain)
    sides: Dict[str, Any] = {}
    for side, (stream, spans) in zip("ab", [] if index is None else replays):
        event = sides[f"event_{side}"] = _event_at(stream, index)
        sides[f"neighborhood_{side}"] = _neighborhood(stream, index)
        if event is not None:
            sides[f"context_{side}"] = _spans_near(spans, event["when_ps"])
    return DivergenceReport(
        config_a=request_a.config.name, config_b=request_b.config.name,
        workload=workload.name, checkpoint_key=checkpoint.key,
        resumed_at_ps=checkpoint.stop["now_ps"],
        events_a=len(rec_a.events), events_b=len(rec_b.events),
        index=index, probes=probes, **sides)
