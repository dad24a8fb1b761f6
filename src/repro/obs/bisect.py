"""Divergence bisection: where do two configurations first disagree?

The paper's methodology lives on run-vs-run comparison -- hardware vs.
simulated FLASH, tuned vs. untuned FlashLite, Mipsy vs. MXS.  When two
configurations produce different results, the interesting question is
*where the timelines first part ways*, not just by how much they differ
at the end.

:func:`bisect_divergence` runs the workload once under configuration A
to a quiescent :class:`Gate` -- every core parked between trace items at
``at_ps``, the calendar drained -- and forks.  The child reconfigures
its copy of the machine to B (:meth:`Machine.reconfigure
<repro.sim.machine.Machine.reconfigure>`); then each process restarts
the unfinished cores where they parked (:meth:`Machine.resume
<repro.sim.machine.Machine.resume>`) and replays the rest once, with an
:class:`EventStreamRecorder` on the engine's tracer slot (a running
digest chained over the event stream) and a span
:class:`~repro.obs.trace.TraceRecorder` installed at the resume point,
so both cover the suffix only.  Both sides start from one state -- the
same caches, page frames and clocks, copied by the fork -- so any
disagreement afterwards is the configuration delta's alone.  The first
divergent event is found by binary search over the two digest chains --
at most ``ceil(log2(events)) + 1`` probes on top of the two replays --
and the spans around it come from the same replay.  The child ships its
chain over a pipe, gets the divergent index back and ships only its
share of the report.

The two configurations must share the machine's shape
(:meth:`~repro.sim.machine.Machine.reconfigure` names what differs):
Mipsy against MXS is refused, MXS against R10K (``hardware``) works.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import signal
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.common.errors import ReproError
from repro.common.rng import DEFAULT_SEED
from repro.obs import hooks as obs_hooks
from repro.obs.doc import Para, Table, render_text
from repro.obs.record import Record
from repro.obs.trace import Span, TraceRecorder
from repro.sim.request import RunRequest

#: Spans reported around the divergence point per side.
CONTEXT_SPANS = 6
#: Recorded events reported around the divergence point per side.
CONTEXT_EVENTS = 3


class Gate:
    """A stop line at an absolute simulated time.

    ``Machine.begin(workload, gate=...)`` hands the gate to every core;
    between trace items a core whose local clock has reached
    :attr:`at_ps` parks on :meth:`hold` for good.  Once every unfinished
    core is held and the calendar has drained, the machine is quiescent.
    The model only ever touches ``at_ps`` and ``hold``.
    """

    def __init__(self, at_ps: int):
        if at_ps < 0:
            raise ReproError(f"gate time must be >= 0, got {at_ps}")
        self.at_ps = at_ps
        #: The nodes parked so far.
        self.held: set = set()

    def hold(self, node: int, env) -> object:
        """Register *node* as stopped at the gate; returns the event it
        waits on, which never fires."""
        self.held.add(node)
        return env.event()


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
                    f"`{self.config_b}`, resumed from the gate at "
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


class _Replay(NamedTuple):
    """One side's replay of the suffix: what the report is built from."""

    events: List[Tuple[int, str]]
    chain: List[str]
    spans: List[Span]


def _replay(machine) -> _Replay:
    """Restart *machine*'s parked cores and run them to the end once:
    engine events feed the digest chain (``Engine.tracer``), model spans
    the span recorder (the resumed suffix only)."""
    spans = TraceRecorder()
    with obs_hooks.observing(spans):
        machine.resume()
        stream = machine.env.tracer = EventStreamRecorder()
        machine.advance()
        machine.finish()
    return _Replay(stream.events, stream.chain, spans.spans())


def _around(side: _Replay, index: Optional[int]) -> Dict[str, Any]:
    """One side's share of the report around divergent event *index*:
    its neighborhood and, unless its stream ended first, the event and
    the spans active at it."""
    if index is None:
        return {}
    out: Dict[str, Any] = {"neighborhood": _neighborhood(side.events, index)}
    if index < len(side.events):
        when, event = side.events[index]
        out["event"] = {"when_ps": when, "event": event}
        out["context"] = _spans_near(side.spans, when)
    return out


def _fork_side(machine, config):
    """Fork a child that reconfigures *machine* to *config* and replays
    it.  Over two pipes the child sends its digest chain, reads back the
    divergent index, and sends its :func:`_around` share -- only what
    the report needs crosses.  A failure is sent as a string instead.
    Returns ``(pid, from_child, to_child)``; the child always leaves
    through ``os._exit``, whatever happens in it."""
    up_r, up_w = os.pipe()
    down_r, down_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (up_r, up_w, down_r, down_w):
            os.close(fd)
        raise
    if pid:
        os.close(up_w)
        os.close(down_r)
        return pid, os.fdopen(up_r, "rb"), os.fdopen(down_w, "wb")
    try:
        os.close(up_r)
        os.close(down_w)
        with os.fdopen(up_w, "wb") as up, os.fdopen(down_r, "rb") as down:
            try:
                machine.reconfigure(config)
                side = _replay(machine)
            except Exception as exc:  # the parent raises it, by name
                pickle.dump(f"{type(exc).__name__}: {exc}", up)
            else:
                pickle.dump(side.chain, up)
                up.flush()
                pickle.dump(_around(side, pickle.load(down)), up)
    finally:
        os._exit(0)


def _receive(pipe, name: str):
    """The child's next message, or one :class:`ReproError` naming why
    there is none."""
    try:
        payload = pickle.load(pipe)
    except (pickle.UnpicklingError, EOFError):
        payload = "its process ended without a result"
    if isinstance(payload, str):
        raise ReproError(f"bisect: the {name} side failed after the fork: "
                         f"{payload}")
    return payload


def _spans_near(spans: List[Span], t_ps: int,
                limit: int = CONTEXT_SPANS) -> List[Dict[str, Any]]:
    """Spans overlapping *t_ps*, padded with the nearest others."""
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


def _neighborhood(events: List[Tuple[int, str]], index: int,
                  radius: int = CONTEXT_EVENTS) -> List[Dict[str, Any]]:
    lo = max(0, index - radius)
    hi = min(len(events), index + radius + 1)
    return [{"index": i, "when_ps": events[i][0], "event": events[i][1]}
            for i in range(lo, hi)]


def bisect_divergence(config_a, config_b, workload, n_cpus: int = 1, *,
                      at_ps: int = 0, seed: int = DEFAULT_SEED,
                      placement: Optional[str] = None) -> DivergenceReport:
    """Find the first event where two configurations' timelines diverge.

    *config_a* runs to a quiescent gate at ``at_ps``; the process forks
    there and the child takes *config_b*.  Each side replays the rest
    once, feeding its event stream's digest chain and a span tracer, and
    the first divergent engine event is located by binary search over
    the two chains, with the spans active at it as context.
    """
    kwargs = {} if placement is None else {"placement": placement}
    request_a, request_b = (
        RunRequest(config, workload, n_cpus, seed=seed, **kwargs)
        for config in (config_a, config_b))
    # A shape the child would refuse is refused before the run, on a
    # machine nothing runs.
    request_a.machine().reconfigure(request_b.config)
    gate = Gate(at_ps)
    machine = request_a.machine()
    machine.begin(workload, gate=gate)
    if machine.advance_until_blocked():
        raise ReproError(
            f"{request_a.describe()} completed at t={machine.env.now} ps "
            f"before reaching the gate at {at_ps} ps")
    stuck = [core.node for core in machine.cores
             if not core.done and core.node not in gate.held]
    if stuck:
        raise ReproError(
            f"machine failed to quiesce at t={at_ps} ps: "
            + ", ".join(f"cpu{node}" for node in stuck)
            + " blocked short of the gate (at a barrier or lock)")
    resumed_at_ps = machine.env.now
    pid, from_child, to_child = _fork_side(machine, request_b.config)
    try:
        side_a = _replay(machine)
        chain_b = _receive(from_child, request_b.config.name)
        index, probes = first_divergence(side_a.chain, chain_b)
        pickle.dump(index, to_child)
        to_child.flush()
        around_b = _receive(from_child, request_b.config.name)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        from_child.close()
        to_child.close()
        os.waitpid(pid, 0)
    sides = {f"{field}_{name}": value
             for name, around in (("a", _around(side_a, index)),
                                  ("b", around_b))
             for field, value in around.items()}
    return DivergenceReport(
        config_a=request_a.config.name, config_b=request_b.config.name,
        workload=workload.name, resumed_at_ps=resumed_at_ps,
        events_a=len(side_a.events), events_b=len(chain_b),
        index=index, probes=probes, **sides)
