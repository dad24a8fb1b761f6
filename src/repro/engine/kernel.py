"""The discrete-event simulation kernel.

:class:`Engine` owns the event calendar (a binary heap of timestamped
callbacks) and the global clock in picoseconds.  :class:`Process` wraps a
generator coroutine: the generator ``yield``\\ s :class:`~repro.engine.events.Event`
objects and is resumed with each event's value when it fires.  A process is
itself an event, firing with the generator's return value, so processes can
wait on each other (that is how a CPU model waits for a memory transaction).

This mirrors the structure the paper describes for FlashLite: "a
multi-threaded simulator of the memory bus, MAGIC node controller, network,
memory, and I/O subsystems" -- each of those is a :class:`Process` or a
:class:`~repro.engine.resources.Resource` here.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

from repro.common.errors import SimulationError
from repro.engine.events import AllOf, AnyOf, Event, Timeout

ProcessGen = Generator[Event, Any, Any]


class Process(Event):
    """A running coroutine; fires (as an event) when the generator returns."""

    __slots__ = ("_gen", "name")

    def __init__(self, env: "Engine", gen: ProcessGen, name: str = "proc"):
        super().__init__(env)
        self._gen = gen
        self.name = name
        # Kick off on the next dispatch at the current time.
        env._dispatch(self._resume, _START)

    def _resume(self, event: Event) -> None:
        if event is _START:
            send_value = None
            failure = None
        else:
            send_value = event.value
            failure = event._failed
        try:
            if failure is not None:
                target = self._gen.throw(failure)
            else:
                target = self._gen.send(send_value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as exc:
            self.fail(SimulationError(f"process {self.name!r} crashed: {exc!r}"))
            raise
        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}, not an Event"
                )
            )
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, not an Event"
            )
        target.add_waiter(self._resume)


class _Start:
    """Sentinel used to prime a freshly created process."""

    value = None
    _failed = None


_START = _Start()


class Engine:
    """Event calendar + clock.  One engine per simulated machine."""

    def __init__(self):
        self._heap: list = []
        self._seq = 0
        self.now: int = 0  # picoseconds
        self._pending_dispatch: list = []
        self.events_processed = 0
        #: Optional per-engine observer: anything with the ``span`` event
        #: of :class:`repro.obs.hooks.Recorder` (``Machine`` installs the
        #: probe's engine observer, ``repro.ckpt.bisect`` its event-stream
        #: recorder).  :meth:`step` calls it once per calendar event,
        #: behind an ``is not None`` guard on a local, so the disabled
        #: path stays a single attribute test.
        self.tracer = None

    # -- scheduling ------------------------------------------------------

    def schedule_at(self, when_ps: int, fn: Callable, arg: Any) -> None:
        """Run ``fn(arg)`` at absolute time *when_ps*."""
        if when_ps < self.now:
            raise SimulationError(
                f"scheduling into the past: {when_ps} < now {self.now}"
            )
        self._seq += 1
        heapq.heappush(self._heap, (when_ps, self._seq, fn, arg))

    def _dispatch(self, fn: Callable, arg: Any) -> None:
        """Run ``fn(arg)`` at the current time, after the current callback."""
        self._pending_dispatch.append((fn, arg))

    # -- event factories -------------------------------------------------

    def timeout(self, delay_ps: int) -> Timeout:
        """An event firing *delay_ps* picoseconds from now."""
        return Timeout(self, delay_ps)

    def event(self) -> Event:
        """A fresh pending event, fired manually via ``succeed``."""
        return Event(self)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    def process(self, gen: ProcessGen, name: str = "proc") -> Process:
        """Spawn a coroutine as a process."""
        return Process(self, gen, name)

    # -- main loop -------------------------------------------------------

    def _drain_dispatch(self) -> None:
        while self._pending_dispatch:
            batch, self._pending_dispatch = self._pending_dispatch, []
            for fn, arg in batch:
                fn(arg)

    def step(self) -> bool:
        """Process the next timestamped event.  Returns False when empty."""
        self._drain_dispatch()
        if not self._heap:
            return False
        when, _seq, fn, arg = heapq.heappop(self._heap)
        self.now = when
        self.events_processed += 1
        obs = self.tracer
        if obs is not None:
            obs.span(when, "engine", getattr(fn, "__qualname__", "callback"))
        fn(arg)
        self._drain_dispatch()
        return True

    def run(self, until: Optional[Event] = None, max_ps: Optional[int] = None,
            max_events: Optional[int] = None) -> Any:
        """Run until *until* fires, the calendar drains, or a limit is hit.

        ``max_ps`` stops before the first event scheduled past that time;
        ``max_events`` stops after that many further calls to :meth:`step`.
        Both leave the engine at a clean between-events boundary (pending
        same-time dispatches drained), so a paused run can be resumed by
        calling :meth:`run` again -- that is what ``repro.ckpt`` relies on.

        Returns ``until.value`` when *until* is given and fired.
        """
        stop_after = (None if max_events is None
                      else self.events_processed + max_events)
        self._drain_dispatch()
        while True:
            if until is not None and until.fired:
                if until._failed is not None:
                    raise until._failed
                return until.value
            if max_ps is not None and self._heap and self._heap[0][0] > max_ps:
                return None
            if stop_after is not None and self.events_processed >= stop_after:
                return None
            if not self.step():
                break
        if until is not None and not until.fired:
            raise SimulationError(
                f"event queue drained at t={self.now} ps before target fired "
                "(deadlock: a process is blocked forever)"
            )
        return None if until is None else until.value

    # -- checkpoint contract ---------------------------------------------

    def ckpt_state(self) -> dict:
        """Clock, counters, and a structural view of the calendar.

        Heap entries carry the callback's qualified name, not the callback:
        coroutine frames cannot be serialized, so a non-empty calendar can
        be *captured* (for digests and inspection) but only an empty one can
        be restored by injection -- replay-mode restore reconstructs live
        frames by re-running to the stop point instead.
        """
        return {
            "now": int(self.now),
            "seq": int(self._seq),
            "events_processed": int(self.events_processed),
            "pending_dispatch": len(self._pending_dispatch),
            "heap": [[int(when), int(seq),
                      getattr(fn, "__qualname__", "callback")]
                     for when, seq, fn, _arg in self._heap],
        }

    def ckpt_restore(self, state: dict) -> None:
        """Inject clock and counters into a fresh (empty-calendar) engine."""
        if state["heap"] or state["pending_dispatch"]:
            raise SimulationError(
                "cannot inject engine state with live events: "
                f"{len(state['heap'])} heap entries, "
                f"{state['pending_dispatch']} pending dispatches "
                "(only quiescent checkpoints are injectable; use replay)"
            )
        if self._heap or self._pending_dispatch:
            raise SimulationError(
                "refusing to inject into an engine with scheduled events"
            )
        self.now = state["now"]
        self._seq = state["seq"]
        self.events_processed = state["events_processed"]
