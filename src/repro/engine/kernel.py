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
from collections import deque
from typing import Any, Callable, Generator, Optional

from repro.common.errors import SimulationError
from repro.engine.events import AllOf, AnyOf, Event, Timeout

ProcessGen = Generator[Event, Any, Any]


class Process(Event):
    """A running coroutine; fires (as an event) when the generator returns."""

    __slots__ = ("_gen", "name", "_send", "_wake")

    def __init__(self, env: "Engine", gen: ProcessGen, name: str = "proc"):
        Event.__init__(self, env)
        self._gen = gen
        self.name = name
        self._send = gen.send
        # One bound ``_resume`` per process, not one per wait.  It is a
        # reference cycle, so completion drops it.
        self._wake = self._resume
        # Kick off on the next dispatch at the current time.
        env._defer((self._wake, _START))

    def _resume(self, event: Event) -> None:
        failure = event._failed
        try:
            if failure is not None:
                target = self._gen.throw(failure)
            else:
                target = self._send(event.value)
        except StopIteration as stop:
            self._send = self._wake = None
            self.succeed(stop.value)
            return
        except Exception as exc:
            self.fail(SimulationError(f"process {self.name!r} crashed: {exc!r}"))
            raise
        if not isinstance(target, Event):
            error = SimulationError(
                f"process {self.name!r} yielded {target!r}, not an Event"
            )
            self.fail(error)
            raise error
        # target.add_waiter(self._wake), inlined: once per wait.
        if target._fired:
            self.env._defer((self._wake, target))
        else:
            target._waiters.append(self._wake)


class _Start:
    """Sentinel used to prime a freshly created process."""

    value = None
    _failed = None


_START = _Start()


class Engine:
    """Event calendar + clock.  One engine per simulated machine.

    The ordering rule every component relies on (and every fusion in this
    package preserves): calendar entries run in ``(when, seq)`` order;
    callbacks deferred while one entry runs are called first-in first-out;
    a calendar entry is popped only when that queue is empty.

    From it follows the in-place rule: a callback the loop called itself
    (a calendar entry or a deferred callback -- not one of several
    waiters ``Event._fire`` calls in turn) that, as its last act, defers
    into an empty queue would have that deferral run next.  Running it
    in place instead draws the same ``seq``, at the same ``now``, for
    everything it schedules.  :class:`~repro.engine.resources.Steps`
    walks rest on this.
    """

    def __init__(self):
        self._heap: list = []
        self._seq = 0
        self.now: int = 0  # picoseconds
        self._queue: deque = deque()
        #: ``env._defer((fn, arg))``: run ``fn(arg)`` at the current time,
        #: after the running callback and everything deferred before it.
        self._defer = self._queue.append
        self.events_processed = 0
        #: Optional per-engine observer: anything with the ``span`` event
        #: of :class:`repro.obs.hooks.Recorder`, set by whoever wants the
        #: calendar (``repro.obs.bisect`` sets its event-stream recorder;
        #: the probe never does).  :meth:`run` reads it once and calls it
        #: once per calendar event, behind an ``is not None`` guard on a
        #: local, so the disabled path stays a single test.
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

    def run(self, until: Optional[Event] = None) -> Any:
        """Run until *until* fires or the calendar drains.

        Returns ``until.value`` when *until* is given and fired; a drained
        calendar before then is a deadlock.  With no *until*, drains the
        calendar.
        """
        heap = self._heap
        queue = self._queue
        next_deferred = queue.popleft
        heappop = heapq.heappop
        obs = self.tracer
        while True:
            while queue:
                fn, arg = next_deferred()
                fn(arg)
            if until is not None and until._fired:
                if until._failed is not None:
                    raise until._failed
                return until.value
            if not heap:
                break
            when, _seq, fn, arg = heappop(heap)
            self.now = when
            self.events_processed += 1
            if obs is not None:
                obs.span(when, "engine", getattr(fn, "__qualname__", "callback"))
            fn(arg)
        if until is not None:
            raise SimulationError(
                f"event queue drained at t={self.now} ps before target fired "
                "(deadlock: a process is blocked forever)"
            )
        return None
