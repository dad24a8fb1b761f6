"""Contended resources: the occupancy building block.

A :class:`Resource` is a FIFO server with a fixed capacity, used for every
occupancy effect the paper cares about: the MAGIC protocol processor, the
inbox/outbox interfaces, network router links, DRAM banks, and the R10000's
secondary-cache interface.  The generic NUMA model deliberately *omits*
resources on the directory-controller path -- that omission is exactly the
sensitivity the Figure 7 experiment measures.

:meth:`Resource.use` packages the common acquire/hold/release pattern as
one event; :class:`Steps` chains uses and plain delays into one event.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Deque, Iterable, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.stats import CounterSet
from repro.engine.events import Event
from repro.engine.kernel import Engine


class _Use(Event):
    """One :meth:`Resource.use`: the completion event is also the record
    the resource queues, arms and finishes."""

    __slots__ = ("hold_ps", "txn", "waited_ps")

    #: The hold is over and the unit released: fire (waiters deferred).
    _held = Event.succeed


class Resource:
    """A capacity-limited FIFO server.

    Processes call :meth:`acquire` and wait on the returned event, then must
    call :meth:`release` exactly once.  Utilisation and queueing statistics
    accumulate in :attr:`stats`.
    """

    def __init__(self, env: Engine, name: str, capacity: int = 1,
                 stats: Optional[CounterSet] = None):
        if capacity < 1:
            raise SimulationError(f"resource {name}: capacity must be >= 1")
        self.env = env
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        self.requests = 0
        self._queue: Deque = deque()
        self.stats = stats if stats is not None else CounterSet(name)
        self._busy_since: Optional[int] = None
        # Bound once: every ``use`` hands these to the engine.
        self._arm_cb = self._arm
        self._finish_cb = self._finish_hold

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def acquire(self) -> Event:
        """Request one unit; the event fires when the unit is granted."""
        event = Event(self.env)
        self._request(event)
        return event

    def _request(self, event: Event) -> None:
        self.requests += 1
        if self.in_use < self.capacity:
            self._grant(event, waited_ps=0)
        else:
            self._queue.append((event, self.env.now))

    def _grant(self, event: Event, waited_ps: int) -> None:
        self.in_use += 1
        if self._busy_since is None:
            self._busy_since = self.env.now
        if waited_ps > 0:
            self.stats.add("queued_grants")
            self.stats.add("wait_ps", waited_ps)
        if isinstance(event, _Use):
            # Arm the hold where the grant's one waiter used to run.
            event.waited_ps = waited_ps
            self.env._defer((self._arm_cb, event))
        else:
            event.succeed(self)

    def release(self) -> None:
        """Return one unit, granting the head of the queue if any."""
        if self.in_use <= 0:
            raise SimulationError(f"resource {self.name}: release without acquire")
        self.in_use -= 1
        if self.in_use == 0 and self._busy_since is not None:
            self.stats.add("busy_ps", self.env.now - self._busy_since)
            self._busy_since = None
        if self._queue:
            event, enqueued_at = self._queue.popleft()
            self._grant(event, waited_ps=self.env.now - enqueued_at)

    def use(self, hold_ps: int, txn=None) -> "Event":
        """Acquire, hold for *hold_ps*, release.

        Returns an event firing when the hold completes.  This is the
        one-line occupancy idiom used throughout the memory system::

            yield magic.dram.use(params.dram_ps)

        Occupancy is by far the most frequent operation in a simulation,
        so a use is one record -- the returned event carries the hold --
        and one deferred callback, whether or not a unit is free: the
        grant (now, or at a later :meth:`release`) defers :meth:`_arm`,
        which puts the end of the hold on the calendar.

        *txn* is an optional :class:`repro.obs.txn.TxnRecord`: at grant
        time the queueing delay is reported via ``txn.add_wait`` so the
        transaction's enclosing segment can split wait from service.
        Recording adds no events and never reorders the grant, so cycle
        counts are bit-identical with it on or off.
        """
        if hold_ps < 0:
            raise SimulationError(
                f"resource {self.name}: negative hold {hold_ps}")
        use = _Use(self.env)
        use.hold_ps = hold_ps
        use.txn = txn
        self._request(use)
        return use

    def _arm(self, use: "_Use") -> None:
        if use.txn is not None:
            use.txn.add_wait(self.name, use.waited_ps)
        env = self.env
        # The end of the hold, pushed the way ``Timeout`` pushes itself.
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env.now + use.hold_ps, seq, self._finish_cb, use))

    def _finish_hold(self, use: "_Use") -> None:
        self.release()
        use._held()

    # -- checkpoint contract ---------------------------------------------

    def ckpt_state(self) -> dict:
        """Occupancy, queue shape, and accumulated statistics.

        Queued grants are captured as ``(fired, enqueued_at)`` markers --
        the waiting coroutine frames themselves are not serializable, so a
        busy resource documents its shape for digests but only an idle one
        (``in_use == 0``, empty queue) can be injected on restore.
        """
        return {
            "in_use": int(self.in_use),
            "requests": int(self.requests),
            "queue": [[bool(event.fired), int(enqueued_at)]
                      for event, enqueued_at in self._queue],
            "busy_since": (None if self._busy_since is None
                           else int(self._busy_since)),
            "stats": self.stats.ckpt_state(),
        }

    def ckpt_restore(self, state: dict) -> None:
        if state["in_use"] or state["queue"] or state["busy_since"] is not None:
            raise SimulationError(
                f"resource {self.name}: cannot inject a busy resource "
                f"({state['in_use']} in use, {len(state['queue'])} queued)"
            )
        if self.in_use or self._queue:
            raise SimulationError(
                f"resource {self.name}: refusing to inject into a busy resource"
            )
        self.requests = state["requests"]
        self._busy_since = None
        self.stats.ckpt_restore(state["stats"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Resource({self.name}, {self.in_use}/{self.capacity} busy, "
            f"{len(self._queue)} queued)"
        )


class Steps(_Use):
    """A fixed sequence of waits as one event, without a process.

    Each step is ``(resource, hold_ps)`` -- what :meth:`Resource.use`
    does -- or ``(None, delay_ps)`` -- a plain delay; the event fires,
    with the completion time, when the last one is over.  It schedules
    exactly what a child process yielding those waits one by one would:
    one deferred start, then per step the same request and calendar
    entry drawn at the same point (the event is its own use record, one
    step at a time), then one firing.  *txn* rides along to every use.
    """

    __slots__ = ("_todo", "_next")

    def __init__(self, env: Engine,
                 steps: Iterable[Tuple[Optional[Resource], int]], txn=None):
        Event.__init__(self, env)
        self.txn = txn
        self._todo = iter(steps)
        # Bound once; dropped at the end (it is a reference cycle).
        self._next = self._advance
        env._defer((self._next, None))

    def _advance(self, _event) -> None:
        env = self.env
        step = next(self._todo, None)
        if step is None:
            self._next = None
            self.succeed(env.now)
            return
        res, ps = step
        if ps < 0:
            raise SimulationError(f"negative step {ps}")
        if res is None:
            # A delay is this event's own calendar entry, as in ``Timeout``.
            env._seq = seq = env._seq + 1
            heappush(env._heap, (env.now + ps, seq, self._next, None))
        else:
            self.hold_ps = ps
            res._request(self)

    def _held(self) -> None:
        # Where the child process's resume after the use ran.
        self.env._defer((self._next, None))
