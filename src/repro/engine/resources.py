"""Contended resources: the occupancy building block.

A :class:`Resource` is a FIFO server with a fixed capacity, used for every
occupancy effect the paper cares about: the MAGIC protocol processor, the
inbox/outbox interfaces, network router links, DRAM banks, and the R10000's
secondary-cache interface.  The generic NUMA model deliberately *omits*
resources on the directory-controller path -- that omission is exactly the
sensitivity the Figure 7 experiment measures.

:meth:`Resource.use` packages the common acquire/hold/release pattern as
one event; :class:`Steps` walks a plan of uses, delays and actions as
one event.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Deque, Optional

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
        self.requests += 1
        if self.in_use < self.capacity:
            self._grant(event, waited_ps=0)
        else:
            self._queue.append((event, self.env.now))
        return event

    def _request(self, use: "_Use") -> None:
        """Queue the use record *use*, or grant it a free unit at once:
        :meth:`_grant`'s bookkeeping, inlined for the uncontended case."""
        self.requests += 1
        if self.in_use < self.capacity:
            self.in_use += 1
            if self._busy_since is None:
                self._busy_since = self.env.now
            use.waited_ps = 0
            self.env._defer((self._arm_cb, use))
        else:
            self._queue.append((use, self.env.now))

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

    def snapshot(self) -> dict:
        """Occupancy, queue shape (``(fired, enqueued_at)`` per queued
        grant), and accumulated statistics, as JSON-able data."""
        return {
            "in_use": int(self.in_use),
            "requests": int(self.requests),
            "queue": [[bool(event.fired), int(enqueued_at)]
                      for event, enqueued_at in self._queue],
            "busy_since": (None if self._busy_since is None
                           else int(self._busy_since)),
            "stats": self.stats.snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Resource({self.name}, {self.in_use}/{self.capacity} busy, "
            f"{len(self._queue)} queued)"
        )


class _Op:
    """A stage opcode of a plan (see :class:`Steps`)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


#: ``(HOP, 0, seg)``: continue one deferral later -- where a process
#: resumed after an event it waited on was *fired* (``succeed``).
HOP = _Op("HOP")
#: ``(CALL, fn, None)``: run ``fn(steps)`` now.  A true return means *fn*
#: has arranged for the walk to resume later (it waits on something):
#: at the next stage, or -- when it returns :data:`AGAIN` -- at this one.
CALL = _Op("CALL")
#: ``(END, 0, None)``: the plan is over; the event fires with ``now``.
END = _Op("END")
#: The last stage of every plan.
FINISH = (END, 0, None)
#: What a ``CALL`` returns to be run again when the walk resumes.
AGAIN = _Op("AGAIN")


class Steps(_Use):
    """A plan -- a precomputed table of waits -- walked as one event,
    without a process.

    Every stage is a triple ``(who, arg, seg)``: ``(resource, hold_ps,
    seg)`` is what :meth:`Resource.use` does (the event is its own use
    record, one stage at a time), ``(None, delay_ps, seg)`` a plain delay
    (its own calendar entry, as in ``Timeout``), ``(HOP, 0, seg)`` one
    deferral, ``(CALL, fn, None)`` an action, and ``FINISH`` the end,
    where the event fires with the completion time.  A walk schedules
    exactly what a process yielding those waits would: one deferred
    start, then per stage the same request, calendar entry or deferral
    drawn at the same point.  *txn* rides along to every use, and when
    it is set the stage's *seg* names the segment the wait is charged to
    (``txn.cut``) as the walk continues past it -- at the ``env.now``
    and queue position where a process's cut after the yield ran.
    Plans are tuples, built once and shared; a walk only reads them.
    """

    __slots__ = ("_plan", "_at", "_wake", "_seg", "note")

    def __init__(self, env: Engine, stages: tuple, txn=None):
        Event.__init__(self, env)
        self.txn = txn
        self._plan = stages
        self._at = 0
        self._seg = None
        #: Scratch for a stage that must hand a value to a later one.
        self.note = None
        # Bound once; dropped at the end (it is a reference cycle).
        self._wake = self._walk
        env._defer((self._wake, None))

    def goto(self, stages: tuple) -> None:
        """Continue with *stages* (from a ``CALL``): a decision point."""
        self._plan = stages
        self._at = 0

    def _walk(self, _arg) -> None:
        env = self.env
        txn = self.txn
        if txn is not None and self._seg is not None:
            txn.cut(self._seg, env.now)
            self._seg = None
        stages = self._plan
        at = self._at
        while True:
            who, arg, seg = stages[at]
            at += 1
            if who is None:
                self._at = at
                if txn is not None:
                    self._seg = seg
                env._seq = seq = env._seq + 1
                heappush(env._heap, (env.now + arg, seq, self._wake, None))
                return
            if who is HOP:
                self._at = at
                if txn is not None:
                    self._seg = seg
                env._defer((self._wake, None))
                return
            if who is CALL:
                self._at = at
                waits = arg(self)
                if waits:
                    if waits is AGAIN:
                        self._at = at - 1
                    return
                stages = self._plan
                at = self._at
                txn = self.txn
                continue
            if who is END:
                self._wake = None
                self.succeed(env.now)
                return
            self._at = at
            if txn is not None:
                self._seg = seg
            self.hold_ps = arg
            who._request(self)
            return

    def wait(self, event: Event) -> bool:
        """From a ``CALL``: resume the walk when *event* fires (as a
        process waiting on it would); returns True, for the ``CALL``."""
        event.add_waiter(self._wake)
        return True

    def _held(self) -> None:
        # Where the child process's resume after the use ran.
        self.env._defer((self._wake, None))
