"""Contended resources: the occupancy building block.

A :class:`Resource` is a FIFO server with a fixed capacity, used for every
occupancy effect the paper cares about: the MAGIC protocol processor, the
inbox/outbox interfaces, network router links, DRAM banks, and the R10000's
secondary-cache interface.  The generic NUMA model deliberately *omits*
resources on the directory-controller path -- that omission is exactly the
sensitivity the Figure 7 experiment measures.

A unit is held one way: as a ``(resource, hold_ps, seg)`` stage of a
:class:`Steps` walk, which is granted (or queued) by the walk and whose
hold's end resumes it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Deque, Optional

from repro.common.errors import SimulationError
from repro.common.stats import CounterSet
from repro.engine.events import Event
from repro.engine.kernel import Engine


class Resource:
    """A capacity-limited FIFO server.

    The model occupies a resource from a walk: a ``(resource, hold_ps,
    seg)`` stage of a :class:`Steps` plan, which :meth:`Steps._walk`
    grants (or queues) itself and whose hold's end resumes the walk.
    The queue holds the waiting walks.  Utilisation and queueing
    statistics accumulate in :attr:`stats`.

    A hold's end (:meth:`_finish_hold`) is always a calendar entry, so
    the deferred queue is empty when it runs: the grant it makes to the
    next queued walk is armed in place, and the walk it ends resumes in
    place behind it (the in-place rule of
    :class:`~repro.engine.kernel.Engine`).
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
        self._counters = self.stats._counters
        self._busy_since: Optional[int] = None
        # Bound once: every hold hands these to the engine.
        self._arm_cb = self._arm
        self._finish_cb = self._finish_hold

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def _arm(self, walk: "Steps") -> None:
        """Start *walk*'s granted hold: report its wait to the walk's
        transaction (:meth:`repro.obs.txn.TxnRecord.add_wait`; recording
        adds no events), then put the hold's end on the calendar."""
        if walk.txn is not None:
            walk.txn.add_wait(self.name, walk.waited_ps)
        env = self.env
        # The end of the hold, pushed the way ``Timeout`` pushes itself.
        env._seq = seq = env._seq + 1
        heappush(env._heap,
                 (env.now + walk.hold_ps, seq, self._finish_cb, walk))

    def _finish_hold(self, walk: "Steps") -> None:
        """The end of *walk*'s hold, from its calendar entry: return the
        unit, grant it to the head of the queue, then resume *walk*.

        The deferred queue is empty here, so the grant's arm -- the
        deferral that would run next -- runs in place, drawing the same
        ``seq``, and *walk* resumes in place behind it."""
        now = self.env.now
        self.in_use -= 1
        if self.in_use == 0 and self._busy_since is not None:
            self._counters["busy_ps"] += now - self._busy_since
            self._busy_since = None
        if self._queue:
            head, enqueued_at = self._queue.popleft()
            self.in_use += 1
            if self._busy_since is None:
                self._busy_since = now
            head.waited_ps = waited_ps = now - enqueued_at
            if waited_ps > 0:
                counters = self._counters
                counters["queued_grants"] += 1.0
                counters["wait_ps"] += waited_ps
            self._arm(head)
        walk._wake(None)

    def snapshot(self) -> dict:
        """Occupancy, queue shape (``(fired, enqueued_at)`` per queued
        walk), and accumulated statistics, as JSON-able data."""
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
#: The deferred queue as a walk woken as an event's waiter sees it.
_NEVER_EMPTY = (None,)


class Steps(Event):
    """A plan -- a precomputed table of waits -- walked as one event,
    without a process.

    Every stage is a triple ``(who, arg, seg)``: ``(resource, hold_ps,
    seg)`` holds one unit of *resource* (the walk is its own queue
    record), ``(None, delay_ps, seg)`` a plain delay (its own calendar
    entry, as in ``Timeout``), ``(HOP, 0, seg)`` one deferral, ``(CALL,
    fn, None)`` an action, and ``FINISH`` the end, where the event fires
    with the completion time.  A walk schedules exactly what a process
    yielding those waits would: one deferred start, then per stage the
    same request, calendar entry or deferral drawn at the same point.
    *txn* rides along to every hold, and when it is set the stage's
    *seg* names the segment the wait is charged to (``txn.cut``) as the
    walk continues past it -- at the ``env.now`` and queue position
    where a process's cut after the yield ran.
    Plans are tuples, built once and shared; a walk only reads them.

    What a stage would defer into an empty queue runs in place (the
    in-place rule of :class:`~repro.engine.kernel.Engine`): a free unit
    is granted and its hold armed at once, a ``HOP`` walks on, and the
    end of a hold resumes the walk -- after arming, in place, the grant
    it made to the next queued walk.  A walk woken as an event's waiter
    defers as before, since other waiters of that event may still be
    due to run first.
    """

    __slots__ = ("_plan", "_at", "_wake", "_seg", "note", "txn",
                 "hold_ps", "waited_ps")

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

    def _walk(self, woke) -> None:
        env = self.env
        txn = self.txn
        if txn is not None and self._seg is not None:
            txn.cut(self._seg, env.now)
            self._seg = None
        # What a stage would defer runs in place when it would run next
        # (the in-place rule, see ``Engine``): the queue is empty and the
        # walk is the tail of a top-level callback.  A walk woken as an
        # event's waiter (*woke*) may have waiters still to run after it,
        # so for it the queue is never empty.
        queue = _NEVER_EMPTY if woke is not None else env._queue
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
                if not queue:
                    if txn is not None and seg is not None:
                        txn.cut(seg, env.now)
                    continue
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
            # A resource: grant a free unit, or queue for one.
            self._at = at
            if txn is not None:
                self._seg = seg
            who.requests += 1
            if who.in_use < who.capacity:
                who.in_use += 1
                if who._busy_since is None:
                    who._busy_since = env.now
                if not queue:
                    # The deferred ``_arm`` would run next: arm in place.
                    if txn is not None:
                        txn.add_wait(who.name, 0)
                    env._seq = seq = env._seq + 1
                    heappush(env._heap,
                             (env.now + arg, seq, who._finish_cb, self))
                    return
                self.waited_ps = 0
                self.hold_ps = arg
                env._defer((who._arm_cb, self))
                return
            self.hold_ps = arg
            who._queue.append((self, env.now))
            return

    def wait(self, event: Event) -> bool:
        """From a ``CALL``: resume the walk when *event* fires (as a
        process waiting on it would); returns True, for the ``CALL``."""
        event.add_waiter(self._wake)
        return True
