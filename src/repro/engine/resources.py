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
    #: No walk to resume at the hold's end (a :class:`Steps` has one).
    _wake = None


class Resource:
    """A capacity-limited FIFO server.

    The model occupies a resource from a walk: a ``(resource, hold_ps,
    seg)`` stage of a :class:`Steps` plan, which :meth:`Steps._walk`
    grants (or queues) itself and whose hold's end resumes the walk.
    Utilisation and queueing statistics accumulate in :attr:`stats`.

    A hold's end (:meth:`_finish_hold`) is always a calendar entry, so
    the deferred queue is empty when it runs: the grant it makes to the
    next queued use is armed in place, where ``release`` from process
    code defers it (the in-place rule of
    :class:`~repro.engine.kernel.Engine`).

    :meth:`acquire`/:meth:`release` (a process waits on the grant, then
    releases exactly once) and :meth:`use` (one hold as an event) stay
    for the tests that drive queueing through processes and for the
    boundaries ``benchmarks/e2e/trace.py`` times; no walk calls them.
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
        """Queue *event* (a use record, or an :meth:`acquire` event), or
        grant it a free unit at once."""
        self.requests += 1
        if self.in_use < self.capacity:
            self.in_use += 1
            if self._busy_since is None:
                self._busy_since = self.env.now
            if isinstance(event, _Use):
                # Arm the hold where the grant's one waiter used to run.
                event.waited_ps = 0
                self.env._defer((self._arm_cb, event))
            else:
                event.succeed(self)
        else:
            self._queue.append((event, self.env.now))

    def release(self) -> None:
        """Return one unit, granting the head of the queue if any.

        Called from process code, the grant is not the caller's last
        act, so a granted use's arm is deferred."""
        if self.in_use <= 0:
            raise SimulationError(f"resource {self.name}: release without acquire")
        self._finish_hold(None)

    def use(self, hold_ps: int, txn=None) -> "Event":
        """Acquire, hold for *hold_ps*, release.

        Returns an event firing when the hold completes, for a process
        to wait on::

            yield res.use(hold_ps)

        The model's own occupancy is a walk's resource stage
        (:class:`Steps`), which schedules exactly what this does: one
        record -- the returned event carries the hold -- and at most one
        deferred callback: a grant now defers :meth:`_arm`, which puts
        the end of the hold on the calendar; a grant at the end of an
        earlier hold arms it in place.

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

    def _finish_hold(self, use: Optional["_Use"]) -> None:
        """The end of *use*'s hold, from its calendar entry: return the
        unit, grant it to the head of the queue, then fire *use*.

        The deferred queue is empty here, so the arm ``release`` would
        defer for a granted use is the deferral that would run next: it
        runs in place, drawing the same ``seq``, and *use* fires behind
        it.  A walk's use resumes the walk instead, where the child
        process's resume after the use ran: in place if nothing was
        deferred (only an ``acquire`` event granted defers, its
        waiters), else behind what was.  :meth:`release` shares this
        body with *use* None, and defers the arm instead."""
        env = self.env
        now = env.now
        self.in_use -= 1
        if self.in_use == 0 and self._busy_since is not None:
            self._counters["busy_ps"] += now - self._busy_since
            self._busy_since = None
        if self._queue:
            event, enqueued_at = self._queue.popleft()
            self.in_use += 1
            if self._busy_since is None:
                self._busy_since = now
            waited_ps = now - enqueued_at
            if waited_ps > 0:
                counters = self._counters
                counters["queued_grants"] += 1.0
                counters["wait_ps"] += waited_ps
            if isinstance(event, _Use):
                event.waited_ps = waited_ps
                if use is None:
                    env._defer((self._arm_cb, event))
                else:
                    self._arm(event)
            else:
                event.succeed(self)
        if use is not None:
            wake = use._wake
            if wake is None:
                use._held()
            elif env._queue:
                env._defer((wake, None))
            else:
                wake(None)

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
#: The deferred queue as a walk woken as an event's waiter sees it.
_NEVER_EMPTY = (None,)


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

    What a stage would defer into an empty queue runs in place (the
    in-place rule of :class:`~repro.engine.kernel.Engine`): a free unit
    is granted and its hold armed at once, a ``HOP`` walks on, and the
    end of a hold resumes the walk -- after arming, in place, the grant
    it made to the next queued use.  A walk woken as an event's waiter
    defers as before, since other waiters of that event may still be
    due to run first.
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
            # A resource: ``Resource._request`` for this use, inline.
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
