"""The engine as it stood before the event path was collapsed (PR 18).

A reference implementation the engine tests compare ``repro.engine``
against -- never imported by ``src/``.  It is the parent commit's
``Event``/``Timeout``/``AllOf``/``AnyOf``/``Process``/``Engine``/
``Resource`` with the checkpoint contract and the tracer slot stripped,
every scheduling decision kept: a ``Timeout`` is a bound ``succeed`` on
the calendar, every firing goes through the pending-dispatch double
buffer, ``Resource.use`` is a grant event plus a closure, and a
multi-step wait (``steps``) is a child process.  The ordering it
produces is the contract the fused engine must reproduce entry for
entry.
"""

import heapq
from collections import deque

from repro.common.errors import SimulationError
from repro.common.stats import CounterSet


class Event:
    def __init__(self, env):
        self.env = env
        self.value = None
        self._fired = False
        self._failed = None
        self._waiters = []

    @property
    def fired(self):
        return self._fired

    def succeed(self, value=None):
        if self._fired:
            raise SimulationError("event fired twice")
        self._fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self.env._dispatch(waiter, self)
        return self

    def add_waiter(self, callback):
        if self._fired:
            self.env._dispatch(callback, self)
        else:
            self._waiters.append(callback)


class Timeout(Event):
    def __init__(self, env, delay_ps):
        if delay_ps < 0:
            raise SimulationError(f"negative timeout {delay_ps}")
        super().__init__(env)
        env.schedule_at(env.now + int(delay_ps), self.succeed, None)


class AllOf(Event):
    def __init__(self, env, children):
        super().__init__(env)
        self._children = list(children)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
        for child in self._children:
            child.add_waiter(self._child_done)

    def _child_done(self, _event):
        self._remaining -= 1
        if self._remaining == 0 and not self.fired:
            self.succeed([child.value for child in self._children])


class AnyOf(Event):
    def __init__(self, env, children):
        super().__init__(env)
        for child in list(children):
            child.add_waiter(self._child_done)

    def _child_done(self, event):
        if not self.fired:
            self.succeed(event.value)


class Process(Event):
    def __init__(self, env, gen, name="proc"):
        super().__init__(env)
        self._gen = gen
        self.name = name
        env._dispatch(self._resume, None)

    def _resume(self, event):
        try:
            target = self._gen.send(None if event is None else event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(f"process {self.name!r} yielded {target!r}")
        target.add_waiter(self._resume)


class Engine:
    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0
        self._pending_dispatch = []
        self.events_processed = 0

    def schedule_at(self, when_ps, fn, arg):
        if when_ps < self.now:
            raise SimulationError(f"scheduling into the past: {when_ps}")
        self._seq += 1
        heapq.heappush(self._heap, (when_ps, self._seq, fn, arg))

    def _dispatch(self, fn, arg):
        self._pending_dispatch.append((fn, arg))

    def timeout(self, delay_ps):
        return Timeout(self, delay_ps)

    def event(self):
        return Event(self)

    def all_of(self, events):
        return AllOf(self, events)

    def any_of(self, events):
        return AnyOf(self, events)

    def process(self, gen, name="proc"):
        return Process(self, gen, name)

    def _drain_dispatch(self):
        while self._pending_dispatch:
            batch, self._pending_dispatch = self._pending_dispatch, []
            for fn, arg in batch:
                fn(arg)

    def step(self):
        self._drain_dispatch()
        if not self._heap:
            return False
        when, _seq, fn, arg = heapq.heappop(self._heap)
        self.now = when
        self.events_processed += 1
        fn(arg)
        self._drain_dispatch()
        return True

    def run(self):
        while self.step():
            pass


class Resource:
    def __init__(self, env, name, capacity=1):
        self.env = env
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        self.requests = 0
        self._queue = deque()
        self.stats = CounterSet(name)
        self._busy_since = None

    def acquire(self):
        event = self.env.event()
        self.requests += 1
        if self.in_use < self.capacity:
            self._grant(event, waited_ps=0)
        else:
            self._queue.append((event, self.env.now))
        return event

    def _grant(self, event, waited_ps):
        self.in_use += 1
        if self._busy_since is None:
            self._busy_since = self.env.now
        if waited_ps > 0:
            self.stats.add("queued_grants")
            self.stats.add("wait_ps", waited_ps)
        event.succeed(self)

    def release(self):
        if self.in_use <= 0:
            raise SimulationError(f"resource {self.name}: release without acquire")
        self.in_use -= 1
        if self.in_use == 0 and self._busy_since is not None:
            self.stats.add("busy_ps", self.env.now - self._busy_since)
            self._busy_since = None
        if self._queue:
            event, enqueued_at = self._queue.popleft()
            self._grant(event, waited_ps=self.env.now - enqueued_at)

    def use(self, hold_ps, txn=None):
        done = self.env.event()
        grant = self.acquire()
        requested_at = self.env.now
        grant.add_waiter(
            lambda _ev: self._hold(hold_ps, done, requested_at, txn))
        return done

    def _hold(self, hold_ps, done, requested_at, txn):
        if txn is not None:
            txn.add_wait(self.name, self.env.now - requested_at)
        self.env.schedule_at(self.env.now + hold_ps, self._finish_hold, done)

    def _finish_hold(self, done):
        self.release()
        done.succeed(None)


def steps(env, sequence, txn=None):
    """A multi-step wait the way ``MagicController.pp_busy`` and
    ``Network.send`` did it: one child process, one yield per step.

    A step is ``(who, ps, seg)``: a delay (*who* None), a use of the
    resource *who*, one deferral (``"hop"``: a wait on a fired event) or
    a wait on the event *who*.  After each wait the process cuts *seg*,
    when it has one, at the time it resumed."""
    def body():
        for who, ps, seg in sequence:
            if who is None:
                yield env.timeout(ps)
            elif who == "hop":
                yield env.event().succeed()
            elif isinstance(who, Event):
                yield who
            else:
                yield who.use(ps, txn)
            if txn is not None and seg is not None:
                txn.cut(seg, env.now)
        return env.now
    return env.process(body())
