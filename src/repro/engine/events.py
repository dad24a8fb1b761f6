"""One-shot events for the discrete-event kernel.

The kernel follows FlashLite's threaded style: simulator components are
generator coroutines (:class:`~repro.engine.kernel.Process`) that ``yield``
:class:`Event` objects.  An event fires at most once; firing resumes every
process waiting on it, delivering ``event.value``.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional

from repro.common.errors import SimulationError


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *pending* until :meth:`succeed` (or :meth:`fail`) is called,
    after which it is *fired* and holds a value.  Waiting on an already
    fired event resumes the waiter immediately (on the next dispatch).
    """

    __slots__ = ("env", "value", "_fired", "_failed", "_waiters")

    def __init__(self, env):
        self.env = env
        self.value: Any = None
        self._fired = False
        self._failed: Optional[BaseException] = None
        self._waiters: List[Callable[["Event"], None]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event, waking all waiters with *value*.

        The waiters are deferred, not called: whoever fires an event from
        inside a callback keeps running first (the engine's ordering rule,
        see :class:`~repro.engine.kernel.Engine`).
        """
        if self._fired:
            raise SimulationError("event fired twice")
        self._fired = True
        self.value = value
        defer = self.env._defer
        for waiter in self._waiters:
            defer((waiter, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Fire the event exceptionally; waiters see *exc* raised."""
        self.succeed()  # defers the waiters: they run after the next line
        self._failed = exc
        return self

    def _fire(self) -> None:
        """Fire from the event's own calendar entry, calling the waiters.

        The deferred queue is empty whenever a calendar entry is popped,
        so calling the waiters in registration order is the order a
        deferral round would have run them in, and whatever they defer
        still queues behind all of them.
        """
        if self._fired:
            raise SimulationError("event fired twice")
        self._fired = True
        for waiter in self._waiters:
            waiter(self)

    def add_waiter(self, callback: Callable[["Event"], None]) -> None:
        """Register *callback* to run when the event fires.

        If the event already fired, the callback is dispatched immediately
        (at the current simulation time).
        """
        if self._fired:
            self.env._defer((callback, self))
        else:
            self._waiters.append(callback)


_FIRE = Event._fire


class Timeout(Event):
    """An event that fires automatically after a delay in picoseconds."""

    __slots__ = ()

    def __init__(self, env, delay_ps: int):
        if delay_ps < 0:
            raise SimulationError(f"negative timeout {delay_ps}")
        Event.__init__(self, env)
        # Its own calendar entry: what ``schedule_at`` would push (same
        # ``seq`` draw; ``delay_ps >= 0`` is its not-into-the-past check)
        # without allocating a bound method per timeout.
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env.now + int(delay_ps), seq, _FIRE, self))


class AllOf(Event):
    """Fires when every child event has fired; value is a list of values."""

    __slots__ = ("_remaining", "_children")

    def __init__(self, env, children):
        super().__init__(env)
        self._children = list(children)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_waiter(self._child_done)

    def _child_done(self, _event: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0 and not self.fired:
            self.succeed([child.value for child in self._children])


class AnyOf(Event):
    """Fires when the first child event fires; value is that child's value."""

    __slots__ = ()

    def __init__(self, env, children):
        super().__init__(env)
        children = list(children)
        if not children:
            raise SimulationError("AnyOf needs at least one child event")
        for child in children:
            child.add_waiter(self._child_done)

    def _child_done(self, event: Event) -> None:
        if not self.fired:
            self.succeed(event.value)
