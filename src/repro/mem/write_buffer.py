"""Write buffer: bounded store-miss overlap for the Mipsy model.

Mipsy "has blocking reads, but supports both prefetching and a write
buffer", and the Solo/SimOS runs use a four-entry buffer (Section 2.2).
The buffer holds the completion events of in-flight store misses; a new
store miss only stalls the processor when all entries are busy, in which
case the core waits for the *oldest* entry.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.common.stats import CounterSet
from repro.engine.events import Event


class WriteBuffer:
    """Tracks in-flight store-miss completion events, FIFO, bounded."""

    __slots__ = ("capacity", "_inflight", "stats", "_counters")

    def __init__(self, capacity: int = 4, stats: Optional[CounterSet] = None):
        self.capacity = capacity
        self._inflight: Deque[Event] = deque()
        self.stats = stats if stats is not None else CounterSet("write_buffer")
        self._counters = self.stats._counters

    def reap(self) -> None:
        """Drop entries whose store has completed."""
        inflight = self._inflight
        while inflight and inflight[0]._fired:
            inflight.popleft()
        # Completion events can fire out of FIFO order (different homes);
        # sweep the middle too so capacity reflects truly outstanding stores.
        if any(ev._fired for ev in inflight):
            self._inflight = deque(ev for ev in inflight if not ev._fired)

    @property
    def full(self) -> bool:
        return len(self._inflight) >= self.capacity

    def oldest(self) -> Optional[Event]:
        """The event the core should wait on when the buffer is full."""
        return self._inflight[0] if self._inflight else None

    def add(self, event: Event) -> None:
        self._inflight.append(event)
        self._counters["admitted"] += 1.0

    def __len__(self) -> int:
        return len(self._inflight)

    def pending_events(self):
        """All in-flight events (drained at barriers)."""
        return list(self._inflight)

    def snapshot(self) -> dict:
        """Entry fired-flags (FIFO order) plus statistics.  Fired entries
        awaiting a :meth:`reap` are kept: every consumer reaps before
        reading occupancy, but the digests see them."""
        return {
            "pending": [bool(event.fired) for event in self._inflight],
            "stats": self.stats.snapshot(),
        }
