"""Host-speed calibration: host time reported at a reference speed.

The sandbox this benchmark runs on is shared, and its speed moves: the
same 3.5-second simulation, run back to back on an otherwise idle guest,
took 2.9 to 5.9 s in stretches of 10-20 s, and whole half-hours differ by
40 %.  Raw medians of one commit then spread 10-35 % between 20-second
runs and drift by as much between two sets of runs, which no bound the
benchmark is allowed to set can absorb.

So every timed simulation (harness experiment, warm pass) is bracketed by
a fixed, stdlib-only reference kernel, and its host seconds are multiplied
by ``host_speed`` = nominal kernel time / measured kernel time around it.
What is reported is therefore "seconds at reference speed"; the raw
seconds and the factors are kept in the results file next to it.  README
("Noise") has the measurements behind this and its limits.

Nothing of the simulator is imported here: a change to ``src/`` cannot
move the yardstick.
"""

from __future__ import annotations

import heapq
import time
from collections import OrderedDict

#: What :func:`reference` takes on the sandbox this was built on when it
#: is quiet; it only fixes the unit, any constant would do.
NOMINAL_S = 0.040

#: Read at pseudo-random offsets by the kernel's third part.  Larger than
#: the L2, so that part slows down when neighbours fight for the shared
#: cache, as a simulation does; small enough (4 MiB) not to matter in
#: ``peak_rss_mb``.
_BUFFER = bytearray(4 << 20)


def _counter():
    value = 0
    while True:
        value = (yield value) or value + 1


class _Ways:
    """A two-way, 64-set LRU tag store (the shape of the model's caches)."""

    __slots__ = ("sets", "state", "hits")

    def __init__(self):
        self.sets = [[] for _ in range(64)]
        self.state: dict = {}
        self.hits = 0

    def touch(self, line: int) -> None:
        ways = self.sets[line & 63]
        if line in self.state:
            self.hits += 1
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
            return
        if len(ways) >= 2:
            del self.state[ways.pop(0)]
        ways.append(line)
        self.state[line] = "S"


def reference() -> float:
    """Seconds one fixed mix of interpreter work takes right now.

    Three parts, because the host does not slow all code alike: a tight
    one (event calendar: heap pushes and pops, dict counters, generator
    resumes), an object-heavy one (LRU tag store and an ordered-dict TLB:
    attribute loads, method calls, small-list edits) and a cache-missing
    one (scattered reads over 4 MiB).  On a recorded series the three
    together tracked three different simulations better (ratio spread
    11-12 %) than any one of them (12-20 %), against 26-31 % raw.
    """
    start = time.perf_counter()
    heap: list = []
    counts: dict = {}
    gen = _counter()
    next(gen)
    push, pop = heapq.heappush, heapq.heappop
    for i in range(24000):
        push(heap, ((i * 7919) % 1009, i))
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
        gen.send(i)
        if i & 1:
            pop(heap)

    tags = _Ways()
    tlb: OrderedDict = OrderedDict()
    x = 777
    for i in range(16000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = (x >> 8) & 255
        vpn = line >> 4
        if vpn in tlb:
            tlb.move_to_end(vpn)
        else:
            if len(tlb) >= 8:
                tlb.popitem(last=False)
            tlb[vpn] = True
        tags.touch(line)

    buffer = _BUFFER
    size = len(buffer)
    total = 0
    for i in range(60000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += buffer[x % size]
    return time.perf_counter() - start


class HostSpeed:
    """Reference samples bracketing each timed stretch of work.

    ``speed = HostSpeed()`` samples once; after each stretch
    ``speed.since_last()`` samples again and returns the factor to
    multiply that stretch's host seconds by.  Consecutive stretches share
    the sample between them.
    """

    def __init__(self):
        self._last = reference()

    def since_last(self) -> float:
        before, self._last = self._last, reference()
        return NOMINAL_S / ((before + self._last) / 2.0)
