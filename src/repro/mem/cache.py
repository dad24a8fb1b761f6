"""Set-associative cache with MSI line states.

Used for the L1 instruction/data caches and the processor-managed secondary
cache of every node.  The cache operates on *line numbers* (physical address
right-shifted by the line size); callers do the shifting once so the hot
path stays cheap.

States: ``"M"`` (modified/exclusive-dirty) and ``"S"`` (shared/clean).
Absence means invalid.  The coherence protocol mutates remote caches through
:meth:`invalidate` and :meth:`downgrade` during interventions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.config import CacheGeometry
from repro.common.stats import CounterSet
from repro.mem.address import bit_length_shift
from repro.obs import hooks as obs_hooks

MODIFIED = "M"
SHARED = "S"


class SetAssocCache:
    """LRU set-associative cache over line numbers."""

    __slots__ = ("name", "geometry", "line_shift", "n_sets", "_set_mask",
                 "_sets", "_state", "stats", "_counters", "node")

    def __init__(self, name: str, geometry: CacheGeometry,
                 stats: Optional[CounterSet] = None, node: int = 0):
        self.name = name
        self.node = node
        self.geometry = geometry
        self.line_shift = bit_length_shift(geometry.line_bytes)
        self.n_sets = geometry.n_sets
        self._set_mask = self.n_sets - 1
        # Per set: list of line numbers, LRU first / MRU last.
        self._sets: List[List[int]] = [[] for _ in range(self.n_sets)]
        self._state: Dict[int, str] = {}
        self.stats = stats if stats is not None else CounterSet(name)
        self._counters = self.stats._counters

    # -- hot path --------------------------------------------------------

    def line_of(self, paddr: int) -> int:
        return paddr >> self.line_shift

    def lookup(self, line: int) -> Optional[str]:
        """Access *line*: returns its state on hit (updating LRU), else None.

        The row path does not call this: ``CpuMemInterface.resolver``
        walks the L1 and L2 lookups inline, and this stays as the
        reference that copy is tested against
        (``tests/classify_reference.py``)."""
        state = self._state.get(line)
        if state is None:
            self._counters["misses"] += 1.0
            probe = obs_hooks.active
            if probe is not None:
                probe.cache_miss(self.name, self.node,
                                 line << self.line_shift)
            return None
        self._counters["hits"] += 1.0
        ways = self._sets[line & self._set_mask]
        if ways[-1] != line:
            ways.remove(line)
            ways.append(line)
        return state

    def peek(self, line: int) -> Optional[str]:
        """State of *line* without touching LRU or stats."""
        return self._state.get(line)

    def fill(self, line: int, state: str) -> Optional[Tuple[int, str]]:
        """Insert *line* with *state*; returns (victim, victim_state) if one
        was evicted, else None.  Filling a present line just updates state."""
        if line in self._state:
            self._state[line] = state
            return None
        ways = self._sets[line & self._set_mask]
        counters = self._counters
        victim = None
        if len(ways) >= self.geometry.assoc:
            victim_line = ways.pop(0)
            victim_state = self._state.pop(victim_line)
            victim = (victim_line, victim_state)
            counters["evictions"] += 1.0
            if victim_state == MODIFIED:
                counters["writebacks"] += 1.0
        ways.append(line)
        self._state[line] = state
        counters["fills"] += 1.0
        return victim

    def set_state(self, line: int, state: str) -> None:
        if line in self._state:
            self._state[line] = state

    def invalidate(self, line: int) -> Optional[str]:
        """Remove *line* (coherence invalidation); returns its old state."""
        state = self._state.pop(line, None)
        if state is not None:
            self._sets[line & self._set_mask].remove(line)
            self._counters["invalidations"] += 1.0
        return state

    def downgrade(self, line: int) -> Optional[str]:
        """M -> S transition for an intervention; returns old state."""
        state = self._state.get(line)
        if state == MODIFIED:
            self._state[line] = SHARED
            self._counters["downgrades"] += 1.0
        return state

    # -- introspection -----------------------------------------------------

    def __contains__(self, line: int) -> bool:
        return line in self._state

    def __len__(self) -> int:
        return len(self._state)

    def occupancy(self) -> float:
        """Fraction of the cache holding valid lines."""
        capacity = self.n_sets * self.geometry.assoc
        return len(self._state) / capacity if capacity else 0.0

    def clear(self) -> None:
        self._state.clear()
        for ways in self._sets:
            ways.clear()

    def snapshot(self) -> dict:
        """Exact tag arrays: per-set LRU order plus per-line MSI state."""
        return {
            "sets": [list(ways) for ways in self._sets],
            "state": [[line, state] for line, state in self._state.items()],
            "stats": self.stats.snapshot(),
        }
