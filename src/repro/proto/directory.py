"""Directory state for the DSM cache-coherence protocol.

FLASH's protocol is "dynamic pointer allocation" (Table 1): the directory
keeps an exact sharer list in a pool of dynamically allocated pointers.  We
keep the same *semantics* -- exact sharers, no broadcast -- using a Python
set per entry; the cost of walking the pointer list is part of the MAGIC
protocol-processor occupancy parameters, not of this data structure.

Entries also carry a ``busy`` waiter list used to serialize racing
transactions on the same line at the home, standing in for MAGIC's pending
states.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.common.errors import ProtocolError
from repro.common.stats import CounterSet
from repro.obs import hooks as obs_hooks

UNOWNED = "U"
SHARED = "S"
DIRTY = "D"


class DirEntry:
    """Directory record of one memory line."""

    __slots__ = ("state", "sharers", "owner", "busy")

    def __init__(self):
        self.state = UNOWNED
        self.sharers: Set[int] = set()
        self.owner: Optional[int] = None
        self.busy = None  # waiter list while a transaction is in flight

    def __repr__(self) -> str:  # pragma: no cover
        return f"DirEntry({self.state}, sharers={sorted(self.sharers)}, owner={self.owner})"


class Directory:
    """All directory entries homed at one node."""

    __slots__ = ("node", "_entries", "stats", "_counters")

    def __init__(self, node: int):
        self.node = node
        self._entries: Dict[int, DirEntry] = {}
        self.stats = CounterSet(f"directory{node}")
        self._counters = self.stats._counters

    def entry(self, line: int) -> DirEntry:
        ent = self._entries.get(line)
        if ent is None:
            ent = DirEntry()
            self._entries[line] = ent
        return ent

    def peek(self, line: int) -> Optional[DirEntry]:
        return self._entries.get(line)

    # -- transitions (called by the memory-system transaction code, which
    # already holds the line's entry) -------------------------------------

    def add_sharer(self, ent: DirEntry, line: int, node: int) -> None:
        if ent.state == DIRTY:
            raise ProtocolError(f"line {line:#x}: add_sharer while DIRTY")
        ent.state = SHARED
        ent.sharers.add(node)
        ent.owner = None
        self._counters["to_shared"] += 1.0
        probe = obs_hooks.active
        if probe is not None:
            probe.dir_transition(self.node, line, "to_shared",
                                 len(ent.sharers))

    def set_dirty(self, ent: DirEntry, line: int, owner: int) -> None:
        ent.state = DIRTY
        ent.owner = owner
        ent.sharers.clear()
        self._counters["to_dirty"] += 1.0
        probe = obs_hooks.active
        if probe is not None:
            probe.dir_transition(self.node, line, "to_dirty")

    def clear(self, ent: DirEntry, line: int) -> None:
        ent.state = UNOWNED
        ent.sharers.clear()
        ent.owner = None
        self._counters["to_unowned"] += 1.0
        probe = obs_hooks.active
        if probe is not None:
            probe.dir_transition(self.node, line, "to_unowned")

    def drop_sharer(self, ent: DirEntry, line: int, node: int) -> None:
        ent.sharers.discard(node)
        if not ent.sharers and ent.state == SHARED:
            ent.state = UNOWNED
            self._counters["to_unowned"] += 1.0
            probe = obs_hooks.active
            if probe is not None:
                probe.dir_transition(self.node, line, "to_unowned")

    def snapshot(self) -> dict:
        """Every entry's protocol state (``busy``: a transaction holds the
        line at this home), in first-touch order, plus statistics."""
        return {
            "entries": [
                [line, {"state": ent.state,
                        "sharers": sorted(ent.sharers),
                        "owner": ent.owner,
                        "busy": ent.busy is not None}]
                for line, ent in self._entries.items()
            ],
            "stats": self.stats.snapshot(),
        }

    def check_invariants(self, line: Optional[int] = None) -> None:
        """Raise ProtocolError if *line*'s entry (every entry homed here
        when None) is internally inconsistent."""
        if line is None:
            for homed in self._entries:
                self.check_invariants(homed)
            return
        ent = self.entry(line)
        if ent.state == DIRTY:
            if ent.owner is None or ent.sharers:
                raise ProtocolError(f"line {line:#x}: bad DIRTY entry {ent!r}")
        elif ent.state == SHARED:
            if not ent.sharers or ent.owner is not None:
                raise ProtocolError(f"line {line:#x}: bad SHARED entry {ent!r}")
        elif ent.state == UNOWNED:
            if ent.sharers or ent.owner is not None:
                raise ProtocolError(f"line {line:#x}: bad UNOWNED entry {ent!r}")
        else:
            raise ProtocolError(f"line {line:#x}: unknown state {ent.state!r}")
