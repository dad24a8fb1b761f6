"""Translation lookaside buffer model.

The paper's central "omission" finding (Section 3.1.2) is that TLB
behaviour is a first-order performance effect: the R10000's TLB is small
(64 entries) and a miss costs 65 cycles even when everything hits in the
cache.  The TLB here is a fully-associative LRU array of page numbers; the
*cost* of a miss is a property of the processor model (Mipsy charged 25
cycles, MXS 35, hardware 65 -- exactly the mistuning the paper fixes), not
of this structure.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.common.config import TlbGeometry
from repro.common.stats import CounterSet
from repro.mem.address import bit_length_shift
from repro.obs import hooks as obs_hooks


class Tlb:
    """Fully-associative LRU TLB over virtual page numbers."""

    __slots__ = ("geometry", "page_shift", "entries", "_map", "stats")

    def __init__(self, geometry: TlbGeometry, stats: Optional[CounterSet] = None):
        self.geometry = geometry
        self.page_shift = bit_length_shift(geometry.page_bytes)
        self.entries = geometry.entries
        self._map: "OrderedDict[int, bool]" = OrderedDict()
        self.stats = stats if stats is not None else CounterSet("tlb")

    def vpn_of(self, vaddr: int) -> int:
        return vaddr >> self.page_shift

    def lookup(self, vpn: int) -> bool:
        """True on hit (refreshing LRU).  Only misses are counted: they are
        the architecturally visible events (each costs a refill).

        The row path does not call this: ``CpuMemInterface.resolver``
        inlines lookup and :meth:`insert`, and both stay as the reference
        that copy is tested against (``tests/test_properties.py``)."""
        if vpn in self._map:
            self._map.move_to_end(vpn)
            return True
        self.stats.add("misses")
        probe = obs_hooks.active
        if probe is not None:
            # Instant only: the refill *cost* is a core property, so the
            # timed refill span is recorded by the processor model.
            probe.tlb_miss(vpn)
        return False

    def insert(self, vpn: int) -> None:
        """Install *vpn*, evicting the LRU entry when full."""
        if vpn in self._map:
            self._map.move_to_end(vpn)
            return
        if len(self._map) >= self.entries:
            self._map.popitem(last=False)
            self.stats.add("evictions")
        self._map[vpn] = True

    def flush(self) -> None:
        self._map.clear()
        self.stats.add("flushes")

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._map

    def snapshot(self) -> dict:
        """Resident VPNs in exact LRU (oldest-first) order."""
        return {"vpns": list(self._map), "stats": self.stats.snapshot()}
