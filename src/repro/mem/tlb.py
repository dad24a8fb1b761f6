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
    """Fully-associative LRU TLB over virtual page numbers.

    An entry holds its page's translation offset (``paddr - vaddr``), as
    a hardware TLB holds the frame: a hit translates without the page
    table."""

    __slots__ = ("geometry", "page_shift", "entries", "_map", "stats",
                 "_counters")

    def __init__(self, geometry: TlbGeometry, stats: Optional[CounterSet] = None):
        self.geometry = geometry
        self.page_shift = bit_length_shift(geometry.page_bytes)
        self.entries = geometry.entries
        self._map: "OrderedDict[int, int]" = OrderedDict()
        self.stats = stats if stats is not None else CounterSet("tlb")
        self._counters = self.stats._counters

    def vpn_of(self, vaddr: int) -> int:
        return vaddr >> self.page_shift

    def lookup(self, vpn: int) -> Optional[int]:
        """The translation offset on a hit (refreshing LRU), None on a
        miss.  Only misses are counted: they are the architecturally
        visible events (each costs a refill).

        The row path does not call this: ``CpuMemInterface.resolver``
        inlines lookup and :meth:`insert`, and both stay as the reference
        that copy is tested against (``tests/test_properties.py``)."""
        offset = self._map.get(vpn)
        if offset is not None:
            self._map.move_to_end(vpn)
            return offset
        self._counters["misses"] += 1.0
        probe = obs_hooks.active
        if probe is not None:
            # Instant only: the refill *cost* is a core property, so the
            # timed refill span is recorded by the processor model.
            probe.tlb_miss(vpn)
        return None

    def insert(self, vpn: int, offset: int) -> None:
        """Install *vpn* with its translation *offset*, evicting the LRU
        entry when full."""
        if vpn in self._map:
            self._map.move_to_end(vpn)
            return
        if len(self._map) >= self.entries:
            self._map.popitem(last=False)
            self._counters["evictions"] += 1.0
        self._map[vpn] = offset

    def flush(self) -> None:
        self._map.clear()
        self._counters["flushes"] += 1.0

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._map

    def snapshot(self) -> dict:
        """Resident VPNs in exact LRU (oldest-first) order."""
        return {"vpns": list(self._map), "stats": self.stats.snapshot()}
