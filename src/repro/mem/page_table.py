"""Page table: the single shared virtual-to-physical map of a run.

Frames are assigned lazily on first touch by whatever
:class:`~repro.vm.allocators.PageAllocator` the OS model installed.  The
*allocation policy* is the experimental variable: IRIX-style page coloring
versus Solo's simulator-owned sequential allocation is the root cause of
both the uniprocessor Ocean misprediction and the Radix speedup
misprediction (Sections 3.1.2 and 3.2.2).
"""

from __future__ import annotations

from typing import Dict

from repro.common.stats import CounterSet
from repro.mem.address import bit_length_shift


class PageTable:
    """vpn -> pfn map, filled on first touch by the installed allocator."""

    __slots__ = ("page_shift", "_allocator", "_map", "stats")

    def __init__(self, page_bytes: int, allocator, stats=None):
        self.page_shift = bit_length_shift(page_bytes)
        self._allocator = allocator
        self._map: Dict[int, int] = {}
        self.stats = stats if stats is not None else CounterSet("pagetable")

    def translate_vpn(self, vpn: int, node: int) -> int:
        """Return the frame of *vpn*, allocating on first touch from *node*."""
        pfn = self._map.get(vpn)
        if pfn is None:
            pfn = self._allocator.allocate(vpn, node)
            self._map[vpn] = pfn
            self.stats.add("pages_touched")
        return pfn

    def translate(self, vaddr: int, node: int) -> int:
        """Full virtual -> physical translation (allocating on first touch).

        The row path does not call this: ``CpuMemInterface.resolver``
        reads the map itself and calls :meth:`translate_vpn` for a first
        touch.  It stays as the reference that copy is tested against
        (``tests/classify_reference.py`` translates with it)."""
        shift = self.page_shift
        pfn = self.translate_vpn(vaddr >> shift, node)
        return (pfn << shift) | (vaddr & ((1 << shift) - 1))

    def frame_of(self, vpn: int):
        """The frame of *vpn* if already mapped, else None (no allocation)."""
        return self._map.get(vpn)

    def snapshot(self) -> dict:
        """The vpn -> pfn map in first-touch order, plus statistics."""
        return {
            "map": [[vpn, pfn] for vpn, pfn in self._map.items()],
            "stats": self.stats.snapshot(),
        }
