"""Virtual address-space layout for workloads.

Workloads declare named regions (arrays, per-CPU stacks, shared structures)
through a :class:`VirtualLayout`, which assigns page-aligned virtual base
addresses.  Two layout habits of the original applications matter to the
paper's findings and are supported explicitly:

* ``align`` -- SPLASH-2 allocated big arrays at strongly aligned bases
  (``valloc``/custom allocators), which under IRIX's virtual-address page
  coloring makes congruent arrays collide in the physically indexed L2;
* ``gap_pages`` -- unallocated guard pages between regions; these shift
  *virtual* colors without consuming physical frames, which is why a
  simulator-owned sequential physical allocator (Solo) and the OS allocator
  produce different conflict patterns from identical virtual layouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import WorkloadError

#: Virtual base of the data segment for all workloads.
DATA_BASE = 0x1000_0000


@dataclass(frozen=True)
class Region:
    """A named, page-aligned virtual memory region."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def addr(self, offset: int) -> int:
        """Virtual address *offset* bytes into the region (bounds-checked)."""
        if not 0 <= offset < self.size:
            raise WorkloadError(
                f"region {self.name}: offset {offset} outside size {self.size}"
            )
        return self.base + offset


class VirtualLayout:
    """Sequential region allocator for one workload's address space."""

    def __init__(self, page_bytes: int, base: int = DATA_BASE):
        self.page_bytes = page_bytes
        self._cursor = base
        self._regions: Dict[str, Region] = {}

    def add(
        self,
        name: str,
        size: int,
        align: Optional[int] = None,
        gap_pages: int = 0,
        pad_to: Optional[int] = None,
    ) -> Region:
        """Allocate a region.

        ``align`` rounds the base up to a power-of-two boundary; ``gap_pages``
        leaves untouched guard pages before the region; ``pad_to`` rounds the
        *size* up to a multiple (e.g. the L2 color period, mirroring the
        power-of-two strides of the original Ocean grids).
        """
        if name in self._regions:
            raise WorkloadError(f"region {name!r} declared twice")
        if size <= 0:
            raise WorkloadError(f"region {name!r}: size must be positive")
        base = self._cursor + gap_pages * self.page_bytes
        if align is not None:
            if align & (align - 1):
                raise WorkloadError(f"region {name!r}: align must be a power of two")
            base = (base + align - 1) & ~(align - 1)
        else:
            base = (base + self.page_bytes - 1) & ~(self.page_bytes - 1)
        if pad_to is not None:
            size = ((size + pad_to - 1) // pad_to) * pad_to
        region = Region(name, base, size)
        self._regions[name] = region
        self._cursor = region.end
        return region

    def __getitem__(self, name: str) -> Region:
        return self._regions[name]

    def regions(self) -> Dict[str, Region]:
        return dict(self._regions)
