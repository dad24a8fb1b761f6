"""Physical page allocators: the policies behind the paper's VM findings.

Section 3.1.2: "Cache conflicts are caused by poor layout of physical
memory, which is controlled by the operating system. [...] Like many
architectural simulators, Solo neglects the page-coloring algorithms used
in modern operating systems."

Three policies are provided:

* :class:`IrixColoringAllocator` -- IRIX-style virtual-address coloring:
  a page's physical color matches its virtual color, so the L2 conflict
  pattern mirrors the virtual layout exactly.  Deterministic and usually
  good, but virtually congruent hot arrays collide (the Radix speedup
  misprediction of Section 3.2.2).
* :class:`SoloSequentialAllocator` -- what the Solo simulator does: hand
  out frames sequentially per node in first-touch order.  Physical colors
  follow the dynamic touch order, which decorrelates regions on parallel
  runs but aligns large sequentially initialised arrays on uniprocessor
  runs (the Ocean misprediction of Section 3.1.2).
* :class:`RandomColorAllocator` -- an ablation policy.

All allocators honour a :class:`Placement` policy that picks the home node:
``first_touch`` (the default; SPLASH-2 apps place data deliberately),
``node0`` (placement disabled -- the Figure 7 hotspot experiment), and
``round_robin``.
"""

from __future__ import annotations

import abc
from typing import Dict, List

from repro.common.config import MachineScale
from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng
from repro.common.stats import CounterSet
from repro.mem.address import NODE_MEM_BYTES


class Placement:
    """Home-node selection policies."""

    FIRST_TOUCH = "first_touch"
    NODE0 = "node0"
    ROUND_ROBIN = "round_robin"

    ALL = (FIRST_TOUCH, NODE0, ROUND_ROBIN)


class PageAllocator(abc.ABC):
    """Base: assigns a physical frame to a virtual page on first touch."""

    def __init__(self, scale: MachineScale, n_nodes: int,
                 placement: str = Placement.FIRST_TOUCH):
        if placement not in Placement.ALL:
            raise ConfigurationError(f"unknown placement policy {placement!r}")
        self.scale = scale
        self.n_nodes = n_nodes
        self.placement = placement
        self.page_bytes = scale.tlb.page_bytes
        self.frames_per_node = NODE_MEM_BYTES // self.page_bytes
        self.n_colors = scale.l2_colors
        self.stats = CounterSet("page_allocator")
        self._rr_next = 0

    def target_node(self, vpn: int, touch_node: int) -> int:
        """Apply the placement policy."""
        if self.placement == Placement.FIRST_TOUCH:
            return touch_node
        if self.placement == Placement.NODE0:
            return 0
        node = self._rr_next
        self._rr_next = (self._rr_next + 1) % self.n_nodes
        return node

    def allocate(self, vpn: int, touch_node: int) -> int:
        """Public entry point used by the page table."""
        node = self.target_node(vpn, touch_node)
        self.stats.add("allocations")
        self.stats.add(f"allocations_node{node}")
        pfn = self._pick_frame(vpn, node)
        if not 0 <= pfn - node * self.frames_per_node < self.frames_per_node:
            raise ConfigurationError("allocator produced frame outside node range")
        return pfn

    @abc.abstractmethod
    def _pick_frame(self, vpn: int, node: int) -> int:
        """Select a frame on *node* for virtual page *vpn*."""

    # -- helpers ----------------------------------------------------------

    def color_of_frame(self, pfn: int) -> int:
        """Physical color: which L2 way-slice the frame's lines index into."""
        return pfn % self.n_colors

    def color_of_vpn(self, vpn: int) -> int:
        return vpn % self.n_colors


class IrixColoringAllocator(PageAllocator):
    """Virtual-address page coloring (physical color == virtual color)."""

    def __init__(self, scale, n_nodes, placement=Placement.FIRST_TOUCH):
        super().__init__(scale, n_nodes, placement)
        # next free frame index per (node, color)
        self._next_k: List[Dict[int, int]] = [dict() for _ in range(n_nodes)]

    def _pick_frame(self, vpn: int, node: int) -> int:
        color = self.color_of_vpn(vpn)
        per_color = self._next_k[node]
        k = per_color.get(color, 0)
        per_color[color] = k + 1
        pfn = node * self.frames_per_node + k * self.n_colors + color
        if k * self.n_colors + color >= self.frames_per_node:
            raise ConfigurationError(f"node {node} out of frames of color {color}")
        return pfn


class SoloSequentialAllocator(PageAllocator):
    """Sequential first-touch frames per node (no coloring at all)."""

    def __init__(self, scale, n_nodes, placement=Placement.FIRST_TOUCH):
        super().__init__(scale, n_nodes, placement)
        self._next: List[int] = [0] * n_nodes

    def _pick_frame(self, vpn: int, node: int) -> int:
        index = self._next[node]
        self._next[node] += 1
        if index >= self.frames_per_node:
            raise ConfigurationError(f"node {node} out of frames")
        return node * self.frames_per_node + index


class RandomColorAllocator(PageAllocator):
    """Uniform-random color per page (ablation baseline)."""

    def __init__(self, scale, n_nodes, placement=Placement.FIRST_TOUCH,
                 seed: int = 0):
        super().__init__(scale, n_nodes, placement)
        self._rng = derive_rng("random-alloc", seed=seed)
        self._next_k: List[Dict[int, int]] = [dict() for _ in range(n_nodes)]

    def _pick_frame(self, vpn: int, node: int) -> int:
        color = int(self._rng.integers(0, self.n_colors))
        per_color = self._next_k[node]
        k = per_color.get(color, 0)
        per_color[color] = k + 1
        return node * self.frames_per_node + k * self.n_colors + color


ALLOCATORS = {
    "irix": IrixColoringAllocator,
    "solo": SoloSequentialAllocator,
    "random": RandomColorAllocator,
}


def make_allocator(kind: str, scale: MachineScale, n_nodes: int,
                   placement: str = Placement.FIRST_TOUCH) -> PageAllocator:
    """Factory used by the OS models and tests."""
    try:
        cls = ALLOCATORS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown allocator {kind!r}; known: {sorted(ALLOCATORS)}"
        ) from None
    return cls(scale, n_nodes, placement)
