"""Operating-system models.

The paper's simulators differ in *who* provides OS services:

* **SimOS** boots a (modified) IRIX: page mapping is the kernel's job, the
  TLB is modelled, and background kernel activity (scheduler ticks)
  perturbs the application.
* **Solo** performs physical page allocation itself and models no TLB at
  all -- the omissions whose consequences Section 3.1.2 dissects.

An :class:`OsModel` bundles those choices; the machine builder consumes it.
System calls are not modelled: the workloads' parallel sections, which
the paper times, make none.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import MachineScale
from repro.vm.allocators import PageAllocator, Placement, make_allocator


@dataclass(frozen=True)
class OsModel:
    """What the 'operating system' contributes to a simulation."""

    models_tlb: bool            #: is there a TLB (and TLB-miss cost) at all?
    allocator_kind: str         #: page-frame policy ('irix', 'solo', 'random')
    tick_overhead_factor: float #: fraction of cycles lost to kernel ticks

    def make_allocator(self, scale: MachineScale, n_nodes: int,
                       placement: str = Placement.FIRST_TOUCH) -> PageAllocator:
        return make_allocator(self.allocator_kind, scale, n_nodes, placement)


def simos_kernel() -> OsModel:
    """The SimOS-hosted IRIX model: TLB, page coloring, kernel ticks."""
    return OsModel(
        models_tlb=True,
        allocator_kind="irix",
        tick_overhead_factor=0.002,
    )


def solo_backdoor() -> OsModel:
    """Solo's OS emulation: no TLB, simulator-owned sequential
    allocation."""
    return OsModel(
        models_tlb=False,
        allocator_kind="solo",
        tick_overhead_factor=0.0,
    )
