"""snbench-style microbenchmarks (Section 3.1.2).

Two probes recreate the measurements the paper used to find and fix
simulator mistuning:

* :class:`DependentLoads` -- a string of dependent loads (``p = *p``, the
  lmbench technique) that all miss the secondary cache, arranged to hit
  one of the five protocol cases of Table 3.  Like the original snbench,
  the buffer is mapped with large pages so TLB behaviour does not pollute
  the latency measurement (``microbench_scale``).
* :class:`TlbTimer` -- loads striding one page so that, once the data is
  cache-resident, every access costs exactly one TLB refill: the probe
  that exposed Mipsy's 25-cycle and MXS's 35-cycle mischarging of the
  hardware's 65-cycle refill.

``measure_dependent_loads`` / ``measure_tlb_refill`` run a probe on a
simulator configuration and reduce the result to the number the paper's
Table 3 (or the TLB discussion) quotes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro.common.config import MachineScale, REPRO_SCALE, TlbGeometry
from repro.common.errors import WorkloadError
from repro.isa.trace import Barrier, ChunkExec, PhaseMark, Trace
from repro.memsys.params import (
    LOCAL_CLEAN,
    LOCAL_DIRTY_REMOTE,
    PROTOCOL_CASES,
    REMOTE_CLEAN,
    REMOTE_DIRTY_HOME,
    REMOTE_DIRTY_REMOTE,
)
from repro.vm.layout import VirtualLayout
from repro.workloads.base import Workload
from repro.workloads.builder import ChunkBuilder

#: Per-case actor assignment: (home CPU, dirtying owner CPU or None).
#: Requester is always CPU 0; with owner=3 the snbench hop counts match
#: the closed-form defaults (home->owner 1 hop, owner->requester 2).
_CASE_ACTORS = {
    LOCAL_CLEAN: (0, None),
    LOCAL_DIRTY_REMOTE: (0, 1),
    REMOTE_CLEAN: (1, None),
    REMOTE_DIRTY_HOME: (1, 1),
    REMOTE_DIRTY_REMOTE: (1, 3),
}

MICROBENCH_CPUS = 4


def microbench_scale(scale: MachineScale) -> MachineScale:
    """The same machine with snbench's large-page mapping (64x pages)."""
    big_pages = TlbGeometry(
        entries=scale.tlb.entries,
        page_bytes=scale.tlb.page_bytes * 64,
    )
    return dataclasses.replace(
        scale, name=scale.name + "+bigpages", tlb=big_pages
    )


def _chase_chunk(spacing_ops: int = 0):
    """The p = *p chunk, optionally padded with a dependent ALU chain.

    The spaced variant keeps each load dependent on the previous one but
    inserts computation between them; the gap between the tight and spaced
    per-load times isolates the secondary-cache interface occupancy (the
    restart-time methodology of Section 3.1.2).
    """
    name = "snbench/chase" if not spacing_ops else f"snbench/chase+{spacing_ops}"
    builder = ChunkBuilder(name)
    builder.load(1, addr_reg=1)  # p = *p
    if spacing_ops:
        # The chain accumulates the loaded value into a running checksum
        # (reads and writes r2), so it can neither be overlapped with the
        # miss nor renamed across repetitions: fixed spacing on any core.
        builder.ialu(2, 1, 2)
        for _ in range(spacing_ops - 1):
            builder.ialu(2, 2)
    return builder.build()


def _store_chunk(name: str):
    builder = ChunkBuilder(name)
    builder.store(value_reg=2)
    return builder.build()


class DependentLoads(Workload):
    """One Table 3 protocol case as a runnable workload.

    *n_loads* defaults to 200 chase lines, or as many as the owner's L2
    holds beside the placement-touch line when the scale's L2 is smaller.
    """

    def __init__(self, case: str, scale: MachineScale = REPRO_SCALE,
                 n_loads: Optional[int] = None, spacing_ops: int = 0):
        super().__init__(microbench_scale(scale))
        if case not in _CASE_ACTORS:
            raise WorkloadError(f"unknown protocol case {case!r}")
        if n_loads is None:
            l2 = self.scale.l2
            n_loads = min(200, l2.size_bytes // l2.line_bytes - 1)
        self.case = case
        self.n_loads = n_loads
        self.spacing_ops = spacing_ops
        self.name = f"snbench-{case}"
        line = self.scale.l2.line_bytes
        buffer_bytes = (n_loads + 1) * line
        if case != LOCAL_CLEAN and case != REMOTE_CLEAN:
            # Dirty lines must stay resident in the owner's L2.
            capacity = self.scale.l2.size_bytes
            if buffer_bytes > capacity:
                raise WorkloadError(
                    f"{n_loads} chase lines exceed the owner L2 "
                    f"({buffer_bytes} > {capacity} bytes)"
                )
        layout = VirtualLayout(self.page)
        self.buffer = layout.add("chase", buffer_bytes)
        # Chase lines skip line 0 of each page: the placement touch dirties
        # that line in the toucher's cache.
        line_idx = np.arange(1, n_loads + 1, dtype=np.int64)
        self.chase_addrs = self.buffer.base + line_idx * line

    def problem_description(self) -> str:
        return f"{self.n_loads} dependent loads, case {self.case}"

    def build(self, n_cpus: int) -> List[Trace]:
        if n_cpus < MICROBENCH_CPUS:
            raise WorkloadError(
                f"snbench needs >= {MICROBENCH_CPUS} CPUs (owner placement)"
            )
        home, owner = _CASE_ACTORS[self.case]
        touch = _store_chunk("snbench/touch")
        dirty = _store_chunk("snbench/dirty")
        page_addrs = self.buffer.base + np.arange(
            0, self.buffer.size, self.page, dtype=np.int64
        )

        traces: List[List] = [[] for _ in range(n_cpus)]
        # Phase 1: the home CPU touches every page (first-touch placement).
        # When the owner is the home, its dirtying pass doubles as the touch.
        if owner != home:
            traces[home].append(ChunkExec(touch, page_addrs.reshape(-1, 1)))
        for trace in traces:
            trace.append(Barrier(1))
        # Phase 2: the owner dirties every chase line.
        if owner is not None:
            traces[owner].append(
                ChunkExec(dirty, self.chase_addrs.reshape(-1, 1))
            )
        for trace in traces:
            trace.append(Barrier(2))
        # Phase 3: CPU 0 chases; this is the timed section.
        traces[0].append(PhaseMark(PhaseMark.PARALLEL, begin=True))
        traces[0].append(
            ChunkExec(_chase_chunk(self.spacing_ops),
                      self.chase_addrs.reshape(-1, 1))
        )
        traces[0].append(PhaseMark(PhaseMark.PARALLEL, begin=False))
        for trace in traces:
            trace.append(Barrier(3))
        return traces


class TlbTimer(Workload):
    """Page-stride loads isolating the TLB refill cost."""

    name = "snbench-tlb"

    def __init__(self, scale: MachineScale = REPRO_SCALE,
                 pages: Optional[int] = None, passes: int = 8):
        super().__init__(scale)
        # Twice the TLB reach guarantees every access misses the TLB once
        # the data is cache-resident.
        self.pages = pages or scale.tlb.entries * 2
        self.passes = passes
        layout = VirtualLayout(self.page)
        self.buffer = layout.add("tlbbuf", self.pages * self.page)
        data_bytes = self.pages * scale.l1d.line_bytes
        if data_bytes > scale.l2.size_bytes // 2:
            raise WorkloadError(
                "TLB probe working set must stay cache-resident"
            )

    def problem_description(self) -> str:
        return f"{self.pages} pages x {self.passes} passes, page stride"

    def build(self, n_cpus: int) -> List[Trace]:
        builder = ChunkBuilder("snbench/tlbwalk")
        builder.load(1, addr_reg=1)
        chunk = builder.build()
        # Stagger the probed line within each page so the resident working
        # set spreads across L1 sets: the probe must measure the TLB alone.
        page_idx = np.arange(self.pages, dtype=np.int64)
        line = self.scale.l1d.line_bytes
        lines_per_page = self.page // line
        stagger = (page_idx % lines_per_page) * line
        addrs = self.buffer.base + page_idx * self.page + stagger
        trace: List = []
        # Warm pass: faults data into the caches (and places the pages).
        trace.append(ChunkExec(chunk, addrs.reshape(-1, 1)))
        trace.append(PhaseMark(PhaseMark.PARALLEL, begin=True))
        rows = np.tile(addrs, self.passes).reshape(-1, 1)
        trace.append(ChunkExec(chunk, rows))
        trace.append(PhaseMark(PhaseMark.PARALLEL, begin=False))
        traces: List[Trace] = [trace]
        for _ in range(1, n_cpus):
            traces.append([])
        return traces


# ---------------------------------------------------------------------------
# Measurement reductions
# ---------------------------------------------------------------------------

def measure_dependent_loads(config, case: str,
                            scale: MachineScale = REPRO_SCALE,
                            n_loads: Optional[int] = None) -> float:
    """Measured nanoseconds per dependent load for one protocol case."""
    from repro.sim import farm_hooks  # local import: layer order
    from repro.sim.request import RunRequest

    workload = DependentLoads(case, scale, n_loads)
    result = farm_hooks.run(
        RunRequest(config, workload, n_cpus=MICROBENCH_CPUS))
    return result.parallel_ps / workload.n_loads / 1000.0


def measure_all_cases(config, scale: MachineScale = REPRO_SCALE,
                      n_loads: Optional[int] = None) -> Dict[str, float]:
    """The full Table 3 row for one simulator configuration.

    All five protocol cases dispatch as one farm batch (they are
    independent probes of the same configuration).
    """
    from repro.sim import farm_hooks  # local import: layer order
    from repro.sim.request import RunRequest

    workloads = [DependentLoads(case, scale, n_loads)
                 for case in PROTOCOL_CASES]
    results = farm_hooks.dispatch([
        RunRequest(config, workload, n_cpus=MICROBENCH_CPUS)
        for workload in workloads
    ])
    return {
        workload.case: result.parallel_ps / workload.n_loads / 1000.0
        for workload, result in zip(workloads, results)
    }


class SpacingChain(Workload):
    """The spaced chase's ALU chain alone (cache-resident, no loads).

    Measures what the spacing computation costs on a given core so the
    interface-occupancy probe can subtract it (different cores execute the
    same chain at different speeds).
    """

    name = "snbench-chain"

    def __init__(self, scale: MachineScale = REPRO_SCALE,
                 spacing_ops: int = 24, reps: int = 2000):
        super().__init__(scale)
        self.spacing_ops = spacing_ops
        self.reps = reps

    def problem_description(self) -> str:
        return f"{self.spacing_ops}-op dependent chain x {self.reps}"

    def build(self, n_cpus: int) -> List[Trace]:
        builder = ChunkBuilder(f"snbench/chain{self.spacing_ops}")
        builder.ialu(2, 1, 2)
        for _ in range(self.spacing_ops - 1):
            builder.ialu(2, 2)
        chunk = builder.build()
        trace: List = [
            PhaseMark(PhaseMark.PARALLEL, begin=True),
            ChunkExec(chunk, reps=self.reps),
            PhaseMark(PhaseMark.PARALLEL, begin=False),
        ]
        traces: List[Trace] = [trace]
        for _ in range(1, n_cpus):
            traces.append([])
        return traces


def measure_spacing_chain_cycles(config, scale: MachineScale = REPRO_SCALE,
                                 spacing_ops: int = 24) -> float:
    """Per-repetition cost of the spacing chain on *config*'s core."""
    from repro.sim import farm_hooks
    from repro.sim.request import RunRequest

    workload = SpacingChain(scale, spacing_ops)
    result = farm_hooks.run(RunRequest(config, workload, n_cpus=1))
    return result.parallel_ps / workload.reps / config.core.clock.cycle_ps


def measure_tlb_refill(config, scale: MachineScale = REPRO_SCALE) -> float:
    """Measured cycles per TLB miss (the paper's 65-cycle quantity)."""
    from repro.sim import farm_hooks
    from repro.sim.request import RunRequest

    workload = TlbTimer(scale)
    result = farm_hooks.run(RunRequest(config, workload, n_cpus=1))
    n_misses = workload.pages * workload.passes
    cycles = result.parallel_ps / config.core.clock.cycle_ps
    per_load = cycles / n_misses
    return per_load - 1.0  # subtract the load's own issue cycle
