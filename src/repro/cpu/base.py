"""Processor-model parameterisation and the core base class.

Every simulator configuration in the study is a :class:`CoreParams` choice:

* **Mipsy** -- single-issue, in-order, one instruction per cycle, blocking
  reads, write buffer, prefetching.  No instruction latencies, no pipeline.
  Run at 150/225/300 MHz per the paper's scaled-clock methodology.
* **MXS** -- generic 4-issue out-of-order window model with R10000
  functional units and latencies, but *without* the R10000's
  implementation constraints.
* **R10K** -- the gold-standard core: MXS plus the constraints the paper
  found missing (address interlocks, secondary-cache interface occupancy,
  the 65-cycle TLB refill, exception serialisation).

The untuned/tuned split of Section 3.1 is expressed in these parameters:
untuned Mipsy charges 25 cycles per TLB miss and models no L2-interface
occupancy; untuned MXS charges 35; tuning raises both to the measured 65
and enables the occupancy model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.common.units import Clock
from repro.isa.opcodes import R10K_LATENCY, UNIT_LATENCY

#: Cycles of L2-interface occupancy after a fill (the R10000 peculiarity of
#: Section 3.1.2: the interface stays busy for the cache-line transfer, and
#: subsequent tag checks wait; fixed in the R12000).  11.5 cycles at
#: 150 MHz is the ~77 ns gap between the untuned and hardware local-clean
#: dependent-load latencies in Table 3.
L2_PORT_OCCUPANCY_CYCLES = 11.5

#: The measured cost of an R10000 TLB miss (Section 3.1.2): 14 handler
#: instructions that take 65 cycles due to exception entry/exit cost,
#: serial dependences, and pipeline-flushing coprocessor instructions.
HW_TLB_REFILL_CYCLES = 65

#: What the simulators charged before tuning (Section 3.1.2).
MIPSY_UNTUNED_TLB_CYCLES = 25
MXS_UNTUNED_TLB_CYCLES = 35


@dataclass(frozen=True)
class CoreParams:
    """Complete parameterisation of one processor model instance."""

    model: str                       #: 'mipsy' | 'mxs' | 'r10k'
    clock_mhz: float = 150.0
    tlb_refill_cycles: float = HW_TLB_REFILL_CYCLES
    model_instruction_latencies: bool = False   #: Mipsy ablation switch

    # Window-core (MXS / R10K) parameters.
    width: int = 4                  #: Table 1: max IPC
    miss_hide_cycles: float = 12.0  #: latency the window hides per miss
    interlock_penalty_cycles: float = 0.0      #: R10K address interlocks
    #: Implementation-constraint derate of the real pipeline: the corner
    #: cases (address interlocks, partial bypassing, issue-queue
    #: restrictions) generic models omit.  "Ofelt showed that the effects
    #: of address interlocks in the R10000 pipeline can in some cases
    #: cause a 20%-30% decrease in performance" (Section 3.1.3); the R10K
    #: gold standard carries that decrease, MXS (1.0) does not.
    ilp_derate_factor: float = 1.0
    fast_issue_bug_factor: float = 1.0         #: MXS pipeline bug (<1 = buggy)
    cacheop_bug_stall_cycles: float = 0.0      #: MXS CACHE-instruction bug

    # CPU-side memory interface.
    l2_port_occupancy_cycles: float = 0.0

    @property
    def clock(self) -> Clock:
        return Clock(self.clock_mhz)

    def latency_table(self) -> Mapping[int, int]:
        """The result-latency table this model schedules with."""
        if self.model == "mipsy" and not self.model_instruction_latencies:
            return {int(op): lat for op, lat in UNIT_LATENCY.items()}
        return {int(op): lat for op, lat in R10K_LATENCY.items()}

    def timing_key(self) -> str:
        """Cache key for per-chunk schedules."""
        return (
            f"{self.model}/w{self.width}"
            f"/lat{int(self.model_instruction_latencies)}"
            f"/bug{self.fast_issue_bug_factor}"
        )


def mipsy_params(clock_mhz: float = 150.0, tuned: bool = False,
                 model_instruction_latencies: bool = False) -> CoreParams:
    """Mipsy as shipped (untuned) or after the Section 3.1.2 tuning."""
    return CoreParams(
        model="mipsy",
        clock_mhz=clock_mhz,
        tlb_refill_cycles=(HW_TLB_REFILL_CYCLES if tuned
                           else MIPSY_UNTUNED_TLB_CYCLES),
        model_instruction_latencies=model_instruction_latencies,
        l2_port_occupancy_cycles=(L2_PORT_OCCUPANCY_CYCLES if tuned else 0.0),
    )


def mxs_params(clock_mhz: float = 150.0, tuned: bool = False) -> CoreParams:
    """MXS: the generic out-of-order model (its historic bugs are injected
    by :mod:`repro.validation.bugs`)."""
    return CoreParams(
        model="mxs",
        clock_mhz=clock_mhz,
        tlb_refill_cycles=(HW_TLB_REFILL_CYCLES if tuned
                           else MXS_UNTUNED_TLB_CYCLES),
        miss_hide_cycles=14.0,
        l2_port_occupancy_cycles=(L2_PORT_OCCUPANCY_CYCLES if tuned else 0.0),
    )


def r10k_params(clock_mhz: float = 150.0) -> CoreParams:
    """The gold-standard core: MXS plus the implementation constraints."""
    return CoreParams(
        model="r10k",
        clock_mhz=clock_mhz,
        tlb_refill_cycles=HW_TLB_REFILL_CYCLES,
        miss_hide_cycles=10.0,
        interlock_penalty_cycles=1.6,
        ilp_derate_factor=1.28,
        l2_port_occupancy_cycles=L2_PORT_OCCUPANCY_CYCLES,
    )
