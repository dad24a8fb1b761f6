"""The calibration loop: closing the simulation loop (Section 3.1.2).

Given an untuned simulator configuration and a reference platform (the
hardware stand-in), :class:`Tuner` reproduces the paper's tuning procedure
step by step:

1. **TLB refill cost** -- run the TLB-timing microbenchmark on the
   reference, set the simulator's ``tlb_refill_cycles`` to the measured
   value (the 25/35 -> 65 cycle fix).
2. **Secondary-cache interface occupancy** -- compare tight and spaced
   dependent-load chains on the reference; the gap beyond the spacing
   computation is the interface occupancy the untuned models lack
   (snbench's restart-time methodology).
3. **FlashLite latencies** -- measure the five protocol cases on the
   reference and on the simulator and adjust the per-case handler extras
   until all five match ("we easily tuned FlashLite parameters until read
   latencies for all five protocol read cases also matched").

The output is a new :class:`~repro.sim.configs.SimulatorConfig` plus a
:class:`TuningReport` recording every parameter change and the before and
after measurements -- the artefact EXPERIMENTS.md's Table 3 section is
generated from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.common.config import MachineScale, REPRO_SCALE
from repro.common.errors import TuningError
from repro.memsys.params import PROTOCOL_CASES
from repro.obs.doc import Items, Para, Table, render_text
from repro.obs.record import Record
from repro.sim.configs import SimulatorConfig, hardware_config
from repro.workloads.microbench import (
    MICROBENCH_CPUS,
    DependentLoads,
    measure_all_cases,
    measure_dependent_loads,
    measure_spacing_chain_cycles,
    measure_tlb_refill,
)

#: Dependent ALU ops inserted between spaced chase loads; long enough to
#: cover any plausible interface occupancy.
SPACING_OPS = 24


@dataclass
class TuningReport(Record):
    """What the calibration changed and how well it converged.

    Its payload (``kind: "tuning"``) is the *why* attached to the findings
    built from a calibration -- the tuning-side analogue of an
    :class:`~repro.obs.diff.AttributionDiff` waterfall -- and
    :meth:`blocks` is its one description: the table3/tuning_loop output
    and the dashboard's tuning view.
    """

    KIND = "tuning"

    reference_name: str
    target_cases_ns: Dict[str, float] = field(default_factory=dict)
    before_cases_ns: Dict[str, float] = field(default_factory=dict)
    after_cases_ns: Dict[str, float] = field(default_factory=dict)
    target_tlb_cycles: float = 0.0
    before_tlb_cycles: float = 0.0
    after_tlb_cycles: float = 0.0
    port_occupancy_cycles: float = 0.0
    rounds: int = 0
    case_extra_adjust_ps: Dict[str, int] = field(default_factory=dict)

    def case_error(self, cases_ns: Dict[str, float], case: str) -> float:
        """Signed relative error of *case* in *cases_ns* vs the target."""
        target = self.target_cases_ns[case]
        return (cases_ns[case] - target) / target

    def max_case_error(self) -> float:
        """Worst relative error across protocol cases after tuning."""
        return max(abs(self.case_error(self.after_cases_ns, c))
                   for c in self.target_cases_ns)

    def blocks(self) -> list:
        return [
            Para(f"calibration against `{self.reference_name}`: converged "
                 f"in {self.rounds} round(s), max case error "
                 f"{self.max_case_error() * 100:.1f}%"),
            Items([f"TLB refill {self.before_tlb_cycles:.0f} → "
                   f"{self.after_tlb_cycles:.0f} cycles "
                   f"(target {self.target_tlb_cycles:.0f})",
                   f"L2 interface occupancy "
                   f"{self.port_occupancy_cycles:.1f} cycles"]),
            Table("tnnnnnn", ["case", "before (ns)", "after (ns)",
                              "target (ns)", "error before", "error after",
                              "extra (ps)"],
                  [[case, f"{self.before_cases_ns[case]:.0f}",
                    f"{self.after_cases_ns[case]:.0f}", f"{target:.0f}",
                    f"{100 * self.case_error(self.before_cases_ns, case):+.1f}%",
                    f"{100 * self.case_error(self.after_cases_ns, case):+.1f}%",
                    f"{self.case_extra_adjust_ps.get(case, 0):+,}"]
                   for case, target in self.target_cases_ns.items()]),
        ]

    def format(self) -> str:
        return render_text(self.blocks())


def measure_port_occupancy_cycles(config: SimulatorConfig,
                                  scale: MachineScale = REPRO_SCALE,
                                  n_loads: int = 100) -> float:
    """Tight-vs-spaced dependent-load gap, in processor cycles.

    The spaced chain inserts SPACING_OPS serially dependent single-cycle
    ops per load; subtracting that chain's separately measured cost on the
    same core from the gap between the two runs isolates the interface
    occupancy.
    """
    from repro.sim import farm_hooks
    from repro.sim.request import RunRequest

    tight = measure_dependent_loads(config, "local_clean", scale, n_loads)
    spaced_wl = DependentLoads("local_clean", scale, n_loads,
                               spacing_ops=SPACING_OPS)
    spaced_run = farm_hooks.run(
        RunRequest(config, spaced_wl, n_cpus=MICROBENCH_CPUS))
    spaced = spaced_run.parallel_ps / n_loads / 1000.0
    chain_cycles = measure_spacing_chain_cycles(config, scale, SPACING_OPS)
    cycle_ns = config.core.clock.cycle_ps / 1000.0
    gap_cycles = (tight - spaced) / cycle_ns + chain_cycles
    return max(0.0, gap_cycles)


class Tuner:
    """Fits an untuned simulator to reference microbenchmark measurements."""

    def __init__(self, reference: Optional[SimulatorConfig] = None,
                 scale: MachineScale = REPRO_SCALE,
                 n_loads: Optional[int] = None,
                 max_rounds: int = 4, tolerance: float = 0.02):
        self.reference = reference or hardware_config()
        self.scale = scale
        self.n_loads = n_loads
        self.max_rounds = max_rounds
        self.tolerance = tolerance

    def fit(self, config: SimulatorConfig):
        """Calibrate *config*; returns (tuned_config, TuningReport)."""
        report = TuningReport(reference_name=self.reference.name)

        # Step 1: TLB refill cost.
        report.target_tlb_cycles = measure_tlb_refill(self.reference, self.scale)
        report.before_tlb_cycles = measure_tlb_refill(config, self.scale)
        core = config.core
        if config.os_model.models_tlb:
            core = replace(core,
                           tlb_refill_cycles=round(report.target_tlb_cycles))

        # Step 2: secondary-cache interface occupancy.
        occ = measure_port_occupancy_cycles(self.reference, self.scale)
        core = replace(core, l2_port_occupancy_cycles=round(occ * 2) / 2)
        report.port_occupancy_cycles = core.l2_port_occupancy_cycles
        config = config.derive("-cal", core=core)

        # Step 3: per-case FlashLite latencies.
        report.target_cases_ns = measure_all_cases(
            self.reference, self.scale, self.n_loads)
        report.before_cases_ns = measure_all_cases(
            config, self.scale, self.n_loads)
        params = config.memsys
        measured = dict(report.before_cases_ns)
        total_adjust = {case: 0 for case in PROTOCOL_CASES}
        for round_no in range(1, self.max_rounds + 1):
            report.rounds = round_no
            extras = dict(params.case_extra_ps)
            for case in PROTOCOL_CASES:
                delta_ps = int(
                    (report.target_cases_ns[case] - measured[case]) * 1000)
                extras[case] = extras.get(case, 0) + delta_ps
                total_adjust[case] += delta_ps
            params = replace(params, case_extra_ps=extras,
                             name=params.name + "*")
            config = config.derive(memsys=params)
            measured = measure_all_cases(config, self.scale, self.n_loads)
            worst = max(
                abs(measured[c] - report.target_cases_ns[c])
                / report.target_cases_ns[c]
                for c in PROTOCOL_CASES
            )
            if worst <= self.tolerance:
                break
        else:
            raise TuningError(
                f"calibration did not converge within {self.max_rounds} rounds "
                f"(worst case error {worst * 100:.1f}%)"
            )
        report.after_cases_ns = measured
        report.after_tlb_cycles = measure_tlb_refill(config, self.scale)
        report.case_extra_adjust_ps = total_adjust
        return config, report
