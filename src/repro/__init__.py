"""repro: a reproduction of *FLASH vs. (Simulated) FLASH: Closing the
Simulation Loop* (ASPLOS 2000).

The package rebuilds the paper's entire apparatus in Python: the family of
architectural simulators (Solo, SimOS-Mipsy, SimOS-MXS on FlashLite or a
generic NUMA model), a gold-standard "hardware" configuration standing in
for the decommissioned FLASH machine, SPLASH-2 workload kernels, snbench
microbenchmarks, and -- the core contribution -- the validation framework
that measures simulator error, calibrates simulators against the
reference, and evaluates trend prediction.

Quick start::

    from repro import hardware_config, simos_mipsy, run_workload, make_app

    workload = make_app("fft")
    hw = run_workload(hardware_config(), workload)
    sim = run_workload(simos_mipsy(225, tuned=True), workload)
    print(sim.parallel_ps / hw.parallel_ps)   # relative execution time

See README.md for the architecture overview, DESIGN.md for the system
inventory, and EXPERIMENTS.md for paper-vs-measured results.
"""

from repro.common.config import (
    PAPER_SCALE,
    REPRO_SCALE,
    TINY_SCALE,
    MachineScale,
    get_scale,
)
from repro.harness import Farm, ResultCache, run_experiment
from repro.sim import (
    Machine,
    RunRequest,
    RunResult,
    SimulatorConfig,
    figure_lineup,
    get_config,
    hardware_config,
    run_workload,
    simos_mipsy,
    simos_mxs,
    solo_mipsy,
)
from repro.validation import (
    Tuner,
    compare_simulators,
    hotspot_study,
    speedup_study,
)
from repro.workloads import (
    DependentLoads,
    FftWorkload,
    LuWorkload,
    OceanWorkload,
    RadixWorkload,
    TlbTimer,
    app_suite,
    make_app,
    measure_all_cases,
    measure_tlb_refill,
)

__version__ = "1.0.0"

__all__ = [
    "PAPER_SCALE",
    "REPRO_SCALE",
    "TINY_SCALE",
    "MachineScale",
    "get_scale",
    "run_experiment",
    "Farm",
    "ResultCache",
    "Machine",
    "RunRequest",
    "RunResult",
    "SimulatorConfig",
    "figure_lineup",
    "get_config",
    "hardware_config",
    "run_workload",
    "simos_mipsy",
    "simos_mxs",
    "solo_mipsy",
    "Tuner",
    "compare_simulators",
    "hotspot_study",
    "speedup_study",
    "DependentLoads",
    "FftWorkload",
    "LuWorkload",
    "OceanWorkload",
    "RadixWorkload",
    "TlbTimer",
    "app_suite",
    "make_app",
    "measure_all_cases",
    "measure_tlb_refill",
    "__version__",
]
