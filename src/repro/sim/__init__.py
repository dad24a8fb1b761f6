"""Machine assembly: configurations, machines, sync, results."""

from repro.sim.configs import (
    SimulatorConfig,
    figure_lineup,
    get_config,
    hardware_config,
    simos_mipsy,
    simos_mxs,
    solo_mipsy,
)
from repro.sim.machine import Machine, run_workload
from repro.sim.request import RunRequest
from repro.sim.results import RunResult, merge_phase_marks
from repro.sim.sync import SyncDomain

__all__ = [
    "RunRequest",
    "SimulatorConfig",
    "figure_lineup",
    "get_config",
    "hardware_config",
    "simos_mipsy",
    "simos_mxs",
    "solo_mipsy",
    "Machine",
    "run_workload",
    "RunResult",
    "merge_phase_marks",
    "SyncDomain",
]
