"""Workloads: SPLASH-2 kernel stand-ins and snbench microbenchmarks."""

from repro.workloads.base import Workload
from repro.workloads.builder import ChunkBuilder
from repro.workloads.fft import FftWorkload
from repro.workloads.lu import LuWorkload
from repro.workloads.microbench import (
    DependentLoads,
    TlbTimer,
    measure_all_cases,
    measure_dependent_loads,
    measure_tlb_refill,
    microbench_scale,
)
from repro.workloads.ocean import OceanWorkload
from repro.workloads.radix import RadixWorkload, pathological_radix, tuned_radix
from repro.workloads.registry import APP_NAMES, app_suite, make_app

__all__ = [
    "Workload",
    "ChunkBuilder",
    "FftWorkload",
    "LuWorkload",
    "DependentLoads",
    "TlbTimer",
    "measure_all_cases",
    "measure_dependent_loads",
    "measure_tlb_refill",
    "microbench_scale",
    "OceanWorkload",
    "RadixWorkload",
    "pathological_radix",
    "tuned_radix",
    "APP_NAMES",
    "app_suite",
    "make_app",
]
