"""Workload base class and helpers.

A workload is the stand-in for a SPLASH-2 application binary: it produces,
per CPU, a trace of chunk executions, barriers and phase marks -- the
whole :mod:`repro.isa.trace` vocabulary.  Crucially
the trace is a pure function of (workload parameters, machine *scale*,
CPU count) -- never of the simulator configuration -- mirroring the paper's
methodology: "The same application binaries are used for all platforms."

Workloads open and close their timed region with ``PhaseMark.PARALLEL``
marks; the harness reports that phase's duration, like the paper's
parallel-section timings.
"""

from __future__ import annotations

import abc
from typing import List

import numpy as np

from repro.common.config import MachineScale, REPRO_SCALE
from repro.common.errors import WorkloadError
from repro.isa.trace import ChunkExec, Trace


class Workload(abc.ABC):
    """One application at one problem size on one machine scale."""

    #: short identifier used in result tables
    name = "workload"

    def __init__(self, scale: MachineScale = REPRO_SCALE):
        self.scale = scale
        self.page = scale.tlb.page_bytes

    @abc.abstractmethod
    def build(self, n_cpus: int) -> List[Trace]:
        """Produce one trace per CPU (materialised lists or generators)."""

    def problem_description(self) -> str:
        """Human-readable problem size (Table 2 analogue)."""
        return ""

    # -- helpers for subclasses ------------------------------------------------

    @staticmethod
    def split_even(total: int, n_cpus: int, cpu: int) -> range:
        """Contiguous share of ``range(total)`` owned by *cpu*."""
        if total % n_cpus:
            raise WorkloadError(
                f"work {total} not divisible by {n_cpus} CPUs"
            )
        share = total // n_cpus
        return range(cpu * share, (cpu + 1) * share)


def touch_pages(chunk_store, region_base: int, region_size: int,
                page_bytes: int) -> ChunkExec:
    """A placement pass: one store per page of a region.

    First-touch allocation places each page at the toucher's node; this is
    how workloads express deliberate data placement (and how the
    microbenchmarks pin their buffers to specific homes).
    """
    n_pages = (region_size + page_bytes - 1) // page_bytes
    addrs = region_base + np.arange(n_pages, dtype=np.int64) * page_bytes
    return ChunkExec(chunk_store, addrs.reshape(-1, 1))
