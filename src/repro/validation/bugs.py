"""Performance bugs as first-class, injectable objects (Section 3.1.2).

"Performance bugs can be subtle but disastrous ... subtle performance bugs
can live in a production simulator for years."  The two MXS bugs the paper
reports are modelled so the find-and-fix story is runnable:

* **fast-issue** -- an instruction moved through the pipeline too quickly
  when all of its resources were available at issue; results stayed
  believable because the triggering circumstances were not the common
  case.  Injected as a <1 factor on the dataflow schedule.
* **cacheop-retry** -- the MIPS CACHE instruction invalidated a dirty line
  but never signalled completion; the processor stalled until a timer
  interrupt retried it ~one million cycles later.  Unnoticed for months
  because the stall was small relative to total run time.

``demonstrate_bug`` runs a probe workload with and without a bug injected
and reports how much the bug distorts predicted time -- and, for the
cacheop bug, why it hid (its share of a full application run).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List

import numpy as np

from repro.common.config import MachineScale, REPRO_SCALE
from repro.common.errors import ConfigurationError
from repro.isa.opcodes import Op
from repro.isa.trace import ChunkExec, PhaseMark, Trace
from repro.sim.configs import SimulatorConfig
from repro.vm.layout import VirtualLayout
from repro.workloads.base import Workload
from repro.workloads.builder import ChunkBuilder


@dataclass(frozen=True)
class PerformanceBug:
    """A named, injectable simulator defect."""

    name: str
    description: str
    inject: Callable[[SimulatorConfig], SimulatorConfig]


def _inject_fast_issue(config: SimulatorConfig) -> SimulatorConfig:
    core = replace(config.core, fast_issue_bug_factor=0.85)
    return config.derive("+fastissue", core=core)


def _inject_cacheop(config: SimulatorConfig) -> SimulatorConfig:
    core = replace(config.core, cacheop_bug_stall_cycles=1_000_000.0)
    return config.derive("+cacheop", core=core)


FAST_ISSUE_BUG = PerformanceBug(
    name="fast-issue",
    description="instructions issue too quickly when resources are free "
                "(found by the Rivet pipeline visualisation)",
    inject=_inject_fast_issue,
)

CACHEOP_BUG = PerformanceBug(
    name="cacheop-retry",
    description="mis-handled MIPS CACHE instruction stalls graduation for "
                "~1M cycles until a timer interrupt retries it",
    inject=_inject_cacheop,
)

KNOWN_BUGS: Dict[str, PerformanceBug] = {
    bug.name: bug for bug in (FAST_ISSUE_BUG, CACHEOP_BUG)
}


def get_bug(name: str) -> PerformanceBug:
    try:
        return KNOWN_BUGS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown bug {name!r}; known: {sorted(KNOWN_BUGS)}"
        ) from None


class CacheFlushWorkload(Workload):
    """A kernel that flushes buffers with the CACHE instruction.

    Mixes streaming writes with periodic CACHE (writeback-invalidate)
    instructions, the pattern that triggered the cacheop-retry bug.
    """

    name = "cacheflush"

    def __init__(self, scale: MachineScale = REPRO_SCALE,
                 n_lines: int = 512, flush_every: int = 64,
                 compute_reps: int = 4000):
        super().__init__(scale)
        self.n_lines = n_lines
        self.flush_every = flush_every
        self.compute_reps = compute_reps
        layout = VirtualLayout(self.page)
        self.buffer = layout.add(
            "flushbuf", n_lines * scale.l2.line_bytes)

    def problem_description(self) -> str:
        return (f"{self.n_lines} lines written, CACHE op every "
                f"{self.flush_every}")

    def build(self, n_cpus: int) -> List[Trace]:
        write = ChunkBuilder("flush/write")
        write.store(value_reg=1)
        write_chunk = write.build()
        flush = ChunkBuilder("flush/cacheop")
        flush.cacheop()
        flush_chunk = flush.build()
        compute = ChunkBuilder("flush/compute")
        # Background work the bug's stall hides in for months.
        compute.compute_parallel([Op.FADD] * 16, regs=list(range(1, 9)))
        compute_chunk = compute.build()

        line = self.scale.l2.line_bytes
        addrs = self.buffer.base + np.arange(
            self.n_lines, dtype=np.int64) * line
        trace: List = [PhaseMark(PhaseMark.PARALLEL, begin=True)]
        for start in range(0, self.n_lines, self.flush_every):
            block = addrs[start:start + self.flush_every]
            trace.append(ChunkExec(write_chunk, block.reshape(-1, 1)))
            trace.append(ChunkExec(flush_chunk, block[:1].reshape(1, 1)))
            trace.append(ChunkExec(compute_chunk, reps=self.compute_reps))
        trace.append(PhaseMark(PhaseMark.PARALLEL, begin=False))
        traces: List[Trace] = [trace]
        for _ in range(1, n_cpus):
            traces.append([])
        return traces


@dataclass
class BugDemonstration:
    """Outcome of running a probe with and without a bug."""

    bug: str
    workload: str
    config: str
    clean_ps: int
    buggy_ps: int

    @property
    def distortion(self) -> float:
        """Fractional time error introduced by the bug."""
        return (self.buggy_ps - self.clean_ps) / self.clean_ps

    def format(self) -> str:
        return (
            f"{self.bug} on {self.workload} ({self.config}): "
            f"clean {self.clean_ps / 1e9:.3f} ms vs buggy "
            f"{self.buggy_ps / 1e9:.3f} ms ({self.distortion:+.1%})"
        )


def demonstrate_bug(bug: PerformanceBug, config: SimulatorConfig, workload,
                    n_cpus: int = 1) -> BugDemonstration:
    """Run *workload* with and without *bug* injected into *config*."""
    from repro.sim import farm_hooks
    from repro.sim.request import RunRequest

    clean, buggy = farm_hooks.dispatch([
        RunRequest(config, workload, n_cpus),
        RunRequest(bug.inject(config), workload, n_cpus),
    ])
    return BugDemonstration(
        bug=bug.name,
        workload=workload.name,
        config=config.name,
        clean_ps=clean.parallel_ps,
        buggy_ps=buggy.parallel_ps,
    )
