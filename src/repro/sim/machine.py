"""Machine: one fully assembled simulated multiprocessor.

Construction wires the pieces exactly as the simulator configuration
dictates: cores (Mipsy/MXS/R10K) on top of per-node memory
interfaces, a shared page table filled by the OS model's allocator, and a
DSM memory system (FlashLite- or NUMA-parameterised) over a hypercube.

A machine is single-use: ``run(workload)`` executes one workload from cold
caches and returns a :class:`~repro.sim.results.RunResult`.  The paper's
methodology of timing only each application's parallel section makes cold
start irrelevant -- workloads warm themselves during their init phase.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.config import MachineScale, REPRO_SCALE
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.stats import StatsRegistry
from repro.cpu import CpuMemInterface, core_class, make_core
from repro.engine import Engine
from repro.mem.page_table import PageTable
from repro.memsys.dsm import DsmMemorySystem
from repro.obs import hooks as obs_hooks
from repro.sim.configs import SimulatorConfig
from repro.sim.results import RunResult, merge_phase_marks
from repro.sim.sync import SyncDomain
from repro.vm.allocators import Placement


class Machine:
    """A configured multiprocessor ready to run one workload."""

    def __init__(self, config: SimulatorConfig, n_cpus: int,
                 scale: MachineScale = REPRO_SCALE,
                 placement: str = Placement.FIRST_TOUCH):
        if n_cpus < 1 or n_cpus & (n_cpus - 1):
            raise ConfigurationError(
                f"n_cpus must be a power of two (hypercube), got {n_cpus}"
            )
        self.config = config
        self.n_cpus = n_cpus
        self.scale = scale
        self.placement = placement
        self.env = Engine()
        self.registry = StatsRegistry()
        self.memsys = DsmMemorySystem(
            self.env, n_cpus, config.memsys,
            scale.l2.line_bytes, self.registry,
        )
        allocator = config.os_model.make_allocator(scale, n_cpus, placement)
        self.allocator = allocator
        self.page_table = PageTable(
            scale.tlb.page_bytes, allocator,
            self.registry.counter_set("pagetable"),
        )
        self.ifaces: List[CpuMemInterface] = []
        self.cores = []
        for node in range(n_cpus):
            iface = CpuMemInterface(
                self.env, node, scale, self.memsys, self.page_table,
                config.core, model_tlb=config.os_model.models_tlb,
                registry=self.registry,
            )
            self.memsys.attach(node, iface)
            core = make_core(self.env, node, config.core, iface,
                             config.os_model, self.registry)
            self.ifaces.append(iface)
            self.cores.append(core)
        self.sync = SyncDomain(self.env, n_cpus)
        self._ran = False
        self._workload = None
        #: The per-CPU traces :meth:`begin` built.
        self.traces: Optional[List] = None
        self._done = None
        self._probe = None

    # -- lifecycle -------------------------------------------------------
    #
    # ``run()`` is begin + advance-to-completion + finish.  The split
    # exists for ``repro.obs.bisect``: it begins with a gate, runs until
    # every core has parked there, forks, and each process reconfigures
    # (or not), resumes the cores, and advances + finishes the rest.

    def begin(self, workload, gate=None) -> None:
        """Bind *workload*, build traces, and start every CPU process.

        *gate* is a stop line handed to every core (``at_ps`` +
        ``hold(node, env)``): cores park on it between trace items so
        the machine quiesces (:meth:`advance_until_blocked`).
        """
        if self._ran:
            raise SimulationError("a Machine is single-use; build a new one")
        self._ran = True
        traces = workload.build(self.n_cpus)
        if len(traces) != self.n_cpus:
            raise ConfigurationError(
                f"workload produced {len(traces)} traces for {self.n_cpus} CPUs"
            )
        self._workload = workload
        self.traces = traces
        for core in self.cores:
            core.start_at(self.env.now)
        self._start(gate)

    def resume(self) -> None:
        """Start every unfinished core afresh at its trace position, with
        no gate, under the probe installed now -- which therefore sees
        the rest of the run only.

        For a machine whose unfinished cores are all parked at
        :meth:`begin`'s gate with the calendar drained; the parked
        processes are abandoned, never released.
        """
        if self._done is None:
            raise SimulationError("resume() before begin()")
        self._start(None)

    def _start(self, gate) -> None:
        self._probe = probe = obs_hooks.active
        if probe is not None:
            probe.bind(self)
        # A quiescent point: the plans follow the probe from here on.
        self.memsys.watch(probe is not None)
        processes = [
            self.env.process(
                core.run_trace(trace, self.sync, core.trace_pos, gate),
                name=f"cpu{core.node}")
            for core, trace in zip(self.cores, self.traces) if not core.done
        ]
        if not processes:
            raise SimulationError("no unfinished CPU to start")
        self._done = self.env.all_of(processes)

    def reconfigure(self, config: SimulatorConfig) -> None:
        """Run the rest of the workload under *config*.

        Meant for a machine stopped at a quiescent gate, before
        :meth:`resume`.  Every component keeps its state -- caches,
        directory, page frames, clocks in cycles, counters -- and
        re-derives its timing from *config*.  A configuration of another
        shape is refused in one error naming both sides: another core
        class (the timing machinery, so MXS and R10K share one), TLB
        modelling, page allocator or ``DsmParams.contention`` would need
        state this machine does not have.  The CPU count and the scale
        are the machine's own; a configuration carries neither.
        """
        old = self.config
        mine, theirs = type(self.cores[0]), core_class(config.core.model)
        refused = [] if mine._exec_chunk is theirs._exec_chunk else [
            f"core class {mine.__name__} vs {theirs.__name__}"]
        refused += [f"{what} {a} vs {b}" for what, a, b in (
            ("TLB modelling", old.os_model.models_tlb,
             config.os_model.models_tlb),
            ("page allocator", old.os_model.allocator_kind,
             config.os_model.allocator_kind),
            ("DsmParams.contention", old.memsys.contention,
             config.memsys.contention)) if a != b]
        if refused:
            raise ConfigurationError(
                f"cannot reconfigure {old.name} into {config.name}: "
                + "; ".join(refused))
        self.config = config
        self.memsys.reconfigure(config.memsys)
        for iface, core in zip(self.ifaces, self.cores):
            iface.reconfigure(config.core)
            core.reconfigure(config.core, config.os_model)

    def advance(self) -> bool:
        """Run the engine to completion; True when the workload completed."""
        if self._done is None:
            raise SimulationError("advance() before begin()")
        self.env.run(until=self._done)
        return self._done.fired

    def advance_until_blocked(self) -> bool:
        """Run until no event remains.

        Unlike :meth:`advance`, a drained calendar is not a deadlock error
        here: with a gate installed, every core parking at the stop line
        legitimately empties the calendar.  Returns True when the
        workload completed anyway (the gate lay beyond the end of the run).
        """
        if self._done is None:
            raise SimulationError("advance_until_blocked() before begin()")
        self.env.run()
        return self._done.fired

    def finish(self) -> RunResult:
        """Collect the :class:`RunResult` of a completed run."""
        if self._done is None or not self._done.fired:
            raise SimulationError("finish() before the workload completed")
        if self.sync.open_barriers():
            raise SimulationError("run finished with CPUs stuck at a barrier")
        spans = merge_phase_marks([core.phase_marks for core in self.cores])
        instructions = sum(
            core.stats["instructions"] for core in self.cores
        )
        result = RunResult(
            config_name=self.config.name,
            workload_name=self._workload.name,
            n_cpus=self.n_cpus,
            scale_name=self.scale.name,
            total_ps=self.env.now,
            phase_spans_ps=spans,
            instructions=instructions,
            stats=self.registry.flat(),
        )
        if self._probe is not None:
            self._probe.finish(self)
        return result

    def run(self, workload) -> RunResult:
        """Execute *workload* to completion and collect the result."""
        self.begin(workload)
        self.advance()
        return self.finish()


def run_workload(config: SimulatorConfig, workload, n_cpus: int = 1, *,
                 placement: str = Placement.FIRST_TOUCH) -> RunResult:
    """Build a machine at *workload*'s scale, run it, return the result."""
    return Machine(config, n_cpus, workload.scale, placement).run(workload)
