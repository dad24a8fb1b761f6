"""Machine: one fully assembled simulated multiprocessor.

Construction wires the pieces exactly as the simulator configuration
dictates: cores (Mipsy/MXS/R10K/Embra) on top of per-node memory
interfaces, a shared page table filled by the OS model's allocator, and a
DSM memory system (FlashLite- or NUMA-parameterised) over a hypercube.

A machine is single-use: ``run(workload)`` executes one workload from cold
caches and returns a :class:`~repro.sim.results.RunResult`.  The paper's
methodology of timing only each application's parallel section makes cold
start irrelevant -- workloads warm themselves during their init phase.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.common.config import MachineScale, REPRO_SCALE
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.stats import StatsRegistry
from repro.cpu import CpuMemInterface, make_core
from repro.engine import Engine
from repro.isa.trace import ChunkExec
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
        self._traces: Optional[List] = None
        self._processes: List = []
        self._done = None
        self._probe = None

    # -- lifecycle -------------------------------------------------------
    #
    # ``run()`` is begin + advance-to-completion + finish.  The split
    # exists for ``repro.ckpt``: a checkpoint pauses ``advance`` at a
    # clean between-events boundary (or a quiescent gate stop), captures
    # state, and a restored machine -- replayed, or begun from that
    # state -- continues ``advance`` + ``finish``.

    def begin(self, workload, gate=None, state: Optional[dict] = None,
              allow_partial_obs: bool = False) -> None:
        """Bind *workload*, build traces, and start every CPU process.

        *gate* and *state* are all the model knows of ``repro.ckpt``.
        *gate* is a stop line handed to every core
        (``at_ps`` + ``hold(node, env)``): cores park on it between trace
        items so the machine quiesces.  *state* plants a quiescent
        capture (:meth:`ckpt_restore`) and starts only the unfinished
        CPUs, each at its checkpointed trace position.  Every installed
        recorder must tolerate that (recorder state is deliberately not
        checkpointed, so a resumed recording would be silently partial);
        ``allow_partial_obs`` admits a suffix-tolerant one -- spans from
        the resume point onward only -- which is what the divergence
        bisector uses to put context around a divergent event.
        """
        if self._ran:
            raise SimulationError("a Machine is single-use; build a new one")
        if state is not None:
            obs_hooks.require_ckpt_tolerant(
                "checkpoint restore", SimulationError, allow_partial_obs)
        self._ran = True
        self._probe = probe = obs_hooks.active
        if probe is not None:
            probe.bind(self)
            self.env.tracer = probe.engine_observer()
        traces = workload.build(self.n_cpus)
        if len(traces) != self.n_cpus:
            raise ConfigurationError(
                f"workload produced {len(traces)} traces for {self.n_cpus} CPUs"
            )
        self._workload = workload
        self._traces = traces
        if state is None:
            for core in self.cores:
                core.start_at(self.env.now)
        else:
            self.ckpt_restore(state)
        processes = [
            self.env.process(
                core.run_trace(trace, self.sync, core.trace_pos, gate),
                name=f"cpu{core.node}")
            for core, trace in zip(self.cores, traces) if not core.done
        ]
        if not processes:
            raise SimulationError(
                "checkpoint has no unfinished CPUs to resume"
            )
        self._processes = processes
        self._done = self.env.all_of(processes)

    def advance(self, max_ps: Optional[int] = None,
                max_events: Optional[int] = None) -> bool:
        """Run the engine; True when the workload has completed."""
        if self._done is None:
            raise SimulationError("advance() before begin()")
        self.env.run(until=self._done, max_ps=max_ps, max_events=max_events)
        return self._done.fired

    def advance_until_blocked(self) -> bool:
        """Step until completion or until no event remains.

        Unlike :meth:`advance`, a drained calendar is not a deadlock error
        here: with a checkpoint gate installed, every core parking at the
        stop line legitimately empties the calendar.  Returns True when the
        workload completed anyway (the gate lay beyond the end of the run).
        """
        if self._done is None:
            raise SimulationError("advance_until_blocked() before begin()")
        env = self.env
        env.run(max_events=0)  # settle what begin() deferred
        while not self._done.fired and env.step():
            pass
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
            self._probe.finish(self, result)
        return result

    def run(self, workload) -> RunResult:
        """Execute *workload* to completion and collect the result."""
        self.begin(workload)
        self.advance()
        return self.finish()

    # -- checkpoint contract ---------------------------------------------

    def _chunk_uids(self) -> Optional[List[int]]:
        """Distinct chunk uids in first-appearance order over the traces.

        ``Chunk.uid`` is a process-lifetime counter, so absolute uids
        differ between the saving and restoring process; a chunk's index
        in this list (its *rank*) is identical for identical runs and
        serves as the portable icache key -- capture looks a uid's rank
        up, restore indexes a rank back to this process's uid.
        """
        if self._traces is None:
            return None
        return list(dict.fromkeys(
            item.chunk.uid for trace in self._traces for item in trace
            if type(item) is ChunkExec))

    def ckpt_state(self) -> dict:
        """Complete machine state, composed from every component's view."""
        chunk_uids = self._chunk_uids()
        return {
            "engine": self.env.ckpt_state(),
            "registry": self.registry.ckpt_state(),
            "allocator": self.allocator.ckpt_state(),
            "page_table": self.page_table.ckpt_state(),
            "memsys": self.memsys.ckpt_state(),
            "sync": self.sync.ckpt_state(),
            "ifaces": [iface.ckpt_state(chunk_uids) for iface in self.ifaces],
            "cores": [core.ckpt_state() for core in self.cores],
        }

    def ckpt_restore(self, state: dict) -> None:
        """Inject a quiescent captured state into this (fresh) machine.

        Injectability is judged here, once (:func:`injection_blockers`);
        each component then checks only the shape of its share.
        """
        blockers = injection_blockers(state)
        if blockers:
            raise SimulationError(
                "cannot inject a state with live machinery (use replay): "
                + "; ".join(blockers))
        if len(state["cores"]) != self.n_cpus:
            raise ConfigurationError(
                f"checkpoint has {len(state['cores'])} CPUs, "
                f"this machine has {self.n_cpus}"
            )
        for core, core_state in zip(self.cores, state["cores"]):
            have, want = sorted(core_state), sorted(core.ckpt_state())
            if have != want:
                raise SimulationError(
                    f"cpu{core.node}: checkpoint core fields {have} are not "
                    f"{type(core).__name__} fields {want} (other core family)")
        self.env.ckpt_restore(state["engine"])
        self.registry.ckpt_restore(state["registry"])
        self.allocator.ckpt_restore(state["allocator"])
        self.page_table.ckpt_restore(state["page_table"])
        self.memsys.ckpt_restore(state["memsys"])
        self.sync.ckpt_restore(state["sync"])
        chunk_uids = self._chunk_uids()
        for iface, iface_state in zip(self.ifaces, state["ifaces"]):
            iface.ckpt_restore(iface_state, chunk_uids)
        for core, core_state in zip(self.cores, state["cores"]):
            core.ckpt_restore(core_state)


def injection_blockers(state: Dict[str, Any]) -> List[str]:
    """Why *state* cannot be injected into a fresh machine (empty = can).

    Each blocker is live machinery the :meth:`Machine.ckpt_state` view
    marks but no restore can rebuild (a coroutine frame waits on it);
    :meth:`Machine.ckpt_restore` refuses a state this lists.
    """
    blockers: List[str] = []

    def count(n: int, what: str, where: str = "") -> None:
        if n:
            blockers.append(f"{where}{n} {what}")

    engine, sync, memsys = state["engine"], state["sync"], state["memsys"]
    count(len(engine["heap"]), "events on the calendar")
    count(engine["pending_dispatch"], "pending dispatches")
    for i, iface in enumerate(state["ifaces"]):
        count(len(iface["mshr"]), "MSHR transactions", f"iface{i}: ")
        count(iface["write_buffer"]["pending"].count(False),
              "unfired write-buffer entries", f"iface{i}: ")
    for i, core in enumerate(state["cores"]):
        # Even a *fired* slot feeds a window core's miss EMA on its next reap.
        count(len(core.get("inflight", ())), "occupied miss slots",
              f"cpu{i}: ")
    count(len(sync["barriers"]), "open barriers")
    resources = [(f"lock{lid}", lock) for lid, lock in sync["locks"]]
    resources += [(f"network link {key}", link)
                  for key, link in memsys["net"]["links"]]
    for n, magic in enumerate(memsys["magic"]):
        resources += [(f"node{n}: protocol processor", magic["pp"]),
                      (f"node{n}: DRAM bank", magic["dram"])]
        count(sum(entry["busy"] for _line, entry
                  in magic["directory"]["entries"]),
              "busy directory lines", f"node{n}: ")
    blockers += [f"{name} busy" for name, res in resources
                 if res["in_use"] or res["queue"]
                 or res["busy_since"] is not None]
    return blockers


def run_workload(config: SimulatorConfig, workload, n_cpus: int = 1, *,
                 placement: str = Placement.FIRST_TOUCH) -> RunResult:
    """Build a machine at *workload*'s scale, run it, return the result."""
    return Machine(config, n_cpus, workload.scale, placement).run(workload)
