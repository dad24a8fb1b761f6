"""Core base class: the per-CPU discrete-event process.

A core executes its trace as a DES process.  Between memory-system events
it advances a *local* cycle counter without touching the event queue (the
trick that keeps pure-Python simulation fast); it re-synchronises with
global time at every blocking miss and barrier.  The residual clock
skew is bounded by one chunk repetition and is part of the documented
modelling error budget (DESIGN.md).

The same rule one level down: within a row the model only sees the
references that can change the cycle count.  The interface's resolver
absorbs every plain hit where it stands, and a row made of nothing else
advances the clock by the chunk's scheduled cost without becoming a
generator (:meth:`CpuCore._exec_rows`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.stats import StatsRegistry
from repro.obs import hooks as obs_hooks
from repro.cpu.base import CoreParams
from repro.cpu.interface import CpuMemInterface
from repro.isa.trace import Barrier, ChunkExec, PhaseMark
from repro.os.base import OsModel

#: Address rows turned into Python lists at a time: the whole matrix of a
#: long chunk execution is tens of MiB of ``int`` objects.
_ROW_BLOCK = 256


class CpuCore:
    """Base processor model; subclasses implement ``_exec_chunk``."""

    def __init__(self, env, node: int, params: CoreParams,
                 iface: CpuMemInterface, os_model: OsModel,
                 registry: Optional[StatsRegistry] = None):
        registry = registry or StatsRegistry()
        self.env = env
        self.node = node
        self.iface = iface
        self.stats = registry.counter_set(f"cpu{node}")
        self._counters = self.stats._counters
        self.cycles = 0.0
        self._start_ps = 0
        #: (phase name, begin?, absolute ps) marks, consumed by RunResult.
        self.phase_marks: List[Tuple[str, bool, int]] = []
        #: Index of the next unexecuted trace item (where a restart
        #: resumes).
        self.trace_pos = 0
        #: True once the trace (and its final write drain) completed.
        self.done = False
        self.reconfigure(params, os_model)

    def reconfigure(self, params: CoreParams, os_model: OsModel) -> None:
        """Take *params* and *os_model*, and everything derived from them,
        for every trace item from the next one on.  The clock keeps its
        cycle count, so a faster clock puts the core earlier in time."""
        self.params = params
        self.os_model = os_model
        self.cycle_ps = params.clock.cycle_ps

    # -- time bookkeeping ----------------------------------------------------

    def start_at(self, ps: int) -> None:
        self._start_ps = ps
        self.cycles = 0.0

    def time_ps(self) -> int:
        return self._start_ps + int(self.cycles * self.cycle_ps)

    def cycles_at(self, ps: int) -> float:
        return (ps - self._start_ps) / self.cycle_ps

    def _sync_to_local_time(self):
        """Advance the engine to this core's local time (if it is ahead)."""
        t = self.time_ps()
        if t > self.env.now:
            yield self.env.timeout(t - self.env.now)

    def _catch_up_to_engine(self) -> None:
        """After a global wait, jump the local clock to engine time."""
        now_cycles = self.cycles_at(self.env.now)
        if now_cycles > self.cycles:
            self.cycles = now_cycles

    # -- trace execution -------------------------------------------------------

    def run_trace(self, trace, sync, start: int = 0, gate=None):
        """The DES process body: execute every trace item in order.

        *start* resumes mid-trace (:meth:`Machine.resume
        <repro.sim.machine.Machine.resume>`).  *gate* is a stop line
        (anything with ``at_ps`` and ``hold(node, env)``; almost always
        None): between items the core parks on a hold event once its
        local clock passes the line, leaving ``trace_pos`` at the first
        unexecuted item.
        """
        self.trace_pos = start
        for item in (trace[start:] if start else trace):
            if gate is not None and self.time_ps() >= gate.at_ps:
                yield gate.hold(self.node, self.env)
            kind = type(item)
            if kind is ChunkExec:
                yield from self._exec_chunk(item)
            elif kind is Barrier:
                yield from self._drain_writes()
                yield from self._sync_to_local_time()
                arrived_ps = self.time_ps()
                yield sync.barrier_arrive(item.bid, self.node)
                self._catch_up_to_engine()
                self._counters["barriers"] += 1.0
                probe = obs_hooks.active
                if probe is not None:
                    probe.span(arrived_ps, obs_hooks.SYNC, "barrier_wait",
                               self.time_ps() - arrived_ps,
                               {"cpu": self.node, "bid": item.bid})
            elif kind is PhaseMark:
                self.phase_marks.append((item.name, item.begin, self.time_ps()))
            else:
                raise SimulationError(f"unknown trace item {item!r}")
            self.trace_pos += 1
        yield from self._drain_writes()
        self.done = True
        self._counters["final_cycles"] = self.cycles
        probe = obs_hooks.active
        if probe is not None:
            # The per-CPU total span: denominator of the attribution table.
            probe.span(self._start_ps, obs_hooks.CPU, "total",
                       self.time_ps() - self._start_ps, self.node)

    def _exec_rows(self, ce: ChunkExec, resolve, exec_row, per_rep: float):
        """Run every address row of *ce*.

        *resolve* (``CpuMemInterface.resolver``) finds the row's first
        reference the model must act on; *exec_row*, the model's
        generator for one row, takes over from there.  A row with no such
        reference costs exactly *per_rep* cycles -- what *exec_row* would
        compute with no stall -- and never becomes a generator.
        """
        addrs = ce.addrs
        n_mem = ce.chunk.n_mem
        for lo in range(0, ce.reps, _ROW_BLOCK):
            for row in addrs[lo:lo + _ROW_BLOCK].tolist():
                first = resolve(row, 0)
                if first[0] == n_mem:
                    self.cycles += per_rep
                else:
                    yield from exec_row(row, first)

    def _drain_writes(self):
        """Wait out the write buffer (stores must be globally visible at
        synchronisation points)."""
        wb = self.iface.write_buffer
        wb.reap()
        pending = wb.pending_events()
        if pending:
            yield from self._sync_to_local_time()
            t0 = self.env.now
            yield self.env.all_of(pending)
            probe = obs_hooks.active
            if probe is not None:
                # How long sync points stall on in-flight stores (the
                # transaction anatomy's CPU-side counterpart).
                probe.drain(self.env.now - t0)
            self._catch_up_to_engine()
            wb.reap()

    # -- hooks ----------------------------------------------------------------

    def _exec_chunk(self, ce: ChunkExec):
        raise NotImplementedError

    def _charge_os_tick(self, chunk_cycles: float) -> None:
        factor = self.os_model.tick_overhead_factor
        if factor:
            overhead = chunk_cycles * factor
            self.cycles += overhead
            probe = obs_hooks.active
            if probe is not None:
                probe.span(self.time_ps(), obs_hooks.OS, "tick",
                           int(overhead * self.cycle_ps), self.node)
