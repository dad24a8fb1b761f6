"""Mipsy: the single-issue in-order processor model.

"Mipsy models a single-issue, in-order MIPS processor.  Pipeline effects
and functional unit latencies are not simulated, so the Mipsy processor
executes one instruction per cycle in the absence of memory stalls.  Mipsy
has blocking reads, but supports both prefetching and a write buffer."
(Section 2.2.)

The scaled-clock methodology (Section 2.3) -- running Mipsy at 225 or
300 MHz so its memory request *rate* approximates what an ILP processor
achieves -- is expressed simply by constructing it with a faster clock.

The instruction-latency ablation of Section 3.1.3 (add 5 cycles per
integer multiply, 19 per divide) is the ``model_instruction_latencies``
switch: it swaps the unit-latency table for the R10000 table in the
in-order schedule.
"""

from __future__ import annotations

from repro.cpu.core import CpuCore
from repro.cpu.interface import L2_HIT, MISS, PENDING
from repro.obs import hooks as obs_hooks
from repro.isa.opcodes import Op
from repro.isa.schedule import schedule_inorder
from repro.isa.trace import ChunkExec

_LOAD = int(Op.LOAD)
_STORE = int(Op.STORE)


class MipsyCore(CpuCore):
    """Blocking-read, one-IPC core with write buffer and prefetching."""

    model_name = "mipsy"

    def reconfigure(self, params, os_model) -> None:
        super().reconfigure(params, os_model)
        self._lat_table = params.latency_table()
        self._lat_key = params.timing_key()

    def _exec_chunk(self, ce: ChunkExec):
        chunk = ce.chunk
        iface = self.iface
        sched = schedule_inorder(chunk, self._lat_table, self._lat_key)
        per_rep = sched.steady_cycles
        chunk_start_cycles = self.cycles
        self.cycles += iface.fetch_cost_cycles(chunk)
        self.stats.add("instructions", ce.n_instructions)

        if chunk.n_mem == 0:
            self.cycles += per_rep * ce.reps
            self._charge_os_tick(self.cycles - chunk_start_cycles)
            return

        offsets = sched.mem_offsets.tolist()
        kinds = chunk.mem_kind.tolist()
        n_mem = chunk.n_mem
        resolve = iface.resolver(kinds)
        issue_miss = iface.issue_miss
        port_wait = iface.port_wait_cycles
        tlb_refill = self.params.tlb_refill_cycles
        l2_hit_cycles = self.params.l2_hit_cycles
        wb = iface.write_buffer
        env = self.env
        # Observability: hoisted once per chunk so the disabled path costs
        # one local None-test per stall event (never per reference).
        probe = obs_hooks.active
        node = self.node
        cycle_ps = self.cycle_ps
        start_ps = self._start_ps

        def exec_row(row, first):
            base = self.cycles
            stall = 0.0
            j, outcome, payload, kind, tlb_miss = first
            while j < n_mem:
                op = kinds[j]
                if tlb_miss:
                    stall += tlb_refill
                    self.stats.add("tlb_refills")
                    if probe is not None:
                        probe.span(
                            start_ps + int((base + offsets[j]) * cycle_ps),
                            obs_hooks.TLB, "refill",
                            int(tlb_refill * cycle_ps), node)
                pt = base + offsets[j] + stall
                if outcome == L2_HIT:
                    wait = l2_hit_cycles + port_wait(pt)
                    stall += wait
                    if probe is not None:
                        probe.span(start_ps + int(pt * cycle_ps),
                                   obs_hooks.MEM, "l2_hit",
                                   int(wait * cycle_ps), node)
                elif outcome == PENDING:
                    # A prefetched (or otherwise in-flight) line: loads wait
                    # out the remaining latency; that is how prefetching
                    # hides read latency without removing the transaction.
                    if op == _LOAD:
                        done_ps = yield payload
                        done_c = self.cycles_at(done_ps)
                        if done_c > pt:
                            stall = done_c - (base + offsets[j])
                            if probe is not None:
                                probe.span(start_ps + int(pt * cycle_ps),
                                           obs_hooks.MEM, "pending_wait",
                                           int((done_c - pt) * cycle_ps),
                                           node)
                        iface.port_fill_at(max(done_c, pt))
                elif outcome == MISS and op == _LOAD:
                    # The tag check waits out any in-progress line transfer
                    # (the secondary-cache interface occupancy effect).
                    stall += port_wait(pt)
                    pt = base + offsets[j] + stall
                    # Blocking read: advance global time to the issue point,
                    # launch the transaction, sleep until the data returns.
                    self.cycles = pt
                    yield from self._sync_to_local_time()
                    event = issue_miss(payload, kind)
                    done_ps = yield event
                    done_c = self.cycles_at(done_ps)
                    iface.port_fill_at(done_c)
                    stall = done_c - (base + offsets[j])
                    self.stats.add("load_miss_waits")
                    if probe is not None:
                        probe.span(start_ps + int(pt * cycle_ps),
                                   obs_hooks.MEM, "load_miss",
                                   max(0, int((done_c - pt) * cycle_ps)),
                                   node)
                elif outcome == MISS and op == _STORE:
                    wb.reap()
                    if wb.full:
                        done_ps = yield wb.oldest()
                        wb.reap()
                        wait = self.cycles_at(done_ps) - pt
                        if wait > 0:
                            stall += wait
                            if probe is not None:
                                probe.span(start_ps + int(pt * cycle_ps),
                                           obs_hooks.MEM, "wb_full",
                                           int(wait * cycle_ps), node)
                        self.stats.add("wb_full_stalls")
                    wb.add(issue_miss(payload, kind))
                elif outcome == MISS:  # PREFETCH
                    issue_miss(payload, kind)
                    self.stats.add("prefetches_issued")
                # Anything else was a hit, here only for its TLB refill.  On
                # to the next reference that matters: the resolver absorbs
                # the plain hits in between.
                j, outcome, payload, kind, tlb_miss = resolve(row, j + 1)
            self.cycles = base + per_rep + stall

        yield from self._exec_rows(ce, resolve, exec_row, per_rep)
        if probe is not None:
            probe.span(start_ps + int(chunk_start_cycles * cycle_ps),
                       obs_hooks.CPU, f"chunk:{chunk.name}",
                       int((self.cycles - chunk_start_cycles) * cycle_ps),
                       node)
        self._charge_os_tick(self.cycles - chunk_start_cycles)
