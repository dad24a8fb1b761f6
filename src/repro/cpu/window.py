"""WindowCore: the out-of-order models (MXS, and R10K = gold standard).

MXS "models an out-of-order four-issue microprocessor ... a generic
superscalar processor model that we have configured to be as close to an
R10000 as possible.  MXS models pipeline latencies and bandwidth, and has
the same type and number of functional units as the R10000, as well as the
same branch prediction strategy." (Section 2.2.)

The per-chunk dataflow schedule (:mod:`repro.isa.schedule`) supplies the
all-hits cost; at run time the core only walks memory operations, tracking
up to ``max_outstanding`` in-flight misses:

* independent misses overlap; an isolated miss is exposed for roughly its
  latency minus ``miss_hide_cycles`` (what the window can cover);
* dependent (pointer-chase) loads serialize fully -- the behaviour the
  snbench dependent-load microbenchmark measures;
* when all miss slots are busy, the core stalls for the oldest.

The **R10K** gold-standard core is this model plus the implementation
constraints the paper found generic simulators omit: address-interlock
penalties, secondary-cache interface occupancy, the true 65-cycle TLB
refill, and a smaller effective hiding window.  MXS without them runs
20-30% fast -- Figure 3's central result.

MXS's two historical performance bugs (Section 3.1.2) are injectable:
``fast_issue_bug_factor < 1`` lets instructions move through the pipeline
too quickly when resources are free, and ``cacheop_bug_stall_cycles``
stalls graduation for ~a million cycles after a mis-handled MIPS CACHE
instruction.
"""

from __future__ import annotations

from repro.cpu.core import CpuCore
from repro.cpu.interface import L2_HIT, MISS, PENDING
from repro.obs import hooks as obs_hooks
from repro.isa.chunk import Chunk
from repro.isa.opcodes import Op
from repro.isa.schedule import CoreTiming, schedule_chunk
from repro.isa.trace import ChunkExec

_LOAD = int(Op.LOAD)
_STORE = int(Op.STORE)


class WindowCore(CpuCore):
    """Four-issue out-of-order model with bounded miss overlap."""

    model_name = "window"

    def __init__(self, env, node, params, iface, os_model, registry=None):
        super().__init__(env, node, params, iface, os_model, registry)
        self._inflight = []          # [(event, issue_cycles)]
        self._miss_ema = 100.0       # running estimate of miss latency

    def reconfigure(self, params, os_model) -> None:
        super().reconfigure(params, os_model)
        self._timing = CoreTiming(
            key=params.timing_key(),
            width=params.width,
            window=params.window,
            latency=params.latency_table(),
        )
        self._l2_hit_hide = min(6.0, params.miss_hide_cycles / 2.0)

    # -- branch/bug accounting --------------------------------------------------

    def _per_rep_penalties(self, chunk: Chunk) -> float:
        p = self.params
        penalty = 0.0
        if chunk.n_branches:
            rate = chunk.branch_profile.mispredicts_per_branch()
            if rate:
                penalty += chunk.n_branches * rate * p.mispredict_penalty_cycles
        if p.interlock_penalty_cycles and chunk.interlock_pairs:
            penalty += chunk.interlock_pairs * p.interlock_penalty_cycles
        if p.cacheop_bug_stall_cycles:
            n_cacheops = chunk.count(Op.CACHEOP)
            if n_cacheops:
                penalty += n_cacheops * p.cacheop_bug_stall_cycles
                self.stats.add("cacheop_bug_stalls", n_cacheops)
        return penalty

    def _observe_latency(self, latency_cycles: float) -> None:
        if latency_cycles > 0:
            self._miss_ema += 0.2 * (latency_cycles - self._miss_ema)

    def _reap_inflight(self) -> None:
        if not self._inflight:
            return
        kept = []
        for event, issue_c in self._inflight:
            if event.fired:
                self._observe_latency(self.cycles_at(event.value) - issue_c)
            else:
                kept.append((event, issue_c))
        self._inflight = kept

    # -- chunk execution -----------------------------------------------------------

    def _exec_chunk(self, ce: ChunkExec):
        chunk = ce.chunk
        iface = self.iface
        p = self.params
        sched = schedule_chunk(chunk, self._timing)
        bug = p.fast_issue_bug_factor * p.ilp_derate_factor
        per_rep = sched.steady_cycles * bug + self._per_rep_penalties(chunk)
        chunk_start_cycles = self.cycles
        self.cycles += iface.fetch_cost_cycles(chunk)
        # Cold first iteration + one loop-exit mispredict per chunk run.
        self.cycles += (sched.first_cycles - sched.steady_cycles) * bug
        self.cycles += p.mispredict_penalty_cycles if chunk.n_branches else 0.0
        self.stats.add("instructions", ce.n_instructions)

        if chunk.n_mem == 0:
            self.cycles += per_rep * ce.reps
            self._charge_os_tick(self.cycles - chunk_start_cycles)
            return

        offsets = sched.mem_offsets.tolist()
        kinds = chunk.mem_kind.tolist()
        chases = chunk.pointer_chase.tolist()
        n_mem = chunk.n_mem
        resolve = iface.resolver(kinds)
        issue_miss = iface.issue_miss
        port_wait = iface.port_wait_cycles
        tlb_refill = p.tlb_refill_cycles
        l2_hit_wait = max(0.0, p.l2_hit_cycles - self._l2_hit_hide)
        hide = p.miss_hide_cycles
        max_out = p.max_outstanding
        wb = iface.write_buffer
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
                    wait = l2_hit_wait + port_wait(pt)
                    stall += wait
                    if probe is not None and wait > 0:
                        probe.span(start_ps + int(pt * cycle_ps),
                                   obs_hooks.MEM, "l2_hit",
                                   int(wait * cycle_ps), node)
                elif outcome == PENDING:
                    if op == _LOAD:
                        done_ps = yield payload
                        done_c = self.cycles_at(done_ps)
                        exposed = done_c - pt
                        if exposed > 0:
                            stall += exposed
                            if probe is not None:
                                probe.span(start_ps + int(pt * cycle_ps),
                                           obs_hooks.MEM, "pending_wait",
                                           int(exposed * cycle_ps), node)
                        iface.port_fill_at(max(done_c, pt))
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
                elif outcome == MISS and op == _LOAD and chases[j]:
                    stall += port_wait(pt)
                    pt = base + offsets[j] + stall
                    # Dependent load: nothing to overlap with.
                    self.cycles = pt
                    yield from self._sync_to_local_time()
                    event = issue_miss(payload, kind)
                    done_ps = yield event
                    done_c = self.cycles_at(done_ps)
                    self._observe_latency(done_c - pt)
                    iface.port_fill_at(done_c)
                    exposed = done_c - pt
                    if exposed > 0:
                        stall += exposed
                        if probe is not None:
                            probe.span(start_ps + int(pt * cycle_ps),
                                       obs_hooks.MEM, "chase_miss",
                                       int(exposed * cycle_ps), node)
                    self.stats.add("chase_miss_waits")
                elif outcome == MISS:
                    stall += port_wait(pt)
                    pt = base + offsets[j] + stall
                    # Independent load or prefetch: overlap within slot
                    # limit.
                    self._reap_inflight()
                    if len(self._inflight) >= max_out:
                        event0, issue0 = self._inflight.pop(0)
                        done_ps = yield event0
                        done_c = self.cycles_at(done_ps)
                        self._observe_latency(done_c - issue0)
                        iface.port_fill_at(done_c)
                        wait = done_c - pt
                        if wait > 0:
                            stall += wait
                            if probe is not None:
                                probe.span(start_ps + int(pt * cycle_ps),
                                           obs_hooks.MEM, "slot_full",
                                           int(wait * cycle_ps), node)
                            pt = base + offsets[j] + stall
                        self.stats.add("slot_full_stalls")
                    event = issue_miss(payload, kind)
                    overlapped = bool(self._inflight)
                    self._inflight.append((event, pt))
                    if op == _LOAD and not overlapped:
                        exposed = self._miss_ema - hide
                        if exposed > 0:
                            stall += exposed
                            if probe is not None:
                                probe.span(start_ps + int(pt * cycle_ps),
                                           obs_hooks.MEM, "miss_exposed",
                                           int(exposed * cycle_ps), node)
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


class MxsCore(WindowCore):
    """MXS: the generic out-of-order model (no implementation constraints)."""

    model_name = "mxs"


class R10kCore(WindowCore):
    """The reference core standing in for the real MIPS R10000.

    Identical machinery to MXS, parameterised with the implementation
    constraints (address interlocks, L2-interface occupancy, 65-cycle TLB
    refill) that the paper shows generic models lack.  Declared the gold
    standard for every experiment.
    """

    model_name = "r10k"
