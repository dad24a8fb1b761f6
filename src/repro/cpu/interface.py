"""The processor-side memory interface of one node.

Owns the L1 instruction/data caches, the (processor-managed) secondary
cache, the TLB, the write buffer and the MSHRs, and implements both sides
of the memory boundary:

* towards the core: :meth:`resolver` walks a row of data references
  against TLB + L1 + L2 + MSHRs, absorbs those the core has nothing to do
  for, and says what it must do for the next one (charge a TLB refill or
  an L2 hit, wait on an in-flight line, or issue a transaction);
* towards the memory system: the ``l2_fill`` / ``l2_invalidate`` /
  ``l2_downgrade`` / ``l2_peek`` hooks the DSM protocol calls during
  transactions and interventions.

It also models the R10000's secondary-cache interface occupancy
(Section 3.1.2): after a fill, the interface stays busy for the line
transfer and subsequent tag checks wait.  Untuned Mipsy/MXS set the
occupancy to zero -- exactly the mistuning the paper discovered with the
dependent-load microbenchmark.
"""

from __future__ import annotations

from collections import OrderedDict
from math import ceil
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import MachineScale
from repro.common.errors import SimulationError
from repro.common.stats import StatsRegistry
from repro.cpu.base import CoreParams
from repro.isa.opcodes import Op
from repro.mem.cache import MODIFIED, SetAssocCache, SHARED
from repro.mem.page_table import PageTable
from repro.mem.tlb import Tlb
from repro.mem.write_buffer import WriteBuffer
from repro.memsys.dsm import DsmMemorySystem, MemKind
from repro.obs import hooks as obs_hooks

# Outcomes of a resolved reference.
HIT = 0        #: satisfied locally, no cost beyond the scheduled cycle
L2_HIT = 1     #: L1 miss, L2 hit: charge L2_HIT_CYCLES (+ port wait)
PENDING = 2    #: line already in flight: wait on the returned event
MISS = 3       #: issue a transaction (returned kind) for the returned paddr
NOOP = 4       #: absorbed (store merge, prefetch to a present line, ...)

#: Cycles an L2 hit costs the core (the R10000's secondary-cache hit
#: latency at 150 MHz; an out-of-order core hides part of it).
L2_HIT_CYCLES = 10.0

#: Cycles to refill one instruction-cache line from the L2.
ICACHE_REFILL_CYCLES_PER_LINE = 10.0

_STORE = int(Op.STORE)
_PREFETCH = int(Op.PREFETCH)
_CACHEOP = int(Op.CACHEOP)


class CpuMemInterface:
    """Caches + TLB + MSHR + write buffer of one node."""

    def __init__(self, env, node: int, scale: MachineScale,
                 memsys: DsmMemorySystem, page_table: PageTable,
                 params: CoreParams, model_tlb: bool,
                 registry: Optional[StatsRegistry] = None):
        registry = registry or StatsRegistry()
        self.env = env
        self.node = node
        self.scale = scale
        self.memsys = memsys
        self.page_table = page_table
        self.stats = registry.counter_set(f"iface{node}")
        self._counters = self.stats._counters
        self.l1d = SetAssocCache(
            f"l1d{node}", scale.l1d, registry.counter_set(f"l1d{node}"),
            node=node)
        self.l2 = SetAssocCache(
            f"l2{node}", scale.l2, registry.counter_set(f"l2{node}"),
            node=node)
        self.tlb: Optional[Tlb] = (
            Tlb(scale.tlb, registry.counter_set(f"tlb{node}"))
            if model_tlb else None
        )
        self.write_buffer = WriteBuffer(
            stats=registry.counter_set(f"wb{node}"))
        self._mshr: Dict[int, object] = {}     # l2 line -> completion event
        self._issue_label = {
            MemKind.READ: "issued_read",
            MemKind.WRITE: "issued_write",
            MemKind.UPGRADE: "issued_upgrade",
        }
        self._l1_per_l2 = scale.l2.line_bytes // scale.l1d.line_bytes
        self._l1_shift = self.l1d.line_shift
        self._l2_shift = self.l2.line_shift
        self._page_shift = page_table.page_shift
        # Secondary-cache interface occupancy (core-local cycles).
        self.port_busy_until = 0.0
        # Chunk-footprint instruction cache model.
        self._icache: "OrderedDict[int, int]" = OrderedDict()
        self._icache_bytes = 0
        self.reconfigure(params)

    def reconfigure(self, params: CoreParams) -> None:
        """Take the CPU-side timing of *params* (L2-interface occupancy)
        from the next reference on."""
        self.params = params

    # ------------------------------------------------------------------
    # Core-facing: data references
    # ------------------------------------------------------------------

    def resolver(self, kinds: Sequence[int]):
        """``resolve(row, j) -> (j', outcome, payload, kind, tlb_miss)``
        for rows of one chunk, whose memory slots have the ops *kinds*.

        ``resolve`` walks *row* from slot *j* and absorbs, in place, every
        reference the core has nothing to do for: a hit (TLB recency, L1
        recency, ``l1d.hits``), a CACHEOP, a store or prefetch merged into
        an in-flight line, a prefetch the L2 holds -- as long as the TLB
        held the page.  It returns at the first reference the core must
        act on: slot ``j'``, its outcome, the in-flight event (PENDING) or
        physical address (MISS), the transaction kind, and whether the
        TLB missed (then the outcome may be HIT or NOOP too).  ``j' ==
        len(kinds)`` says the row is exhausted; the outcome is then that
        of its last reference.  Every side effect -- counters, recency,
        first-touch allocation, probe events -- happens in the order the
        per-reference methods (``Tlb.lookup``/``insert``,
        ``PageTable.translate``, ``SetAssocCache.lookup``) would produce;
        ``tests/classify_reference.py`` is the oracle.

        What a plain hit costs is cut to what its page has not already
        paid.  A reference on the previous reference's page skips the TLB
        and the translation: that page is MRU and mapped, since a TLB
        miss returns.  A TLB entry holds its page's translation offset
        (``paddr - vaddr``), so a TLB hit translates by subscript.  L1
        hits are counted in a local, added to ``l1d.hits`` before any
        other ``l1d`` counter is touched and at the return, which keeps
        the counters' first-touch order.  An L1 miss and the L2 lookup
        behind it are walked in place too: counters bumped in their
        dicts, recency and probe events as ``SetAssocCache.lookup``
        has them.

        The closure binds the hot containers themselves, so it is valid
        for the one ``_exec_chunk`` call that built it.  Build one per
        chunk execution; never keep one.
        """
        n_mem = len(kinds)
        node = self.node
        tlb = self.tlb
        tlb_map = None if tlb is None else tlb._map
        tlb_touch = None if tlb is None else tlb_map.move_to_end
        page_shift = self._page_shift
        frame_of = self.page_table._map.get
        translate_vpn = self.page_table.translate_vpn
        l1d, l2 = self.l1d, self.l2
        l1_shift, l2_shift = self._l1_shift, self._l2_shift
        l1_state = l1d._state.get
        l1_sets, l1_mask = l1d._sets, l1d._set_mask
        l1_two_way = l1d.geometry.assoc == 2
        l1_counters = l1d._counters
        l1_name = l1d.name
        l2_state = l2._state.get
        l2_sets, l2_mask = l2._sets, l2._set_mask
        l2_counters = l2._counters
        l2_name = l2.name
        tlb_counters = None if tlb is None else tlb._counters
        mshr = self._mshr.get
        counters = self._counters

        def resolve(row, j):
            outcome = HIT
            tlb_miss = False      # a reference that sets it returns
            page = None           # the last reference's page: MRU, mapped
            hits = 0              # l1d hits not yet in its counters
            while j < n_mem:
                vaddr = row[j]
                vpn = vaddr >> page_shift
                if vpn != page:
                    page = vpn
                    if tlb_map is None:
                        pfn = frame_of(vpn)
                        if pfn is None:
                            pfn = translate_vpn(vpn, node)     # first touch
                        offset = (pfn - vpn) << page_shift
                    else:
                        try:
                            tlb_touch(vpn)
                            offset = tlb_map[vpn]
                        except KeyError:
                            tlb_miss = True
                            tlb_counters["misses"] += 1.0
                            if len(tlb_map) >= tlb.entries:
                                tlb_map.popitem(last=False)
                                tlb_counters["evictions"] += 1.0
                            pfn = frame_of(vpn)
                            if pfn is None:
                                pfn = translate_vpn(vpn, node)
                            tlb_map[vpn] = offset = (pfn - vpn) << page_shift
                            probe = obs_hooks.active
                            if probe is not None:
                                probe.tlb_miss(vpn, node)
                op = kinds[j]
                if op == _CACHEOP:
                    outcome = NOOP
                else:
                    paddr = vaddr + offset
                    line1 = paddr >> l1_shift
                    state1 = l1_state(line1)
                    if state1 is not None:
                        # SetAssocCache.lookup's hit, without the call.
                        hits += 1
                        ways = l1_sets[line1 & l1_mask]
                        if ways[-1] != line1:
                            if l1_two_way:
                                ways.reverse()
                            else:
                                ways.remove(line1)
                                ways.append(line1)
                        outcome = HIT
                        if op == _STORE and state1 != MODIFIED:
                            # Store to an L1 SHARED line: the L2 decides.
                            line2 = paddr >> l2_shift
                            if l2_state(line2) == MODIFIED:
                                l1d.set_state(line1, MODIFIED)
                            elif mshr(line2) is not None:
                                outcome = NOOP     # merged with in-flight
                            else:
                                counters["upgrades"] += 1.0
                                result = (j, MISS, paddr, MemKind.UPGRADE,
                                          tlb_miss)
                                break
                    else:
                        # SetAssocCache.lookup's miss, without the call.
                        if hits:
                            l1_counters["hits"] += hits
                            hits = 0
                        l1_counters["misses"] += 1.0
                        probe = obs_hooks.active
                        if probe is not None:
                            probe.cache_miss(l1_name, node, line1 << l1_shift)
                        line2 = paddr >> l2_shift
                        pending = mshr(line2)
                        if pending is not None:
                            if op != _PREFETCH and op != _STORE:
                                counters["pending_hits"] += 1.0
                                result = (j, PENDING, pending, None, tlb_miss)
                                break
                        else:
                            # SetAssocCache.lookup on the L2, likewise.
                            state2 = l2_state(line2)
                            if state2 is None:
                                l2_counters["misses"] += 1.0
                                if probe is not None:
                                    probe.cache_miss(l2_name, node,
                                                     line2 << l2_shift)
                                kind = (MemKind.WRITE if op == _STORE
                                        else MemKind.READ)
                                result = (j, MISS, paddr, kind, tlb_miss)
                                break
                            l2_counters["hits"] += 1.0
                            ways = l2_sets[line2 & l2_mask]
                            if ways[-1] != line2:
                                ways.remove(line2)
                                ways.append(line2)
                            if op == _STORE and state2 != MODIFIED:
                                counters["upgrades"] += 1.0
                                result = (j, MISS, paddr, MemKind.UPGRADE,
                                          tlb_miss)
                                break
                            l1d.fill(line1, state2)
                            if op != _PREFETCH:
                                result = (j, L2_HIT, None, None, tlb_miss)
                                break
                        outcome = NOOP
                if tlb_miss:
                    result = (j, outcome, None, None, True)
                    break
                j += 1
            else:
                result = (j, outcome, None, None, False)
            if hits:
                l1_counters["hits"] += hits
            return result

        return resolve

    def classify(self, vaddr: int, op: int) -> Tuple[int, object, Optional[str], bool]:
        """Resolve one reference: ``(outcome, payload, kind, tlb_miss)``,
        the one-slot spelling of :meth:`resolver` (the cores use that)."""
        return self.resolver((op,))((vaddr,), 0)[1:]

    def issue_miss(self, paddr: int, kind: str):
        """Start a transaction, registering an MSHR.  Returns the event."""
        line2 = paddr >> self._l2_shift
        existing = self._mshr.get(line2)
        if existing is not None:
            return existing
        probe = obs_hooks.active
        txn = None
        if probe is not None:
            # The record opens at the CPU issue point so demand misses
            # are distinguishable from internal traffic (origin).
            txn = probe.open_txn(self.node, paddr, kind, "demand")
        event = self.memsys.request(self.node, paddr, kind, txn)
        self._mshr[line2] = event
        event.add_waiter(lambda _ev, line=line2: self._mshr.pop(line, None))
        self._counters[self._issue_label[kind]] += 1.0
        if probe is not None:
            probe.span(self.env.now, obs_hooks.MEM, f"issue.{kind}", 0,
                       self.node)
        return event

    # -- secondary-cache interface occupancy ------------------------------

    def port_wait_cycles(self, at_cycles: float) -> float:
        """Extra cycles a tag check at *at_cycles* waits for the interface."""
        if at_cycles < self.port_busy_until:
            self._counters["port_waits"] += 1.0
            return self.port_busy_until - at_cycles
        return 0.0

    def port_fill_at(self, done_cycles: float) -> None:
        """Record a fill completing at *done_cycles* (core-local)."""
        occ = self.params.l2_port_occupancy_cycles
        if occ > 0:
            busy = done_cycles + occ
            if busy > self.port_busy_until:
                self.port_busy_until = busy

    # -- instruction fetch --------------------------------------------------

    def fetch_cost_cycles(self, chunk) -> float:
        """Cost of fetching *chunk*'s code, at chunk-footprint granularity."""
        cached = self._icache.get(chunk.uid)
        if cached is not None:
            self._icache.move_to_end(chunk.uid)
            return 0.0
        lines = max(1, ceil(chunk.code_bytes / self.scale.l1i.line_bytes))
        self._icache[chunk.uid] = chunk.code_bytes
        self._icache_bytes += chunk.code_bytes
        budget = self.scale.l1i.size_bytes
        while self._icache_bytes > budget and len(self._icache) > 1:
            _uid, size = self._icache.popitem(last=False)
            self._icache_bytes -= size
        self._counters["icache_refills"] += 1.0
        return lines * ICACHE_REFILL_CYCLES_PER_LINE

    # ------------------------------------------------------------------
    # Protocol-facing hooks (called by DsmMemorySystem)
    # ------------------------------------------------------------------

    def l2_peek(self, line: int):
        return self.l2.peek(line)

    def l2_fill(self, line: int, state: str) -> None:
        victim = self.l2.fill(line, state)
        # Fill the first L1 line of the L2 line (the critical word's
        # line); neighbouring L1 lines fault in on first use via L2 hits.
        self.l1d.fill(line * self._l1_per_l2, state)
        if victim is not None:
            victim_line, victim_state = victim
            self._l1_invalidate_range(victim_line)
            if victim_state == MODIFIED:
                paddr = victim_line << self._l2_shift
                self.memsys.request(self.node, paddr, MemKind.WRITEBACK)
                self._counters["victim_writebacks"] += 1.0

    def l2_invalidate(self, line: int) -> None:
        self.l2.invalidate(line)
        self._l1_invalidate_range(line)

    def l2_downgrade(self, line: int) -> None:
        self.l2.downgrade(line)
        first = line * self._l1_per_l2
        for l1_line in range(first, first + self._l1_per_l2):
            if self.l1d.peek(l1_line) == MODIFIED:
                self.l1d.set_state(l1_line, SHARED)

    # -- helpers ------------------------------------------------------------

    def _l1_invalidate_range(self, l2_line: int) -> None:
        # SetAssocCache.invalidate for each L1 line of the L2 line,
        # without a call per line.
        l1d = self.l1d
        state, sets, mask = l1d._state, l1d._sets, l1d._set_mask
        counters = l1d._counters
        first = l2_line * self._l1_per_l2
        for l1_line in range(first, first + self._l1_per_l2):
            if state.pop(l1_line, None) is not None:
                sets[l1_line & mask].remove(l1_line)
                counters["invalidations"] += 1.0

    def snapshot(self, chunk_uids: Optional[List[int]] = None) -> dict:
        """Caches, TLB, write buffer, MSHR markers, port, and icache.

        The icache is keyed by ``Chunk.uid`` -- a process-lifetime counter
        whose absolute values differ between processes -- so entries are
        recorded under the chunk's *trace rank* (its index in
        *chunk_uids*, the first-appearance list over the machine's
        traces), which is identical for identical runs in any process.
        """
        if self._icache and chunk_uids is None:
            raise SimulationError(
                f"iface{self.node}: icache is warm but no chunk rank "
                "list was supplied"
            )
        icache = [[chunk_uids.index(uid), code_bytes]
                  for uid, code_bytes in self._icache.items()]
        return {
            "l1d": self.l1d.snapshot(),
            "l2": self.l2.snapshot(),
            "tlb": None if self.tlb is None else self.tlb.snapshot(),
            "write_buffer": self.write_buffer.snapshot(),
            "stats": self.stats.snapshot(),
            "mshr": [[line, bool(event.fired)]
                     for line, event in self._mshr.items()],
            "port_busy_until": float(self.port_busy_until),
            "icache": icache,
            "icache_bytes": int(self._icache_bytes),
        }
