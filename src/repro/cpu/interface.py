"""The processor-side memory interface of one node.

Owns the L1 instruction/data caches, the (processor-managed) secondary
cache, the TLB, the write buffer and the MSHRs, and implements both sides
of the memory boundary:

* towards the core: :meth:`classify` resolves one data reference against
  TLB + L1 + L2 + MSHRs and says what the core must do (nothing, charge an
  L2 hit, wait on an in-flight line, or issue a transaction);
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
from typing import Dict, List, Optional, Tuple

from repro.common.config import MachineScale
from repro.common.errors import SimulationError
from repro.common.stats import CounterSet, StatsRegistry
from repro.cpu.base import CoreParams
from repro.isa.opcodes import Op
from repro.mem.cache import MODIFIED, SetAssocCache, SHARED
from repro.mem.page_table import PageTable
from repro.mem.tlb import Tlb
from repro.mem.write_buffer import WriteBuffer
from repro.memsys.dsm import DsmMemorySystem, MemKind
from repro.obs import hooks as obs_hooks

# classify() outcomes.
HIT = 0        #: satisfied locally, no cost beyond the scheduled cycle
L2_HIT = 1     #: L1 miss, L2 hit: charge l2_hit_cycles (+ port wait)
PENDING = 2    #: line already in flight: wait on the returned event
MISS = 3       #: issue a transaction (returned kind) for the returned paddr
NOOP = 4       #: absorbed (store merge, prefetch to a present line, ...)

_LOAD = int(Op.LOAD)
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
        self.params = params
        self.stats = registry.counter_set(f"iface{node}")
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
            params.write_buffer_entries,
            registry.counter_set(f"wb{node}"))
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

    # ------------------------------------------------------------------
    # Core-facing: data references
    # ------------------------------------------------------------------

    def classify(self, vaddr: int, op: int) -> Tuple[int, object, Optional[str], bool]:
        """Resolve one reference.

        Returns ``(outcome, payload, kind, tlb_miss)`` where payload is the
        in-flight event for PENDING or the physical address for MISS.
        """
        tlb_miss = False
        tlb = self.tlb
        if tlb is not None:
            # Inlined Tlb.lookup/insert: this is the hottest line in the
            # simulator (one translation per data reference).
            vpn = vaddr >> self._page_shift
            tlb_map = tlb._map
            if vpn in tlb_map:
                tlb_map.move_to_end(vpn)
            else:
                tlb_miss = True
                tlb.stats.add("misses")
                if len(tlb_map) >= tlb.entries:
                    tlb_map.popitem(last=False)
                    tlb.stats.add("evictions")
                tlb_map[vpn] = True
                probe = obs_hooks.active
                if probe is not None:
                    # Mirrors Tlb.lookup's instant (this path inlines it).
                    probe.tlb_miss(vpn, self.node)
        paddr = self.page_table.translate(vaddr, self.node)

        if op == _CACHEOP:
            return (NOOP, None, None, tlb_miss)

        line1 = paddr >> self._l1_shift
        line2 = paddr >> self._l2_shift
        is_store = op == _STORE

        state1 = self.l1d.lookup(line1)
        if state1 is not None:
            if not is_store or state1 == MODIFIED:
                return (HIT, None, None, tlb_miss)
            # Store to an L1 SHARED line: resolve against L2 state.
            state2 = self.l2.peek(line2)
            if state2 == MODIFIED:
                self.l1d.set_state(line1, MODIFIED)
                return (HIT, None, None, tlb_miss)
            pending = self._mshr.get(line2)
            if pending is not None:
                return (NOOP, None, None, tlb_miss)  # merged with in-flight
            self.stats.add("upgrades")
            return (MISS, paddr, MemKind.UPGRADE, tlb_miss)

        pending = self._mshr.get(line2)
        if pending is not None:
            if op == _PREFETCH or is_store:
                return (NOOP, None, None, tlb_miss)
            self.stats.add("pending_hits")
            return (PENDING, pending, None, tlb_miss)

        state2 = self.l2.lookup(line2)
        if state2 is not None:
            if not is_store:
                self.l1d.fill(line1, state2)
                if op == _PREFETCH:
                    return (NOOP, None, None, tlb_miss)
                return (L2_HIT, None, None, tlb_miss)
            if state2 == MODIFIED:
                self.l1d.fill(line1, MODIFIED)
                return (L2_HIT, None, None, tlb_miss)
            self.stats.add("upgrades")
            return (MISS, paddr, MemKind.UPGRADE, tlb_miss)

        kind = MemKind.WRITE if is_store else MemKind.READ
        return (MISS, paddr, kind, tlb_miss)

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
        self.stats.add(self._issue_label[kind])
        if probe is not None:
            probe.span(self.env.now, obs_hooks.MEM, f"issue.{kind}", 0,
                       self.node)
        return event

    # -- secondary-cache interface occupancy ------------------------------

    def port_wait_cycles(self, at_cycles: float) -> float:
        """Extra cycles a tag check at *at_cycles* waits for the interface."""
        if at_cycles < self.port_busy_until:
            self.stats.add("port_waits")
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
        self.stats.add("icache_refills")
        return lines * self.params.icache_refill_cycles_per_line

    # ------------------------------------------------------------------
    # Protocol-facing hooks (called by DsmMemorySystem)
    # ------------------------------------------------------------------

    def l2_peek(self, line: int):
        return self.l2.peek(line)

    def l2_fill(self, line: int, state: str) -> None:
        victim = self.l2.fill(line, state)
        self._l1_fill_mirror(line, state)
        if victim is not None:
            victim_line, victim_state = victim
            self._l1_invalidate_range(victim_line)
            if victim_state == MODIFIED:
                paddr = victim_line << self._l2_shift
                self.memsys.request(self.node, paddr, MemKind.WRITEBACK)
                self.stats.add("victim_writebacks")

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

    def _l1_fill_mirror(self, l2_line: int, state: str) -> None:
        # Fill the first L1 line of the L2 line (the critical word's line);
        # neighbouring L1 lines fault in on first use via l2 hits.
        l1_line = l2_line * self._l1_per_l2
        self.l1d.fill(l1_line, state)

    def _l1_invalidate_range(self, l2_line: int) -> None:
        first = l2_line * self._l1_per_l2
        for l1_line in range(first, first + self._l1_per_l2):
            self.l1d.invalidate(l1_line)

    def mshr_outstanding(self) -> int:
        return len(self._mshr)

    # -- checkpoint contract ---------------------------------------------

    def ckpt_state(self, chunk_uids: Optional[List[int]] = None) -> dict:
        """Caches, TLB, write buffer, MSHR markers, port, and icache.

        The icache is keyed by ``Chunk.uid`` -- a process-lifetime counter
        whose absolute values differ between the saving and restoring
        process -- so entries are recorded under the chunk's *trace rank*
        (its index in *chunk_uids*, the machine's first-appearance list
        over its traces), which is identical for identical runs in any
        process.
        """
        if self._icache and chunk_uids is None:
            raise SimulationError(
                f"iface{self.node}: icache is warm but no chunk rank "
                "list was supplied (capture must go through the machine)"
            )
        icache = [[chunk_uids.index(uid), code_bytes]
                  for uid, code_bytes in self._icache.items()]
        return {
            "l1d": self.l1d.ckpt_state(),
            "l2": self.l2.ckpt_state(),
            "tlb": None if self.tlb is None else self.tlb.ckpt_state(),
            "write_buffer": self.write_buffer.ckpt_state(),
            "stats": self.stats.ckpt_state(),
            "mshr": [[line, bool(event.fired)]
                     for line, event in self._mshr.items()],
            "port_busy_until": float(self.port_busy_until),
            "icache": icache,
            "icache_bytes": int(self._icache_bytes),
        }

    def ckpt_restore(self, state: dict,
                     chunk_uids: Optional[List[int]] = None) -> None:
        """Inject; *chunk_uids* lists this process's chunk uid per rank."""
        if state["mshr"]:
            raise SimulationError(
                f"iface{self.node}: cannot inject with "
                f"{len(state['mshr'])} transactions in the MSHRs"
            )
        if self._mshr:
            raise SimulationError(
                f"iface{self.node}: refusing to inject over live MSHRs"
            )
        self.l1d.ckpt_restore(state["l1d"])
        self.l2.ckpt_restore(state["l2"])
        if (self.tlb is None) != (state["tlb"] is None):
            raise SimulationError(
                f"iface{self.node}: TLB modelling mismatch with checkpoint"
            )
        if self.tlb is not None:
            self.tlb.ckpt_restore(state["tlb"])
        self.write_buffer.ckpt_restore(state["write_buffer"])
        self.stats.ckpt_restore(state["stats"])
        self.port_busy_until = state["port_busy_until"]
        self._icache = OrderedDict()
        for rank, code_bytes in state["icache"]:
            if chunk_uids is None or rank not in range(len(chunk_uids)):
                raise SimulationError(
                    f"iface{self.node}: checkpoint icache rank {rank} has "
                    "no chunk in the restored traces"
                )
            self._icache[chunk_uids[rank]] = code_bytes
        self._icache_bytes = state["icache_bytes"]
