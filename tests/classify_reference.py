"""The per-reference ``CpuMemInterface.classify`` body as it stood before
the resolver, kept as a test oracle.

The simulator resolves references through the closure
``CpuMemInterface.resolver`` builds, which absorbs plain hits in place
and hands the cores only the references they must act on.  This is the
body it replaced: one reference in, one ``(outcome, payload, kind,
tlb_miss)`` out, every step a method call on the TLB, page table and
caches.  ``tests/test_properties.py`` drives an interface through each
and requires the same events, recency orders and counter orders.
The one change since: a TLB entry holds its page's translation offset
(``paddr - vaddr``), filled once the miss has translated, as the
resolver's entries are.  Nothing under ``src/`` imports this module.
"""

from repro.cpu.interface import (
    _CACHEOP, _PREFETCH, _STORE, HIT, L2_HIT, MISS, NOOP, PENDING)
from repro.mem.cache import MODIFIED
from repro.memsys.dsm import MemKind
from repro.obs import hooks as obs_hooks


def classify(self, vaddr, op):
    """Resolve one reference against *self*, a ``CpuMemInterface``.

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
            probe = obs_hooks.active
            if probe is not None:
                # Mirrors Tlb.lookup's instant (this path inlines it).
                probe.tlb_miss(vpn, self.node)
    paddr = self.page_table.translate(vaddr, self.node)
    if tlb_miss:
        # The new entry holds the page's translation offset.
        tlb_map[vpn] = paddr - vaddr

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
