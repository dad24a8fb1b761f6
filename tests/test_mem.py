"""Unit tests for caches, TLB, page table, write buffer."""

import pytest

from repro.common.config import CacheGeometry, TlbGeometry
from repro.engine import Engine
from repro.mem import (
    MODIFIED,
    SHARED,
    PageTable,
    SetAssocCache,
    Tlb,
    WriteBuffer,
    home_node,
    node_base,
)


def small_cache(assoc=2, sets=4, line=32):
    return SetAssocCache("c", CacheGeometry(sets * assoc * line, line, assoc))


class TestCache:
    def test_miss_then_hit(self):
        c = small_cache()
        assert c.lookup(10) is None
        c.fill(10, SHARED)
        assert c.lookup(10) == SHARED
        assert c.stats["misses"] == 1
        assert c.stats["hits"] == 1

    def test_lru_eviction_within_set(self):
        c = small_cache(assoc=2, sets=1, line=32)
        c.fill(0, SHARED)
        c.fill(1, SHARED)
        c.lookup(0)             # make line 1 the LRU
        victim = c.fill(2, SHARED)
        assert victim == (1, SHARED)
        assert 0 in c and 2 in c and 1 not in c

    def test_dirty_eviction_counts_writeback(self):
        c = small_cache(assoc=1, sets=1)
        c.fill(0, MODIFIED)
        victim = c.fill(1, SHARED)
        assert victim == (0, MODIFIED)
        assert c.stats["writebacks"] == 1

    def test_sets_are_independent(self):
        c = small_cache(assoc=1, sets=4)
        for line in range(4):
            assert c.fill(line, SHARED) is None
        assert len(c) == 4

    def test_conflicting_lines_thrash(self):
        # Lines congruent mod n_sets collide: 1-way, 4 sets.
        c = small_cache(assoc=1, sets=4)
        c.fill(0, SHARED)
        victim = c.fill(4, SHARED)
        assert victim == (0, SHARED)

    def test_invalidate_removes_line(self):
        c = small_cache()
        c.fill(7, MODIFIED)
        assert c.invalidate(7) == MODIFIED
        assert c.invalidate(7) is None
        assert 7 not in c

    def test_downgrade_modified_to_shared(self):
        c = small_cache()
        c.fill(3, MODIFIED)
        assert c.downgrade(3) == MODIFIED
        assert c.peek(3) == SHARED
        assert c.downgrade(3) == SHARED  # no-op second time

    def test_fill_existing_updates_state_without_eviction(self):
        c = small_cache()
        c.fill(5, SHARED)
        assert c.fill(5, MODIFIED) is None
        assert c.peek(5) == MODIFIED

    def test_occupancy(self):
        c = small_cache(assoc=2, sets=2)
        assert c.occupancy() == 0.0
        c.fill(0, SHARED)
        assert c.occupancy() == 0.25

    def test_line_of_uses_line_shift(self):
        c = small_cache(line=32)
        assert c.line_of(0) == 0
        assert c.line_of(31) == 0
        assert c.line_of(32) == 1


class TestTlb:
    def test_hit_after_insert(self):
        """A hit returns the translation offset the entry holds."""
        t = Tlb(TlbGeometry(entries=4, page_bytes=256))
        vpn = t.vpn_of(1024)
        assert t.lookup(vpn) is None
        t.insert(vpn, 0x3000)
        assert t.lookup(vpn) == 0x3000

    def test_zero_offset_is_a_hit(self):
        # An identity-mapped page: the entry is 0, and still a hit.
        t = Tlb(TlbGeometry(entries=4, page_bytes=256))
        t.insert(7, 0)
        assert t.lookup(7) == 0
        assert t.stats["misses"] == 0

    def test_lru_eviction(self):
        t = Tlb(TlbGeometry(entries=2, page_bytes=256))
        t.insert(1, 0)
        t.insert(2, 0)
        t.lookup(1)       # refresh 1; 2 becomes LRU
        t.insert(3, 0)
        assert 1 in t and 3 in t and 2 not in t

    def test_reach_limits_working_set(self):
        # Touching more pages than entries thrashes: second pass all misses.
        t = Tlb(TlbGeometry(entries=4, page_bytes=256))
        for vpn in range(8):
            t.lookup(vpn)
            t.insert(vpn, 0)
        misses_before = t.stats["misses"]
        for vpn in range(8):
            if t.lookup(vpn) is None:
                t.insert(vpn, 0)
        assert t.stats["misses"] == misses_before + 8

    def test_flush_empties(self):
        t = Tlb(TlbGeometry(entries=4, page_bytes=256))
        t.insert(5, 0)
        t.flush()
        assert len(t) == 0


class _StubAllocator:
    def __init__(self):
        self.next = 100
        self.calls = []

    def allocate(self, vpn, node):
        self.calls.append((vpn, node))
        pfn = self.next
        self.next += 1
        return pfn


class TestPageTable:
    def test_first_touch_allocates_once(self):
        alloc = _StubAllocator()
        pt = PageTable(256, alloc)
        p1 = pt.translate(0x1000, node=2)
        p2 = pt.translate(0x1008, node=3)  # same page, different node
        assert p1 + 8 == p2
        assert alloc.calls == [(0x1000 // 256, 2)]

    def test_offset_preserved(self):
        pt = PageTable(256, _StubAllocator())
        paddr = pt.translate(0x1234, node=0)
        assert paddr % 256 == 0x1234 % 256

    def test_frame_of_without_allocation(self):
        alloc = _StubAllocator()
        pt = PageTable(256, alloc)
        assert pt.frame_of(99) is None
        assert alloc.calls == []


class TestWriteBuffer:
    def test_not_full_until_capacity(self):
        env = Engine()
        wb = WriteBuffer(capacity=2)
        wb.add(env.event())
        assert not wb.full
        wb.add(env.event())
        assert wb.full

    def test_reap_removes_fired(self):
        env = Engine()
        wb = WriteBuffer(capacity=2)
        e1, e2 = env.event(), env.event()
        wb.add(e1)
        wb.add(e2)
        e1.succeed()
        wb.reap()
        assert len(wb) == 1 and not wb.full

    def test_reap_handles_out_of_order_completion(self):
        env = Engine()
        wb = WriteBuffer(capacity=3)
        events = [env.event() for _ in range(3)]
        for ev in events:
            wb.add(ev)
        events[1].succeed()  # middle completes first
        wb.reap()
        assert len(wb) == 2

    def test_oldest(self):
        env = Engine()
        wb = WriteBuffer()
        assert wb.oldest() is None
        e = env.event()
        wb.add(e)
        assert wb.oldest() is e


class TestAddressHelpers:
    def test_home_node_roundtrip(self):
        for node in (0, 1, 7, 15):
            assert home_node(node_base(node)) == node
            assert home_node(node_base(node) + 12345) == node
