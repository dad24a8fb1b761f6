"""Property-based tests (hypothesis) on the core data structures."""

import json
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.canonical import canonicalize, stable_hash
from repro.common.config import CacheGeometry, TINY_SCALE, TlbGeometry
from repro.cpu.interface import HIT, MISS, NOOP, PENDING
from repro.sim.results import RunResult
from repro.engine import Engine, Resource
from repro.isa.opcodes import NO_REG, Op
from repro.isa.chunk import Chunk
from repro.isa.schedule import CoreTiming, schedule_chunk
from repro.isa.opcodes import R10K_LATENCY
from repro.mem.cache import MODIFIED, SHARED, SetAssocCache
from repro.mem.tlb import Tlb
from repro.obs import hooks as obs_hooks
from repro.sim import Machine, simos_mipsy, solo_mipsy
from repro.vm.allocators import IrixColoringAllocator, SoloSequentialAllocator
from repro.vm.layout import DATA_BASE
from tests import classify_reference
from tests.test_engine import GrantLog, hold_walk

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

lines = st.integers(min_value=0, max_value=4096)


class TestCacheProperties:
    @_SETTINGS
    @given(st.lists(lines, min_size=1, max_size=300))
    def test_occupancy_never_exceeds_capacity(self, accesses):
        cache = SetAssocCache("c", CacheGeometry(1024, 32, 2))
        capacity = cache.n_sets * cache.geometry.assoc
        for line in accesses:
            if cache.lookup(line) is None:
                cache.fill(line, SHARED)
            assert len(cache) <= capacity

    @_SETTINGS
    @given(st.lists(lines, min_size=1, max_size=300))
    def test_most_recent_line_is_resident(self, accesses):
        cache = SetAssocCache("c", CacheGeometry(1024, 32, 2))
        for line in accesses:
            if cache.lookup(line) is None:
                cache.fill(line, MODIFIED)
            assert line in cache

    @_SETTINGS
    @given(st.lists(st.tuples(lines, st.booleans()), min_size=1, max_size=200))
    def test_invalidate_removes(self, ops):
        cache = SetAssocCache("c", CacheGeometry(2048, 32, 4))
        for line, invalidate in ops:
            if invalidate:
                cache.invalidate(line)
                assert line not in cache
            else:
                cache.fill(line, SHARED)
                assert line in cache

    @_SETTINGS
    @given(st.lists(lines, min_size=1, max_size=300))
    def test_stats_balance(self, accesses):
        cache = SetAssocCache("c", CacheGeometry(1024, 32, 2))
        for line in accesses:
            if cache.lookup(line) is None:
                cache.fill(line, SHARED)
        assert cache.stats["hits"] + cache.stats["misses"] == len(accesses)
        assert cache.stats["fills"] == cache.stats["misses"]


class TestTlbProperties:
    @_SETTINGS
    @given(st.lists(st.integers(0, 200), min_size=1, max_size=300),
           st.integers(2, 32))
    def test_size_bounded_and_recent_resident(self, vpns, entries):
        tlb = Tlb(TlbGeometry(entries=entries, page_bytes=256))
        for vpn in vpns:
            if tlb.lookup(vpn) is None:
                tlb.insert(vpn, 0)
            assert len(tlb) <= entries
            assert vpn in tlb

    @_SETTINGS
    @given(st.lists(st.integers(0, 200), min_size=1, max_size=300),
           st.integers(2, 32), st.booleans())
    def test_inlined_classify_path_matches_reference(self, vpns, entries,
                                                     model_tlb):
        """The simulator never calls ``Tlb.lookup``/``insert``: the
        closure ``CpuMemInterface.resolver`` builds -- the code both cores
        run, and all ``classify`` is -- carries an inlined copy (one
        translation per data reference).  The methods are the reference
        that copy must agree with -- resident set, LRU order, counters --
        and with no TLB modelled it must report no miss at all."""
        page = TINY_SCALE.tlb.page_bytes
        scale = replace(TINY_SCALE,
                        tlb=TlbGeometry(entries=entries, page_bytes=page))
        config = simos_mipsy(150) if model_tlb else solo_mipsy(150)
        iface = Machine(config, 1, scale).ifaces[0]
        row = [vpn * page + 8 for vpn in vpns]
        resolve = iface.resolver([int(Op.LOAD)] * len(row))
        missed, j = set(), 0
        while j < len(row):
            j, _outcome, _payload, _kind, tlb_miss = resolve(row, j)
            if tlb_miss:
                missed.add(j)
            j += 1
        if not model_tlb:
            assert iface.tlb is None and not missed
            return
        reference = Tlb(scale.tlb)
        shift = iface.page_table.page_shift
        for slot, vpn in enumerate(vpns):
            hit = reference.lookup(vpn) is not None
            if not hit:
                offset = (iface.page_table.frame_of(vpn) - vpn) << shift
                reference.insert(vpn, offset)
            assert (slot in missed) == (not hit)
        # Oldest-first, so equal lists mean equal LRU order.
        assert (iface.tlb.snapshot()["vpns"]
                == reference.snapshot()["vpns"])
        # Each entry holds its page's translation offset.
        assert list(iface.tlb._map.items()) == list(reference._map.items())
        for counter in ("misses", "evictions"):
            assert iface.tlb.stats[counter] == reference.stats[counter]
        assert reference.stats["misses"] >= len(set(vpns))


_OPS = [int(op) for op in (Op.LOAD, Op.STORE, Op.PREFETCH, Op.CACHEOP)]
#: Pages a row may touch: more than the largest TLB drawn (8 entries).
_PAGES = 12
_pages = st.integers(0, _PAGES - 1)
_l1_lines = st.integers(0, 3)
_ops = st.sampled_from(_OPS)
#: A reference: (page, L1 line within the page 0-3, op).
_refs = st.tuples(_pages, _l1_lines, _ops)
_line_states = st.sampled_from([None, SHARED, MODIFIED])
#: A pre-seeded line: (page, line, L1 state, L2 state, live MSHR entry?).
_seeds = st.tuples(_pages, _l1_lines, _line_states, _line_states,
                   st.booleans())


@st.composite
def _revisit_rows(draw):
    """A row that leaves a page for 8 others and comes back to it: under
    any TLB drawn, the page is evicted and faults again mid-row, and the
    unseeded pages among the others are first touches mid-row."""
    home = draw(_pages)
    others = draw(st.permutations([p for p in range(_PAGES) if p != home]))
    refs = [(page, draw(_l1_lines), draw(_ops))
            for page in [home] + others[:8] + [home]]
    # Same-page runs are what the resolver's page memo skips.
    return [ref for ref in refs for _ in range(draw(st.integers(1, 2)))]


class _MissLog(obs_hooks.Recorder):
    """The probe's miss instants, in order."""

    __slots__ = ("events",)

    def __init__(self):
        self.events = []

    def cache_miss(self, name, node, paddr):
        self.events.append(("cache_miss", name, node, paddr))

    def tlb_miss(self, vpn, cpu=None):
        self.events.append(("tlb_miss", vpn, cpu))


class TestResolverMatchesReference:
    """``CpuMemInterface.resolver`` against the per-reference body it
    replaced (``tests/classify_reference.py``)."""

    def _iface(self, entries, seeds):
        """A tiny one-node interface (``entries == 0``: no TLB) with
        *seeds* planted in its caches and MSHRs."""
        scale = TINY_SCALE
        if entries:
            scale = replace(scale, tlb=TlbGeometry(
                entries=entries, page_bytes=scale.tlb.page_bytes))
        config = simos_mipsy(150) if entries else solo_mipsy(150)
        machine = Machine(config, 1, scale)
        iface = machine.ifaces[0]
        for page, line, state1, state2, in_flight in seeds:
            paddr = iface.page_table.translate(self._vaddr(page, line), 0)
            if state2 is not None:
                iface.l2.fill(paddr >> iface.l2.line_shift, state2)
            if state1 is not None:
                iface.l1d.fill(paddr >> iface.l1d.line_shift, state1)
            if in_flight:
                self._issue(machine, iface, paddr)
        return machine, iface

    def _vaddr(self, page, line):
        return (DATA_BASE + page * TINY_SCALE.tlb.page_bytes
                + line * TINY_SCALE.l1d.line_bytes)

    @staticmethod
    def _issue(machine, iface, paddr):
        """What ``issue_miss`` leaves behind, without a memory system."""
        iface._mshr.setdefault(paddr >> iface.l2.line_shift,
                               machine.env.event())

    @staticmethod
    def _portable(iface, outcome, payload, kind, tlb_miss):
        if outcome == PENDING:
            # Events differ by machine; the line they stand for must not.
            payload = next(line for line, event in iface._mshr.items()
                           if event is payload)
        return (outcome, payload, kind, tlb_miss)

    @_SETTINGS
    @given(st.integers(0, 8).filter(lambda n: n != 1),
           st.lists(_seeds, max_size=12),
           st.lists(st.one_of(st.lists(_refs, min_size=1, max_size=12),
                              _revisit_rows()),
                    min_size=1, max_size=6))
    def test_same_events_state_and_counter_order(self, entries, seeds, rows):
        """Three identical interfaces: the oracle and ``classify`` (the
        resolver's one-slot spelling) take one reference at a time, the
        resolver takes whole rows the way the cores drive it.  Each side
        feeds its own probe log."""
        (ref_machine, ref_iface), (one_machine, one_iface), (machine, iface) = (
            self._iface(entries, seeds) for _ in range(3))
        ref_log, one_log, log = _MissLog(), _MissLog(), _MissLog()
        for refs in rows:
            row = [self._vaddr(page, line) for page, line, _op in refs]
            kinds = [op for _page, _line, op in refs]

            # The core would see the references that are not a HIT/NOOP
            # or that missed the TLB.
            expected = []
            for slot, (vaddr, op) in enumerate(zip(row, kinds)):
                with obs_hooks.observing(ref_log):
                    result = classify_reference.classify(ref_iface, vaddr, op)
                with obs_hooks.observing(one_log):
                    single = one_iface.classify(vaddr, op)
                assert (self._portable(one_iface, *single)
                        == self._portable(ref_iface, *result))
                if result[0] not in (HIT, NOOP) or result[3]:
                    expected.append(
                        (slot,) + self._portable(ref_iface, *result))
                if result[0] == MISS:
                    self._issue(ref_machine, ref_iface, result[1])
                    self._issue(one_machine, one_iface, single[1])

            # Every slot the resolver skips is one the oracle called a
            # plain HIT/NOOP, since the two event lists match.
            resolve = iface.resolver(kinds)
            events, j = [], 0
            while True:
                with obs_hooks.observing(log):
                    j, *event = resolve(row, j)
                if j == len(row):
                    break
                events.append((j,) + self._portable(iface, *event))
                if event[0] == MISS:
                    self._issue(machine, iface, event[1])
                j += 1
            assert events == expected
        # The probe saw the same L1/L2 misses and TLB misses, in order.
        assert one_log.events == ref_log.events
        assert log.events == ref_log.events

        # json.dumps keeps list *and* dict order: TLB LRU, per-set L1/L2
        # recency and states, MSHR lines, page first touch, and every
        # CounterSet's first-touch key order must all agree.
        for other_machine, other in ((one_machine, one_iface),
                                     (machine, iface)):
            assert (json.dumps(other.snapshot())
                    == json.dumps(ref_iface.snapshot()))
            assert (json.dumps(other_machine.page_table.snapshot())
                    == json.dumps(ref_machine.page_table.snapshot()))
            # The snapshot keeps the TLB's keys; its entries are offsets.
            if entries:
                assert (list(other.tlb._map.items())
                        == list(ref_iface.tlb._map.items()))
        if entries:
            shift = ref_iface.page_table.page_shift
            for vpn, offset in ref_iface.tlb._map.items():
                frame = ref_iface.page_table.frame_of(vpn)
                assert offset == (frame - vpn) << shift


class TestAllocatorProperties:
    @_SETTINGS
    @given(st.lists(st.tuples(st.integers(0, 5000), st.integers(0, 3)),
                    min_size=1, max_size=200, unique_by=lambda t: t[0]))
    def test_frames_unique_and_in_node_range(self, touches):
        for cls in (IrixColoringAllocator, SoloSequentialAllocator):
            alloc = cls(TINY_SCALE, n_nodes=4)
            frames = set()
            for vpn, node in touches:
                pfn = alloc.allocate(vpn, node)
                assert pfn not in frames
                frames.add(pfn)
                assert pfn // alloc.frames_per_node == node

    @_SETTINGS
    @given(st.lists(st.integers(0, 5000), min_size=1, max_size=200,
                    unique=True))
    def test_irix_color_invariant(self, vpns):
        alloc = IrixColoringAllocator(TINY_SCALE, n_nodes=1)
        for vpn in vpns:
            pfn = alloc.allocate(vpn, 0)
            assert pfn % alloc.n_colors == vpn % alloc.n_colors


class TestEngineProperties:
    @_SETTINGS
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=60))
    def test_timeouts_fire_in_nondecreasing_order(self, delays):
        env = Engine()
        fired = []

        def waiter(delay):
            yield env.timeout(delay)
            fired.append(env.now)

        for delay in delays:
            env.process(waiter(delay))
        env.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @_SETTINGS
    @given(st.lists(st.integers(1, 50), min_size=1, max_size=40),
           st.integers(1, 4))
    def test_resource_conserves_capacity(self, holds, capacity):
        env = Engine()
        res = Resource(env, "r", capacity=capacity)
        grants = []
        walks = [hold_walk(env, res, hold, txn=GrantLog(res, grants, tag))
                 for tag, hold in enumerate(holds)]
        env.run()
        assert all(walk.fired for walk in walks)
        assert res.in_use == 0
        in_use = [units for _tag, _now, _waited, units in grants]
        assert len(in_use) == len(holds)
        assert 0 < min(in_use) and max(in_use) <= capacity
        # Work conservation: total time >= sum(holds)/capacity.
        assert env.now >= sum(holds) / capacity - 1


# -- farm identity layer (cache keys, result serialization) ----------------

_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**40, 2**40),
    st.floats(allow_nan=False), st.text(max_size=12))
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=16)


def _reorder(value):
    """The same value with every mapping's insertion order reversed."""
    if isinstance(value, dict):
        return {k: _reorder(v) for k, v in reversed(list(value.items()))}
    if isinstance(value, list):
        return [_reorder(v) for v in value]
    return value


class TestCanonicalProperties:
    """The cache-key layer: equal content must hash equally, always."""

    @_SETTINGS
    @given(st.dictionaries(st.text(max_size=6), _json_values, max_size=5))
    def test_mapping_order_is_irrelevant(self, mapping):
        assert stable_hash(_reorder(mapping)) == stable_hash(mapping)

    @_SETTINGS
    @given(_json_values)
    def test_canonical_form_is_deterministic_and_json(self, value):
        canon = canonicalize(value)
        assert canon == canonicalize(value)
        assert json.loads(json.dumps(canon, sort_keys=True)) == canon

    @_SETTINGS
    @given(st.floats(allow_nan=False))
    def test_float_repr_permutations_hash_equal(self, x):
        # Any textual form that parses back to the same float must produce
        # the same content address (canonicalize hashes float.hex(), not
        # whatever repr the producer happened to use).
        assert stable_hash(float(repr(x))) == stable_hash(x)
        assert stable_hash(float(f"{x:.17g}")) == stable_hash(x)

    @_SETTINGS
    @given(st.floats(allow_nan=False), st.floats(allow_nan=False))
    def test_distinct_floats_hash_distinct(self, a, b):
        if a != b:
            assert stable_hash(a) != stable_hash(b)


_names = st.text(min_size=1, max_size=10)
_spans = st.dictionaries(
    _names,
    st.tuples(st.integers(0, 2**50), st.integers(0, 2**50)),
    max_size=4)
_stats = st.dictionaries(_names, st.floats(allow_nan=False), max_size=6)


class TestRunResultRoundTrip:
    @_SETTINGS
    @given(_spans, _stats, st.integers(0, 2**50),
           st.floats(min_value=0, max_value=1e15))
    def test_dict_round_trip_is_exact(self, spans, stats, total, instrs):
        result = RunResult(
            config_name="cfg", workload_name="wl", n_cpus=4,
            scale_name="tiny", total_ps=total, phase_spans_ps=spans,
            instructions=instrs, stats=stats)
        assert RunResult.from_dict(result.to_dict()) == result
        # ... and through an actual JSON byte stream (the on-disk cache).
        wire = json.loads(json.dumps(result.to_dict()))
        assert RunResult.from_dict(wire) == result


class TestScheduleProperties:
    @_SETTINGS
    @given(st.lists(st.sampled_from([Op.IALU, Op.FADD, Op.FMUL, Op.IMUL]),
                    min_size=1, max_size=40),
           st.integers(0, 7))
    def test_schedule_bounds(self, ops, n_regs_used):
        n = len(ops)
        dst = [1 + (i % (n_regs_used + 1)) for i in range(n)]
        src1 = [NO_REG] * n
        src2 = [NO_REG] * n
        chunk = Chunk("prop", [int(op) for op in ops], dst, src1, src2)
        timing = CoreTiming(
            key=f"prop/{n_regs_used}", width=4, window=32,
            latency={int(op): lat for op, lat in R10K_LATENCY.items()})
        sched = schedule_chunk(chunk, timing)
        # Bandwidth lower bound and trivial upper bound (serial execution).
        assert sched.steady_cycles >= n / 4 - 1
        assert sched.steady_cycles <= sum(
            R10K_LATENCY[Op(int(op))] for op in ops) + n
