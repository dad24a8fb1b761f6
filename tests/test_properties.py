"""Property-based tests (hypothesis) on the core data structures."""

import json
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.canonical import canonicalize, stable_hash
from repro.common.config import CacheGeometry, TINY_SCALE, TlbGeometry
from repro.sim.results import RunResult
from repro.engine import Engine, Resource
from repro.isa.opcodes import NO_REG, Op
from repro.isa.chunk import Chunk
from repro.isa.schedule import CoreTiming, schedule_chunk
from repro.isa.opcodes import R10K_LATENCY
from repro.mem.cache import MODIFIED, SHARED, SetAssocCache
from repro.mem.tlb import Tlb
from repro.sim import Machine, simos_mipsy
from repro.vm.allocators import IrixColoringAllocator, SoloSequentialAllocator

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
            if not tlb.lookup(vpn):
                tlb.insert(vpn)
            assert len(tlb) <= entries
            assert vpn in tlb

    @_SETTINGS
    @given(st.lists(st.integers(0, 200), min_size=1, max_size=300),
           st.integers(2, 32))
    def test_inlined_classify_path_matches_reference(self, vpns, entries):
        """The simulator never calls ``Tlb.lookup``/``insert``:
        ``CpuMemInterface.classify`` carries an inlined copy (one
        translation per data reference).  The methods are the reference
        that copy must agree with -- resident set, LRU order, counters."""
        page = TINY_SCALE.tlb.page_bytes
        scale = replace(TINY_SCALE,
                        tlb=TlbGeometry(entries=entries, page_bytes=page))
        iface = Machine(simos_mipsy(150), 1, scale).ifaces[0]
        reference = Tlb(scale.tlb)
        for vpn in vpns:
            hit = reference.lookup(vpn)
            if not hit:
                reference.insert(vpn)
            tlb_miss = iface.classify(vpn * page + 8, int(Op.LOAD))[3]
            assert tlb_miss == (not hit)
        # Oldest-first, so equal lists mean equal LRU order.
        assert (iface.tlb.ckpt_state()["vpns"]
                == reference.ckpt_state()["vpns"])
        for counter in ("misses", "evictions"):
            assert iface.tlb.stats[counter] == reference.stats[counter]
        assert reference.stats["misses"] >= len(set(vpns))


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
        peak = [0]

        def user(hold):
            yield res.acquire()
            peak[0] = max(peak[0], res.in_use)
            assert res.in_use <= capacity
            yield env.timeout(hold)
            res.release()

        for hold in holds:
            env.process(user(hold))
        env.run()
        assert res.in_use == 0
        assert peak[0] <= capacity
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
