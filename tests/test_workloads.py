"""Workload structure tests: trace well-formedness, determinism, regimes."""

import types

import numpy as np
import pytest

from repro.common.config import REPRO_SCALE, TINY_SCALE
from repro.common.errors import WorkloadError
from repro.isa.chunk import Chunk
from repro.isa.opcodes import NO_REG, Op
from repro.isa.trace import Barrier, ChunkExec, PhaseMark
from repro.workloads import (
    FftWorkload,
    LuWorkload,
    OceanWorkload,
    RadixWorkload,
    app_suite,
    make_app,
    pathological_radix,
    tuned_radix,
)
from repro.workloads.microbench import DependentLoads, TlbTimer

from tests import builder_reference as reference

ALL_WORKLOADS = [
    lambda: FftWorkload(TINY_SCALE, blocking="cache"),
    lambda: FftWorkload(TINY_SCALE, blocking="tlb"),
    lambda: RadixWorkload(TINY_SCALE, radix=tuned_radix(TINY_SCALE)),
    lambda: LuWorkload(TINY_SCALE),
    lambda: OceanWorkload(TINY_SCALE, iterations=2),
]


def barrier_sequence(trace):
    return [item.bid for item in trace if isinstance(item, Barrier)]


def total_instructions(trace):
    return sum(item.n_instructions for item in trace
               if isinstance(item, ChunkExec))


@pytest.mark.parametrize("factory", ALL_WORKLOADS)
class TestTraceWellFormedness:
    def test_every_cpu_sees_same_barriers(self, factory):
        workload = factory()
        for n_cpus in (1, 4):
            traces = workload.build(n_cpus)
            sequences = [barrier_sequence(t) for t in traces]
            assert all(seq == sequences[0] for seq in sequences)

    def test_parallel_phase_marked(self, factory):
        traces = factory().build(2)
        marks = [i for i in traces[0] if isinstance(i, PhaseMark)]
        assert any(m.begin for m in marks) and any(not m.begin for m in marks)

    def test_deterministic(self, factory):
        a, b = factory(), factory()
        ta, tb = a.build(2), b.build(2)
        for trace_a, trace_b in zip(ta, tb):
            execs_a = [i for i in trace_a if isinstance(i, ChunkExec)]
            execs_b = [i for i in trace_b if isinstance(i, ChunkExec)]
            assert len(execs_a) == len(execs_b)
            for ea, eb in zip(execs_a, execs_b):
                if ea.addrs is not None:
                    assert (ea.addrs == eb.addrs).all()

    def test_work_divides_across_cpus(self, factory):
        workload = factory()
        one = sum(total_instructions(t) for t in workload.build(1))
        four = sum(total_instructions(t) for t in workload.build(4))
        assert four == pytest.approx(one, rel=0.25)

    def test_addresses_are_positive(self, factory):
        for trace in factory().build(2):
            for item in trace:
                if isinstance(item, ChunkExec) and item.addrs is not None:
                    assert (item.addrs > 0).all()


class TestFft:
    def test_blocking_modes_differ_only_in_transpose(self):
        cache = FftWorkload(TINY_SCALE, blocking="cache")
        tlb = FftWorkload(TINY_SCALE, blocking="tlb")
        assert cache.block > tlb.block
        assert cache.points == tlb.points

    def test_cache_block_exceeds_tlb(self):
        wl = FftWorkload(TINY_SCALE, blocking="cache")
        # The LRU cliff requires store pages + read page > TLB entries.
        assert wl.block + 1 > TINY_SCALE.tlb.entries

    def test_rows_must_divide(self):
        with pytest.raises(WorkloadError):
            FftWorkload(TINY_SCALE, rows=100)  # not multiple of rep width


class TestRadix:
    def test_positions_are_permutations(self):
        wl = RadixWorkload(TINY_SCALE, radix=8)
        for pos in wl.positions:
            assert sorted(pos.tolist()) == list(range(wl.n_keys))

    def test_pass1_sorts_by_low_digit(self):
        wl = RadixWorkload(TINY_SCALE, radix=8)
        d0 = wl.digits[0]
        out = np.empty(wl.n_keys, dtype=np.int64)
        out[wl.positions[0]] = d0
        assert (np.diff(out) >= 0).all()

    def test_radix_must_be_power_of_two(self):
        with pytest.raises(WorkloadError):
            RadixWorkload(TINY_SCALE, radix=24)

    def test_scaled_radix_values(self):
        assert pathological_radix(TINY_SCALE) == 4 * TINY_SCALE.tlb.entries
        assert tuned_radix(TINY_SCALE) == TINY_SCALE.tlb.entries // 2


def reference_build(workload, n_cpus):
    """``workload.build(n_cpus)`` through the loop-form address builders
    of ``tests/builder_reference.py``."""
    if isinstance(workload, FftWorkload):
        workload._transpose_addrs = types.MethodType(
            reference.transpose_addrs, workload)
    else:
        workload._hist_addrs = (
            lambda cpu, n, pass_no, *_: reference.hist_addrs(
                workload, cpu, n, pass_no))
        workload._permute_addrs = (
            lambda cpu, n, pass_no, *_: reference.permute_addrs(
                workload, cpu, n, pass_no))
    return workload.build(n_cpus)


def assert_analysis_matches(chunk):
    chase = reference.find_pointer_chases(chunk)
    assert chunk.pointer_chase.dtype == chase.dtype
    assert np.array_equal(chunk.pointer_chase, chase)
    assert chunk.interlock_pairs == reference.count_interlock_pairs(chunk)


BUILDERS = [
    *[pytest.param(lambda scale, b=blocking: FftWorkload(scale, blocking=b),
                   id=f"fft-{blocking}") for blocking in ("cache", "tlb")],
    *[pytest.param(lambda scale, s=seed: RadixWorkload(scale, seed=s),
                   id=f"radix-seed{seed}") for seed in (1, 2)],
]


class TestBuildersMatchReference:
    """The vectorised trace builders return, array for array, what the
    loop-form builders they replaced return."""

    @pytest.mark.parametrize("n_cpus", [1, 2, 4, 16])
    @pytest.mark.parametrize("scale", [TINY_SCALE, REPRO_SCALE],
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("factory", BUILDERS)
    def test_every_address_array_equals_the_reference(self, factory, scale,
                                                      n_cpus):
        built = factory(scale).build(n_cpus)
        expected = reference_build(factory(scale), n_cpus)
        compared = 0
        for trace, ref_trace in zip(built, expected, strict=True):
            for item, ref in zip(trace, ref_trace, strict=True):
                assert type(item) is type(ref)
                if isinstance(item, ChunkExec):
                    assert item.chunk.name == ref.chunk.name
                    assert item.addrs.dtype == ref.addrs.dtype
                    assert item.addrs.shape == ref.addrs.shape
                    assert np.array_equal(item.addrs, ref.addrs)
                    compared += 1
        assert compared >= 4 * n_cpus

    @pytest.mark.parametrize("factory", ALL_WORKLOADS + [
        lambda: DependentLoads("local_clean", TINY_SCALE),
        lambda: TlbTimer(TINY_SCALE)])
    def test_chunk_analysis_equals_the_reference(self, factory):
        chunks = {item.chunk.uid: item.chunk
                  for trace in factory().build(4) for item in trace
                  if isinstance(item, ChunkExec)}
        assert chunks
        for chunk in chunks.values():
            assert_analysis_matches(chunk)

    def test_random_chunk_analysis_equals_the_reference(self):
        # Few registers and a short mix, so chases, wraparound chases and
        # pairs at the interlock window's edge all occur.
        rng = np.random.default_rng(7)
        kinds = [int(op) for op in (Op.IALU, Op.LOAD, Op.STORE,
                                    Op.PREFETCH, Op.BRANCH)]
        for n in rng.integers(1, 40, size=300):
            dst, src1, src2 = rng.integers(NO_REG, 4, size=(3, n))
            assert_analysis_matches(Chunk(
                "random", rng.choice(kinds, size=n), dst, src1, src2))

    def test_radix_build_keeps_no_array(self):
        workload = RadixWorkload(TINY_SCALE)

        def arrays():
            found = set()
            for value in vars(workload).values():
                for part in value if isinstance(value, tuple) else (value,):
                    if isinstance(part, np.ndarray):
                        found.add(id(part))
            return found

        names, held = set(vars(workload)), arrays()
        workload.build(16)
        assert set(vars(workload)) == names
        assert arrays() == held


class TestLu:
    def test_ownership_covers_all_blocks(self):
        wl = LuWorkload(TINY_SCALE)
        for n_cpus in (1, 4):
            owners = {wl.owner(i, j, n_cpus)
                      for i in range(wl.nb) for j in range(wl.nb)}
            assert owners == set(range(n_cpus))

    def test_block_size_divides(self):
        with pytest.raises(WorkloadError):
            LuWorkload(TINY_SCALE, n=100)


class TestOcean:
    def test_grids_at_color_period(self):
        wl = OceanWorkload(TINY_SCALE)
        way_bytes = TINY_SCALE.l2.size_bytes // TINY_SCALE.l2.assoc
        assert wl.ga.size == way_bytes
        assert wl.gb.size == way_bytes
        assert wl.q.size == way_bytes

    def test_sweeps_touch_interior_only(self):
        wl = OceanWorkload(TINY_SCALE, iterations=1)
        addrs = wl._sweep_addrs(range(wl.n), color=0)
        north = addrs[:, 1]
        assert (north >= wl.q.base).all()
        south = addrs[:, 2]
        assert (south < wl.q.end).all()


class TestMicrobenchWorkloads:
    def test_dependent_loads_requires_four_cpus(self):
        wl = DependentLoads("local_clean", TINY_SCALE, n_loads=16)
        with pytest.raises(WorkloadError):
            wl.build(2)

    def test_unknown_case_rejected(self):
        with pytest.raises(WorkloadError):
            DependentLoads("remote_mystery", TINY_SCALE)

    def test_dirty_case_bounded_by_owner_l2(self):
        too_many = TINY_SCALE.l2.size_bytes // TINY_SCALE.l2.line_bytes + 10
        with pytest.raises(WorkloadError):
            DependentLoads("remote_dirty_home", TINY_SCALE, n_loads=too_many)

    def test_tlb_timer_spans_twice_the_reach(self):
        wl = TlbTimer(TINY_SCALE)
        assert wl.pages == 2 * TINY_SCALE.tlb.entries


class TestRegistry:
    def test_suite_has_four_apps(self):
        suite = app_suite(TINY_SCALE, tuned_inputs=True)
        assert len(suite) == 4

    def test_tuned_inputs_switch(self):
        initial = make_app("fft", TINY_SCALE, tuned_inputs=False)
        fixed = make_app("fft", TINY_SCALE, tuned_inputs=True)
        assert initial.blocking == "cache" and fixed.blocking == "tlb"

    def test_unknown_app_rejected(self):
        with pytest.raises(WorkloadError):
            make_app("barnes", TINY_SCALE)
