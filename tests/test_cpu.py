"""Processor-model behaviour tests (tiny scale, hand-built workloads)."""

import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.common.config import TINY_SCALE
from repro.common.stats import CounterSet
from repro.isa.trace import Barrier, ChunkExec, PhaseMark
from repro.sim import hardware_config, run_workload, simos_mipsy, simos_mxs, solo_mipsy
from repro.sim.machine import Machine
from repro.validation.bugs import CACHEOP_BUG, FAST_ISSUE_BUG
from repro.vm.layout import VirtualLayout
from repro.workloads.base import Workload
from repro.workloads.builder import ChunkBuilder
from repro.workloads.registry import make_app
from tests.test_golden import refresh_goldens

LINE = TINY_SCALE.l2.line_bytes
PAGE = TINY_SCALE.tlb.page_bytes


class _OneCpuWorkload(Workload):
    """Wraps a hand-built trace for CPU 0; other CPUs idle."""

    name = "probe"

    def __init__(self, items):
        super().__init__(TINY_SCALE)
        self._items = items

    def problem_description(self):
        return "hand-built probe"

    def build(self, n_cpus):
        trace = [PhaseMark(PhaseMark.PARALLEL, True)]
        trace.extend(self._items)
        trace.append(PhaseMark(PhaseMark.PARALLEL, False))
        return [trace] + [[] for _ in range(n_cpus - 1)]


def _stream_load_items(n_lines, compute_ops=0, prefetch=False):
    b = ChunkBuilder("probe/stream")
    if prefetch:
        b.prefetch()
    b.load(1)
    for i in range(compute_ops):
        b.ialu(2 + (i % 4), 2 + (i % 4))
    chunk = b.build()
    layout = VirtualLayout(PAGE)
    region = layout.add("buf", (n_lines + 2) * LINE)
    lines = region.base + np.arange(n_lines, dtype=np.int64) * LINE
    if prefetch:
        rows = np.stack([lines + LINE, lines], axis=1)
    else:
        rows = lines.reshape(-1, 1)
    return [ChunkExec(chunk, rows)]


def _run(config, items, n_cpus=1):
    return run_workload(config, _OneCpuWorkload(items), n_cpus)


class TestMipsy:
    def test_pure_compute_is_one_ipc(self):
        b = ChunkBuilder("compute")
        for i in range(64):
            b.ialu(1 + (i % 8), 1 + (i % 8))
        items = [ChunkExec(b.build(), reps=100)]
        result = _run(simos_mipsy(150), items)
        cycles = result.parallel_ps / simos_mipsy(150).core.clock.cycle_ps
        assert cycles == pytest.approx(6400, rel=0.15)

    def test_scaled_clock_runs_proportionally_faster(self):
        b = ChunkBuilder("c2")
        for i in range(32):
            b.fadd(1 + (i % 8), 1 + (i % 8))
        chunk = b.build()
        t150 = _run(simos_mipsy(150), [ChunkExec(chunk, reps=500)])
        t300 = _run(simos_mipsy(300), [ChunkExec(chunk, reps=500)])
        assert t150.parallel_ps == pytest.approx(2 * t300.parallel_ps, rel=0.02)

    def test_blocking_loads_pay_full_miss_latency(self):
        result = _run(simos_mipsy(150), _stream_load_items(64))
        ns_per_load = result.parallel_ps / 64 / 1000
        assert ns_per_load > 300  # each L2 miss fully exposed

    def test_prefetching_hides_read_latency(self):
        plain = _run(simos_mipsy(150), _stream_load_items(64, compute_ops=60))
        with_pf = _run(simos_mipsy(150),
                       _stream_load_items(64, compute_ops=60, prefetch=True))
        assert with_pf.parallel_ps < 0.8 * plain.parallel_ps

    def test_mipsy_ignores_instruction_latencies(self):
        b = ChunkBuilder("divs")
        for _ in range(16):
            b.idiv(1, 1)
        items = [ChunkExec(b.build(), reps=200)]
        result = _run(simos_mipsy(150), items)
        cycles = result.parallel_ps / simos_mipsy(150).core.clock.cycle_ps
        assert cycles < 2 * 16 * 200  # ~1 cycle each, not 19

    def test_instruction_latency_switch_charges_divides(self):
        b = ChunkBuilder("divs2")
        for _ in range(16):
            b.idiv(1, 1)
        chunk = b.build()
        base_cfg = simos_mipsy(150)
        lat_cfg = base_cfg.derive(
            "-lat",
            core=replace(base_cfg.core, model_instruction_latencies=True))
        base = _run(base_cfg, [ChunkExec(chunk, reps=200)])
        lat = _run(lat_cfg, [ChunkExec(chunk, reps=200)])
        assert lat.parallel_ps > 10 * base.parallel_ps

    def test_tlb_refill_cost_charged(self):
        # Loads striding pages, data cache-resident after warm pass.
        b = ChunkBuilder("tlbp")
        b.load(1)
        chunk = b.build()
        layout = VirtualLayout(PAGE)
        region = layout.add("buf", 2 * TINY_SCALE.tlb.entries * PAGE)
        pages = region.base + np.arange(
            2 * TINY_SCALE.tlb.entries, dtype=np.int64) * PAGE
        rows = np.tile(pages, 50).reshape(-1, 1)
        warm = [ChunkExec(chunk, pages.reshape(-1, 1))]
        simos = _run(simos_mipsy(150), warm + [ChunkExec(chunk, rows)])
        solo = _run(solo_mipsy(150), warm + [ChunkExec(chunk, rows)])
        assert simos.parallel_ps > 3 * solo.parallel_ps  # Solo: no TLB


class TestWindowCore:
    def test_exploits_ilp(self):
        b = ChunkBuilder("ilp")
        for i in range(64):
            b.fadd(1 + (i % 8), 1 + (i % 8))
        items = [ChunkExec(b.build(), reps=200)]
        mipsy = _run(simos_mipsy(150), items)
        mxs = _run(simos_mxs(), items)
        assert mxs.parallel_ps < 0.7 * mipsy.parallel_ps

    def test_r10k_slower_than_mxs_on_compute(self):
        # The implementation-constraint derate: MXS lacks it (Section 3.1.3).
        b = ChunkBuilder("ilp2")
        for i in range(64):
            b.fadd(1 + (i % 8), 1 + (i % 8))
        items = [ChunkExec(b.build(), reps=300)]
        hw = _run(hardware_config(), items)
        mxs = _run(simos_mxs(tuned=True), items)
        assert mxs.parallel_ps < hw.parallel_ps

    def test_overlaps_independent_misses(self):
        loads = _stream_load_items(64)
        mipsy = _run(simos_mipsy(150), loads)
        mxs = _run(simos_mxs(), _stream_load_items(64))
        assert mxs.parallel_ps < mipsy.parallel_ps

    def test_dependent_chain_not_overlapped(self):
        b = ChunkBuilder("chase")
        b.load(1, addr_reg=1)
        chunk = b.build()
        layout = VirtualLayout(PAGE)
        region = layout.add("buf", 66 * LINE)
        lines = region.base + np.arange(64, dtype=np.int64) * LINE
        chase = [ChunkExec(chunk, lines.reshape(-1, 1))]
        result = _run(simos_mxs(), chase)
        ns_per_load = result.parallel_ps / 64 / 1000
        assert ns_per_load > 300  # pointer chases expose full latency

    def test_fast_issue_bug_speeds_up_compute(self):
        b = ChunkBuilder("bugged")
        for i in range(64):
            b.fadd(1 + (i % 4), 1 + (i % 4))
        items = [ChunkExec(b.build(), reps=300)]
        clean = _run(simos_mxs(), items)
        buggy = _run(FAST_ISSUE_BUG.inject(simos_mxs()), items)
        assert buggy.parallel_ps < clean.parallel_ps

    def test_cacheop_bug_stalls(self):
        b = ChunkBuilder("cop")
        b.cacheop()
        chunk = b.build()
        addr = np.array([[0x100]], dtype=np.int64)
        clean = _run(simos_mxs(), [ChunkExec(chunk, addr)])
        buggy = _run(CACHEOP_BUG.inject(simos_mxs()), [ChunkExec(chunk, addr)])
        extra_cycles = (buggy.parallel_ps - clean.parallel_ps) / 6667
        assert extra_cycles == pytest.approx(1_000_000, rel=0.05)


class TestWriteBufferBehaviour:
    def test_store_stream_faster_than_load_stream(self):
        # Stores retire through the write buffer; loads block.
        b_st = ChunkBuilder("stores")
        b_st.store(value_reg=1)
        b_ld = ChunkBuilder("loads")
        b_ld.load(1)
        layout = VirtualLayout(PAGE)
        region = layout.add("buf", 130 * LINE)
        lines = region.base + np.arange(128, dtype=np.int64) * LINE
        stores = [ChunkExec(b_st.build(), lines.reshape(-1, 1))]
        loads = [ChunkExec(b_ld.build(), lines.reshape(-1, 1))]
        t_st = _run(simos_mipsy(150), stores)
        t_ld = _run(simos_mipsy(150), loads)
        assert t_st.parallel_ps < t_ld.parallel_ps


class TestRowPathCallCount:
    """Counts repeat exactly where timings do not: a plain hit may cost
    no Python-level call and an all-hit row no generator."""

    @staticmethod
    def _calls(config, rows):
        """Python-level ``call`` events (function entries and generator
        resumes) while the engine runs a resident loop of *rows* rows."""
        machine = Machine(config, 1, TINY_SCALE)
        machine.begin(refresh_goldens.ResidentRows(TINY_SCALE, rows=rows))
        calls = 0

        def profile(_frame, event, _arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(profile)
        try:
            machine.advance()
        finally:
            sys.setprofile(None)
        stats = machine.finish().stats
        assert stats["l1d0.misses"] == 32       # the warm pass, nothing else
        return calls

    @pytest.mark.parametrize("config", [hardware_config(), simos_mipsy(150)],
                             ids=lambda config: config.name)
    def test_all_hit_rows_cost_at_most_two_calls_each(self, config):
        """500 more rows of 24 hits each add at most 2 calls per row (the
        row's one ``resolve``); placement, the warm pass and the trace's
        other items are the same in both runs and cancel.  Classifying
        each reference through methods costs over 100 per row."""
        extra = self._calls(config, 600) - self._calls(config, 100)
        assert 0 < extra <= 2 * 500


class TestCountingCallsNothing:
    def test_a_run_enters_no_counter_set_method(self):
        """Every model component bumps its counters in its set's dict,
        bound once: while a tiny fft at P=2 on ``hardware`` runs (TLB,
        L1, L2, remote misses and invalidations through MAGIC and the
        network, barriers), no ``CounterSet`` method is entered."""
        machine = Machine(hardware_config(), 2, TINY_SCALE)
        machine.begin(make_app("fft", TINY_SCALE))
        methods = {fn.__code__: name for name, fn in vars(CounterSet).items()
                   if hasattr(fn, "__code__")}
        entered = set()

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code in methods:
                entered.add(methods[frame.f_code])

        sys.setprofile(profile)
        try:
            machine.advance()
        finally:
            sys.setprofile(None)
        stats = machine.finish().stats
        assert entered == set()
        for counter in ("tlb0.misses", "l1d1.misses", "l21.hits",
                        "l20.misses", "memsys.case_remote_clean",
                        "memsys.invalidations_sent", "cpu1.barriers",
                        "iface0.issued_read"):
            assert stats[counter] > 0, counter
