"""Units, scales, stats, RNG utilities."""

import dataclasses

import pytest

from repro.common.config import (
    CacheGeometry,
    PAPER_SCALE,
    REPRO_SCALE,
    TINY_SCALE,
    TlbGeometry,
    get_scale,
)
from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng
from repro.common.stats import CounterSet, StatsRegistry
from repro.common.units import Clock, HW_CPU_CLOCK, HW_SYSTEM_CLOCK, ns_to_ps, ps_to_ns


class TestClock:
    def test_hardware_clocks_match_table1(self):
        assert HW_CPU_CLOCK.freq_mhz == 150.0
        assert HW_SYSTEM_CLOCK.freq_mhz == 75.0
        assert HW_CPU_CLOCK.cycle_ps == 6667

    def test_roundtrip(self):
        clock = Clock(225.0)
        cycles = 1000
        ps = clock.cycles_to_ps(cycles)
        assert clock.ps_to_cycles(ps) == pytest.approx(cycles, rel=1e-6)

    def test_scaled_clocks_proportional(self):
        assert Clock(300).cycle_ps == pytest.approx(Clock(150).cycle_ps / 2, abs=1)

    def test_ns_ps_conversion(self):
        assert ns_to_ps(50) == 50_000
        assert ps_to_ns(6667) == pytest.approx(6.667)


class TestScales:
    def test_registry(self):
        assert get_scale("repro") is REPRO_SCALE
        assert get_scale("paper") is PAPER_SCALE
        with pytest.raises(ConfigurationError):
            get_scale("medium")

    @pytest.mark.parametrize("scale", [PAPER_SCALE, REPRO_SCALE, TINY_SCALE])
    def test_regime_invariants(self, scale):
        # Every scale preserves the paper's regime: TLB reach below the L2,
        # L1 below the L2, at least two colors.
        assert scale.tlb.reach_bytes < scale.l2.size_bytes
        assert scale.l1d.size_bytes < scale.l2.size_bytes
        assert scale.l2_colors >= 2

    def test_paper_scale_is_table1(self):
        assert PAPER_SCALE.l2.size_bytes == 2 * 1024 * 1024
        assert PAPER_SCALE.tlb.entries == 64
        assert PAPER_SCALE.tlb.page_bytes == 4096

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(1000, 32, 2)   # not divisible
        with pytest.raises(ConfigurationError):
            CacheGeometry(1024, 33, 2)   # line not a power of two
        with pytest.raises(ConfigurationError):
            TlbGeometry(entries=8, page_bytes=300)

    def test_l1d_line_larger_than_l2_line_rejected(self):
        # Such a machine would build and run, with L2 evictions clearing
        # no L1 line and every fill mirrored into L1 line 0.
        with pytest.raises(ConfigurationError, match="L1d line .256 B."):
            dataclasses.replace(TINY_SCALE, l1d=CacheGeometry(1024, 256, 2))
        equal = dataclasses.replace(TINY_SCALE, l1d=CacheGeometry(1024, 128, 2))
        assert equal.l1d.line_bytes == equal.l2.line_bytes


class TestStats:
    def test_counterset_defaults(self):
        cs = CounterSet("x")
        cs.add("hits", 3)
        cs.add("misses")
        assert cs["hits"] == 3 and cs["absent"] == 0
        assert cs.get("misses") == 1 and "absent" not in cs

    def test_registry_flat_namespacing(self):
        reg = StatsRegistry()
        reg.counter_set("l1").add("misses", 4)
        reg.counter_set("l2").add("misses", 6)
        flat = reg.flat()
        assert flat == {"l1.misses": 4, "l2.misses": 6}

    def test_items_is_a_sorted_list(self):
        cs = CounterSet("x")
        cs.add("zeta")
        cs.add("alpha", 2)
        items = cs.items()
        assert isinstance(items, list)
        assert items == [("alpha", 2.0), ("zeta", 1.0)]
        # snapshot, in contrast, preserves insertion order.
        assert list(cs.snapshot()) == ["zeta", "alpha"]


class TestRng:
    def test_label_paths_independent(self):
        a = derive_rng("fft", 1)
        b = derive_rng("fft", 2)
        assert a.integers(0, 1 << 30) != b.integers(0, 1 << 30)

    def test_reproducible(self):
        assert (derive_rng("x").integers(0, 100, 16)
                == derive_rng("x").integers(0, 100, 16)).all()
