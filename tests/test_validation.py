"""Validation-framework tests: metrics, comparison, tuning, bugs, reports."""

import pytest

from repro.common.config import REPRO_SCALE, TINY_SCALE
from repro.sim import hardware_config, simos_mipsy, simos_mxs
from repro.validation import (
    CACHEOP_BUG,
    CacheFlushWorkload,
    FAST_ISSUE_BUG,
    Tuner,
    compare_simulators,
    demonstrate_bug,
    get_bug,
    mean_abs_percent_error,
    percent_error,
    rank_order_preserved,
    relative_time,
    speedup,
    speedup_study,
    trend_agreement,
)
from repro.obs.doc import sparkline
from repro.validation.report import bar_chart, line_chart
from repro.workloads import make_app


class TestMetrics:
    def test_relative_time(self):
        assert relative_time(50, 100) == 0.5
        with pytest.raises(ValueError):
            relative_time(1, 0)

    def test_percent_error_signs(self):
        assert percent_error(80, 100) == pytest.approx(-20.0)
        assert percent_error(130, 100) == pytest.approx(30.0)

    def test_mean_abs_percent_error(self):
        assert mean_abs_percent_error([(80, 100), (120, 100)]) == pytest.approx(20.0)
        with pytest.raises(ValueError):
            mean_abs_percent_error([])

    def test_speedup_needs_uniprocessor(self):
        assert speedup({1: 100, 4: 25}) == {1: 1.0, 4: 4.0}
        with pytest.raises(ValueError):
            speedup({2: 50, 4: 25})

    def test_trend_agreement_zero_when_identical(self):
        curve = {1: 1.0, 4: 3.5, 16: 9.0}
        assert trend_agreement(curve, curve) == 0.0
        off = {1: 1.0, 4: 3.5, 16: 13.5}
        assert trend_agreement(off, curve) == pytest.approx(0.25)

    def test_rank_order(self):
        assert rank_order_preserved([1.0, 2.0, 3.0], [10, 20, 30])
        assert not rank_order_preserved([1.0, 3.0, 2.0], [10, 20, 30])


class TestMetricsEdgeCases:
    """The inputs the attribution pipeline can feed the metrics."""

    def test_percent_error_zero_reference_raises_not_divides(self):
        with pytest.raises(ValueError):
            percent_error(100, 0)
        with pytest.raises(ValueError):
            percent_error(100, -5)

    def test_percent_error_near_zero_reference_is_finite(self):
        err = percent_error(1.0, 1e-9)
        assert err == pytest.approx(1e11)
        assert err != float("inf")

    def test_percent_error_zero_sim_is_minus_hundred(self):
        assert percent_error(0, 100) == pytest.approx(-100.0)

    def test_speedup_single_entry_is_the_trivial_curve(self):
        assert speedup({1: 123.0}) == {1: 1.0}

    def test_speedup_preserves_insertion_independent_order(self):
        curve = speedup({16: 10.0, 1: 100.0, 4: 30.0})
        assert list(curve) == [1, 4, 16]

    def test_trend_agreement_disjoint_counts_raise(self):
        with pytest.raises(ValueError):
            trend_agreement({1: 1.0, 4: 3.0}, {1: 1.0, 8: 5.0})

    def test_trend_agreement_only_p1_shared_raises(self):
        # P=1 is 1.0 by construction on both sides; agreement there says
        # nothing about the trend.
        with pytest.raises(ValueError):
            trend_agreement({1: 1.0, 4: 3.0}, {1: 1.0, 16: 9.0})

    def test_trend_agreement_uses_only_shared_points(self):
        sim = {1: 1.0, 4: 3.0, 64: 40.0}
        ref = {1: 1.0, 4: 4.0, 16: 9.0}
        assert trend_agreement(sim, ref) == pytest.approx(0.25)

    def test_mean_abs_percent_error_empty_raises(self):
        with pytest.raises(ValueError):
            mean_abs_percent_error(iter(()))

    def test_rank_order_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            rank_order_preserved([1.0, 2.0], [1.0, 2.0, 3.0])


class TestComparison:
    def test_compare_produces_rows_per_pair(self):
        table = compare_simulators(
            [simos_mipsy(150), simos_mipsy(300)],
            [make_app("lu", TINY_SCALE)],
            n_cpus=1,
        )
        assert len(table.rows) == 2
        faster = table.relative_of("lu", "simos-mipsy-300")
        slower = table.relative_of("lu", "simos-mipsy-150")
        assert faster < slower

    def test_format_contains_all_configs(self):
        table = compare_simulators(
            [simos_mipsy(150)], [make_app("lu", TINY_SCALE)],
            n_cpus=1,
        )
        text = table.format()
        assert "simos-mipsy-150" in text and "lu" in text


class TestTuner:
    def test_fit_converges_and_sets_tlb(self):
        tuned, report = Tuner(scale=REPRO_SCALE).fit(simos_mipsy(150))
        assert report.max_case_error() < 0.05
        assert tuned.core.tlb_refill_cycles > 50
        assert tuned.core.l2_port_occupancy_cycles > 5
        assert tuned.memsys != simos_mipsy(150).memsys

    def test_report_format_mentions_cases(self):
        _tuned, report = Tuner(scale=REPRO_SCALE).fit(simos_mipsy(150))
        text = report.format()
        assert "local_clean" in text and "TLB refill" in text


class TestBugs:
    def test_registry_lookup(self):
        assert get_bug("fast-issue") is FAST_ISSUE_BUG
        assert get_bug("cacheop-retry") is CACHEOP_BUG
        from repro.common.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            get_bug("heisenbug")

    def test_fast_issue_injection_changes_core(self):
        buggy = FAST_ISSUE_BUG.inject(simos_mxs())
        assert buggy.core.fast_issue_bug_factor < 1.0

    def test_cacheop_demonstration_distorts_time(self):
        demo = demonstrate_bug(
            CACHEOP_BUG, simos_mxs(),
            CacheFlushWorkload(TINY_SCALE, n_lines=32, flush_every=16,
                               compute_reps=50))
        assert demo.distortion > 0.5  # the 1M-cycle stalls dominate here


class TestTrendStudies:
    def test_speedup_study_shapes(self):
        study = speedup_study(
            [simos_mipsy(150)], make_app("lu", TINY_SCALE),
            cpu_counts=(1, 4))
        curve = study.curve_of("simos-mipsy-150")
        assert curve.at(1) == 1.0
        assert curve.at(4) > 1.5

    def test_trend_errors_require_reference(self):
        study = speedup_study(
            [simos_mipsy(150), simos_mipsy(300)],
            make_app("lu", TINY_SCALE), cpu_counts=(1, 4))
        errors = study.trend_errors("simos-mipsy-150")
        assert set(errors) == {"simos-mipsy-300"}


class TestReport:
    def test_bar_chart_contains_reference_tick(self):
        chart = bar_chart("t", ["a", "b"], [0.5, 1.5])
        assert "reference" in chart and "#" in chart

    def test_line_chart_renders_series(self):
        chart = line_chart("s", [1, 4], {"hw": {1: 1.0, 4: 3.9}})
        assert "hw" in chart and "(processors)" in chart

    def test_bar_chart_length_mismatch(self):
        with pytest.raises(ValueError):
            bar_chart("t", ["a"], [1.0, 2.0])

    def test_sparkline_spans_min_to_max(self):
        line = sparkline([1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█" and len(line) == 3

    def test_sparkline_flat_and_empty_series(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"
        assert sparkline([]) == ""
