"""Tests for repro.obs.txn: end-to-end transaction tracing.

Three layers, mirroring test_obs_topo.py:

* the record/recorder/report API exercised directly (no simulation) for
  the exactness contract the design rests on -- segments partition the
  end-to-end latency, wait never exceeds its window, percentiles are
  deterministic integer arithmetic;
* hypothesis properties: arbitrary cut/wait sequences always sum to the
  end-to-end latency with residual zero, and histogram percentiles are
  monotone in the quantile;
* the whole pipeline against a real tiny-scale ``hardware`` run -- the
  acceptance criteria of the anatomy (residual zero across every
  transaction, remote-dirty p50 > remote-clean p50 > local p50) plus
  the bit-identity guarantee: a recording-enabled run equals a disabled
  run event for event.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import get_scale
from repro.common.errors import ConfigurationError
from repro.obs import hooks as obs_hooks
from repro.obs.txn import (
    EDGES,
    N_BUCKETS,
    Histogram,
    TxnRecord,
    TxnRecorder,
    TxnReport,
    build_report,
)
from repro.sim.configs import hardware_config
from repro.sim.machine import run_workload
from repro.validation.dashboard import payload_kind
from repro.workloads import make_app


@pytest.fixture(autouse=True)
def _nothing_observing():
    """Every test starts and ends with the probe slot empty."""
    assert obs_hooks.active is None
    yield
    assert obs_hooks.active is None


class TestHistogram:
    def test_edges_are_strictly_increasing(self):
        assert all(a < b for a, b in zip(EDGES, EDGES[1:]))
        assert len(EDGES) == N_BUCKETS

    def test_add_tracks_extremes_and_total(self):
        h = Histogram()
        for v in (5_000, 1_000, 9_000):
            h.add(v)
        assert h.count == 3
        assert h.min_ps == 1_000
        assert h.max_ps == 9_000
        assert h.total_ps == 15_000

    def test_percentiles_are_bucket_upper_edges(self):
        h = Histogram()
        h.add(1_500)     # falls in the first bucket whose edge >= 1500
        p50 = h.percentile_ps(50)
        assert p50 in EDGES
        assert p50 >= 1_500

    def test_percentile_monotone_in_quantile(self):
        h = Histogram()
        for v in (1_000, 2_000, 4_000, 8_000, 50_000):
            h.add(v)
        ps = [h.percentile_ps(q) for q in (1, 25, 50, 75, 90, 99, 100)]
        assert ps == sorted(ps)

    def test_overflow_bucket_reports_observed_max(self):
        h = Histogram()
        huge = EDGES[-1] * 10
        h.add(huge)
        assert h.counts[N_BUCKETS] == 1
        assert h.percentile_ps(50) == huge

    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile_ps(99) == 0

    @staticmethod
    def bucket_oracle(value_ps):
        """The hand-rolled search ``Histogram.add`` used before it called
        ``bisect_left``: first edge >= value, else the overflow index."""
        lo, hi = 0, N_BUCKETS
        while lo < hi:
            mid = (lo + hi) // 2
            if EDGES[mid] < value_ps:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def bucket_of(self, value_ps):
        h = Histogram()
        h.add(value_ps)
        assert sum(h.counts) == 1
        return h.counts.index(1)

    def test_bucket_matches_the_oracle_at_every_edge(self):
        probes = {0, EDGES[-1] * 3}
        for edge in EDGES:
            probes.update((edge - 1, edge, edge + 1))
        for value in sorted(probes):
            assert self.bucket_of(value) == self.bucket_oracle(value), value
        assert self.bucket_of(EDGES[0]) == 0
        assert self.bucket_of(EDGES[-1] + 1) == N_BUCKETS

    @given(st.integers(0, 2 ** 40))
    def test_bucket_matches_the_oracle_everywhere(self, value_ps):
        assert self.bucket_of(value_ps) == self.bucket_oracle(value_ps)


class TestTxnRecord:
    def rec(self, kind="read"):
        return TxnRecord(0, node=1, home=0, paddr=0, kind=kind,
                         origin="demand")

    def test_segments_partition_latency(self):
        r = self.rec()
        r.begin(100)
        r.cut("bus_req", 150)
        r.cut("net_req", 400)
        r.close(400, "remote_clean")
        assert r.latency_ps == 300
        assert sum(w + s for _n, w, s in r.segments) == 300
        assert r.residual_ps == 0

    def test_wait_splits_out_of_service(self):
        r = self.rec()
        r.begin(0)
        r.add_wait("magic0.pp", 30)
        r.cut("pp_home", 100)
        assert r.segments == [["pp_home", 30, 70]]
        assert r.waits == {"magic0.pp": 30}

    def test_wait_clamped_to_window(self):
        # A resource can report wait accrued before the current window
        # opened; the segment clamps so wait + service == elapsed.
        r = self.rec()
        r.begin(0)
        r.add_wait("link", 500)
        r.cut("net_req", 200)
        assert r.segments == [["net_req", 200, 0]]
        r.close(200, "remote_clean")
        assert r.residual_ps == 0

    def test_cut_wait_is_all_wait(self):
        r = self.rec()
        r.begin(0)
        r.cut_wait("dir_busy", 80)
        assert r.segments == [["dir_busy", 80, 0]]

    def test_zero_windows_are_dropped(self):
        r = self.rec()
        r.begin(50)
        r.cut("bus_req", 50)
        r.cut_wait("dir_busy", 50)
        assert r.segments == []
        r.close(50, "local_clean")
        assert r.latency_ps == 0
        assert r.residual_ps == 0

    def test_unbracketed_tail_still_sums(self):
        r = self.rec()
        r.begin(0)
        r.cut("bus_req", 40)
        r.close(100, "local_clean")     # 60 ps nobody cut
        assert r.segments[-1][0] == "tail"
        assert sum(w + s for _n, w, s in r.segments) == r.latency_ps
        assert r.residual_ps == 0

    def test_kind_key_taxonomy(self):
        r = self.rec("upgrade")
        r.case = "local_clean"
        assert r.kind_key == "upgrade.local_clean"
        r.inval_fanout = 2
        assert r.kind_key == "upgrade.local_clean+inv"
        wb = self.rec("writeback")
        assert wb.kind_key == "writeback"

    def test_to_dict_round_trips_through_json(self):
        r = self.rec()
        r.begin(0)
        r.add_wait("bus1", 10)
        r.cut("bus_req", 25)
        r.close(25, "remote_clean")
        payload = json.loads(json.dumps(r.to_dict()))
        assert payload["kind"] == "read.remote_clean"
        assert payload["segments"] == [["bus_req", 10, 15]]
        assert payload["waits"] == {"bus1": 10}


class TestTxnRecorder:
    def sealed(self, rec, latency, kind="read", case="local_clean"):
        r = rec.open_txn(0, 0, kind, origin="demand")
        r.begin(0)
        r.cut("bus_req", latency)
        r.close(latency, case)
        rec.commit_txn(r)
        return r

    def test_rejects_nonpositive_top_k(self):
        with pytest.raises(ConfigurationError):
            TxnRecorder(top_k=0)

    def test_uids_are_monotonic(self):
        rec = TxnRecorder()
        uids = [rec.open_txn(0, 0, "read").uid for _ in range(5)]
        assert uids == sorted(set(uids))

    def test_top_k_keeps_slowest_with_stable_ties(self):
        rec = TxnRecorder(top_k=2)
        self.sealed(rec, 100)
        self.sealed(rec, 300)
        self.sealed(rec, 200)
        self.sealed(rec, 300)   # tie: higher uid wins the ordering
        assert [r.latency_ps for r in rec.top] == [300, 300]
        assert rec.top[0].uid < rec.top[1].uid
        assert rec.total_txns == 4

    def test_kind_aggregation_folds_segments(self):
        rec = TxnRecorder()
        self.sealed(rec, 100)
        self.sealed(rec, 200)
        stats = rec.kinds["read.local_clean"]
        assert stats.hist.count == 2
        assert stats.segments["bus_req"] == [0, 300]

    def test_residual_accounting(self):
        rec = TxnRecorder()
        r = rec.open_txn(0, 0, "read")
        r.begin(0)
        r.close(100, "local_clean")
        r.segments.clear()            # simulate a lost segment
        r.residual_ps = 100
        rec.commit_txn(r)
        assert rec.residual_txns == 1
        assert rec.residual_ps == 100

    def test_context_hooks_accumulate(self):
        rec = TxnRecorder()
        rec.cache_miss("l1dZ0", 0, 0)
        rec.cache_miss("l1dZ0", 0, 0)
        rec.dir_transition(0, 0, "to_shared", 3)
        rec.drain(40)
        assert rec.cache_misses == {"l1dZ0": 2}
        assert rec.dir_transitions == {"to_shared": 1}
        assert rec.peak_sharers == 3
        assert rec.write_drains == 1
        assert rec.total_events == 4


class TestAmbientSlot:
    def test_install_uninstall(self):
        rec = TxnRecorder()
        with obs_hooks.observing(rec) as probe:
            assert obs_hooks.active is probe
            assert probe.recorders == (rec,)
            assert not probe.traced
        assert obs_hooks.active is None

    def test_recording_restores_previous(self):
        with obs_hooks.observing(TxnRecorder()) as outer:
            with obs_hooks.observing(TxnRecorder()) as inner:
                assert obs_hooks.active is inner
                assert inner is not outer
            assert obs_hooks.active is outer

    def test_recording_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs_hooks.observing(TxnRecorder()):
                raise RuntimeError("boom")
        assert obs_hooks.active is None

    def test_disabled_slot_costs_nothing_to_read(self):
        assert obs_hooks.active is None


_SETTINGS = settings(max_examples=80, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

#: One lifecycle step: (advance_ps, pre_wait_ps, all_wait_cut?).
steps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10_000),
              st.integers(min_value=0, max_value=20_000),
              st.booleans()),
    min_size=0, max_size=30)


class TestExactnessProperties:
    @_SETTINGS
    @given(steps, st.integers(min_value=0, max_value=1_000_000),
           st.integers(min_value=0, max_value=5_000))
    def test_segments_always_sum_to_latency(self, seq, start, tail):
        """Any cut/cut_wait/add_wait sequence partitions the latency:
        the residual is zero by construction, even with an unbracketed
        tail and waits exceeding their windows."""
        r = TxnRecord(0, 0, 0, 0, "read", "demand")
        r.begin(start)
        now = start
        for i, (dt, wait, all_wait) in enumerate(seq):
            now += dt
            if all_wait:
                r.cut_wait(f"s{i}", now)
            else:
                r.add_wait("res", wait)
                r.cut(f"s{i}", now)
        now += tail
        r.close(now, "remote_clean")
        assert r.latency_ps == now - start
        assert sum(w + s for _n, w, s in r.segments) == r.latency_ps
        assert r.residual_ps == 0
        assert all(w >= 0 and s >= 0 for _n, w, s in r.segments)

    @_SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=10**8),
                    min_size=1, max_size=200))
    def test_percentiles_bound_the_data(self, values):
        h = Histogram()
        for v in values:
            h.add(v)
        assert h.percentile_ps(100) >= max(values)
        qs = [h.percentile_ps(q) for q in (10, 50, 90, 99)]
        assert qs == sorted(qs)


class TestIntegration:
    """The whole pipeline against a real tiny-scale hardware run."""

    N_CPUS = 4

    @pytest.fixture(scope="class")
    def recorded_run(self):
        scale = get_scale("tiny")
        workload = make_app("fft", scale)
        recorder = TxnRecorder()
        with obs_hooks.observing(recorder):
            result = run_workload(hardware_config(), workload,
                                  self.N_CPUS)
        return recorder, result

    def test_transactions_were_recorded(self, recorded_run):
        recorder, result = recorded_run
        assert recorder.total_txns > 0
        assert recorder.n_nodes == self.N_CPUS
        assert recorder.end_ps == result.total_ps
        assert recorder.cache_misses
        assert recorder.dir_transitions

    def test_every_residual_is_zero(self, recorded_run):
        """The acceptance criterion: segments sum exactly to the
        end-to-end latency for every single transaction."""
        recorder, _ = recorded_run
        assert recorder.residual_ps == 0
        assert recorder.residual_txns == 0
        for stats in recorder.kinds.values():
            assert stats.residual_ps == 0
        for record in recorder.top:
            assert record.residual_ps == 0
            assert sum(w + s for _n, w, s in record.segments) \
                == record.latency_ps

    def test_latency_ordering_matches_protocol_depth(self, recorded_run):
        """remote-dirty (3-hop) > remote-clean (2-hop) > local miss."""
        recorder, result = recorded_run
        report = build_report(recorder, result)
        local = report.case_percentile_ps("local_clean", 50)
        remote_clean = report.case_percentile_ps("remote_clean", 50)
        remote_dirty = report.percentile_ps(
            lambda k: "remote_dirty" in k, 50)
        assert 0 < local < remote_clean < remote_dirty

    def test_remote_dirty_transactions_observed(self, recorded_run):
        recorder, result = recorded_run
        report = build_report(recorder, result)
        assert report.count_for(lambda k: "remote_dirty" in k) > 0

    def test_report_round_trips_through_json(self, recorded_run):
        recorder, result = recorded_run
        report = build_report(recorder, result, top_k=3)
        assert len(report.top) <= 3
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload_kind(payload) == "txn"
        # Txn payloads must never look like waterfalls or topo payloads.
        assert "overall" not in payload
        assert payload["kind"] == "txn"
        again = TxnReport.from_dict(payload)
        assert again.to_dict() == report.to_dict()
        assert again.config == result.config_name

    def test_format_renders_the_anatomy(self, recorded_run):
        recorder, result = recorded_run
        text = build_report(recorder, result).format(top=2)
        assert "transactions" in text
        assert "residual" in text
        assert "slowest" in text
        assert "wait" in text and "service" in text

    def test_recording_is_cycle_bit_identical(self, recorded_run):
        """The determinism guarantee: installing the recorder changes
        nothing observable about the simulation itself."""
        _, recorded = recorded_run
        scale = get_scale("tiny")
        bare = run_workload(hardware_config(), make_app("fft", scale),
                            self.N_CPUS)
        assert bare.total_ps == recorded.total_ps
        assert bare.phase_spans_ps == recorded.phase_spans_ps
        assert bare.stats == recorded.stats
        assert bare == recorded

    def test_run_without_txn_records_nothing(self):
        scale = get_scale("tiny")
        probe = TxnRecorder()
        run_workload(hardware_config(), make_app("fft", scale), 1)
        assert probe.total_events == 0
        assert obs_hooks.active is None
