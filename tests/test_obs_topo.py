"""Tests for repro.obs.topo + repro.obs.hotspot: spatial observability.

The counting API is exercised directly (no simulation) for the binning
edge cases the design worries about -- line vs page granularity, region
boundary straddling, local-vs-remote classification at node 0, empty
matrices -- then the whole pipeline (hooks -> sampler -> report ->
payload) is checked against a real tiny-scale run.
"""

import json

import pytest

from repro.common.config import get_scale
from repro.common.errors import ConfigurationError
from repro.mem.address import NODE_MEM_SHIFT, node_base
from repro.obs import hooks as obs_hooks
from repro.obs.hotspot import HotRegion, HotspotReport, build_report
from repro.obs.topo import RingBuffer, TopoRecorder
from repro.sim.configs import get_config
from repro.sim.machine import run_workload
from repro.validation.dashboard import payload_kind
from repro.workloads import make_app


@pytest.fixture(autouse=True)
def _nothing_observing():
    """Every test starts and ends with the probe slot empty."""
    assert obs_hooks.active is None
    yield
    assert obs_hooks.active is None


class TestRingBuffer:
    def test_below_capacity_keeps_everything_in_order(self):
        ring = RingBuffer(8)
        for i in range(5):
            ring.push(float(i))
        assert len(ring) == 5
        assert ring.dropped == 0
        assert ring.values() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_wraparound_drops_oldest_first(self):
        ring = RingBuffer(4)
        for i in range(10):
            ring.push(float(i))
        assert ring.pushed == 10
        assert ring.dropped == 6
        assert len(ring) == 4
        assert ring.values() == [6.0, 7.0, 8.0, 9.0]

    def test_memory_is_fixed(self):
        ring = RingBuffer(16)
        for i in range(10_000):
            ring.push(float(i))
        assert len(ring._buf) == 16

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            RingBuffer(0)


class TestRegionBinning:
    def test_line_vs_page_granularity(self):
        # 128 B lines vs 4096 B pages: 32 consecutive lines share a page.
        line = TopoRecorder(region="line", line_bytes=128, page_bytes=4096)
        page = TopoRecorder(region="page", line_bytes=128, page_bytes=4096)
        assert line.region_bytes == 128
        assert page.region_bytes == 4096
        for i in range(32):
            paddr = i * 128
            line.mem_access(0, 0, paddr, "read")
            page.mem_access(0, 0, paddr, "read")
        assert len(line.regions) == 32
        assert len(page.regions) == 1
        assert page.regions[0].accesses == 32

    def test_region_boundary_straddling(self):
        # Adjacent addresses on either side of a region boundary land in
        # different regions; the last byte of a region stays inside it.
        rec = TopoRecorder(region="line", line_bytes=128)
        rec.mem_access(0, 0, 127, "read")    # last byte of region 0
        rec.mem_access(0, 0, 128, "read")    # first byte of region 1
        rec.mem_access(0, 0, 255, "read")    # last byte of region 1
        assert sorted(rec.regions) == [0, 1]
        assert rec.regions[0].accesses == 1
        assert rec.regions[1].accesses == 2
        assert rec.region_base(1) == 128

    def test_local_vs_remote_at_node_zero(self):
        # Node 0's memory starts at paddr 0: a node-0 access to it is
        # local even though the paddr's high bits are all zero.
        rec = TopoRecorder()
        rec.mem_access(0, 0, 0x40, "read")
        assert rec.remote_fraction() == 0.0
        region = next(iter(rec.regions.values()))
        assert region.remote == 0
        # The same address from node 1 is remote (home stays node 0).
        rec.mem_access(1, 0, 0x40, "read")
        assert rec.remote_fraction() == 0.5
        assert region.remote == 1
        assert region.requesters == {0, 1}

    def test_home_of_region_matches_address_map(self):
        rec = TopoRecorder(region="line", line_bytes=128)
        paddr = node_base(3) + 0x80
        region = rec.region_of(paddr)
        assert rec.home_of_region(region) == 3
        assert rec.region_base(region) >> NODE_MEM_SHIFT == 3

    def test_empty_traffic_matrix(self):
        rec = TopoRecorder()
        assert rec.total_accesses == 0
        assert rec.remote_fraction() == 0.0
        report = build_report(rec)
        assert report.matrix == []
        assert report.hot_regions == []
        assert report.total_accesses == 0
        assert report.hottest_home() == (0, 0.0)
        # The empty report still serialises and formats.
        payload = report.to_dict()
        assert payload_kind(payload) == "topo"
        assert "no traffic recorded" in report.format()

    def test_unknown_granularity_rejected(self):
        with pytest.raises(ConfigurationError):
            TopoRecorder(region="bank")


class TestCounters:
    def test_matrix_and_kinds_accumulate(self):
        rec = TopoRecorder()
        rec.mem_access(0, 1, node_base(1), "read", 0, 100)
        rec.mem_access(0, 1, node_base(1), "read", 0, 300)
        rec.mem_access(1, 0, 0, "write", 0, 50)
        assert rec.matrix == {(0, 1): 2, (1, 0): 1}
        assert rec.kinds == {"read": 2, "write": 1}
        region = rec.regions[rec.region_of(node_base(1))]
        assert region.latency_ps == 400

    def test_cache_misses_bucket_by_structure_and_region(self):
        rec = TopoRecorder(region="line", line_bytes=128)
        rec.cache_miss("l2Z0", 0, 0)
        rec.cache_miss("l2Z0", 0, 0x80)
        rec.cache_miss("l1dZ0", 0, 0)
        assert rec.struct_misses == {"l2Z0": 2, "l1dZ0": 1}

    def test_dir_transitions_track_peak_sharers(self):
        rec = TopoRecorder(region="line", line_bytes=128)
        rec.dir_transition(0, 5, "to_shared", 1)
        rec.dir_transition(0, 5, "to_shared", 3)
        rec.dir_transition(0, 5, "to_shared", 2)
        rec.dir_transition(0, 5, "to_dirty")
        assert rec.dir_transitions == {(0, "to_shared"): 3,
                                       (0, "to_dirty"): 1}
        assert rec.peak_sharers[5] == 3

    def test_msgs_charged_to_every_link_on_route(self):
        rec = TopoRecorder()
        rec.net_msg(0, 3, 4, [(0, 1), (1, 3)])
        assert rec.link_msgs == {(0, 1): 1, (1, 3): 1}
        assert rec.link_flits == {(0, 1): 4, (1, 3): 4}

    def test_total_events_counts_every_hook(self):
        rec = TopoRecorder()
        rec.mem_access(0, 0, 0, "read")
        rec.cache_miss("l2", 0, 0)
        rec.dir_transition(0, 0, "to_shared", 1)
        rec.net_msg(0, 1, 1, [(0, 1)])
        assert rec.total_events == 4


class TestAmbientSlot:
    def test_install_uninstall(self):
        rec = TopoRecorder()
        with obs_hooks.observing(rec) as probe:
            assert obs_hooks.active is probe
            assert probe.recorders == (rec,)
        assert obs_hooks.active is None

    def test_recording_restores_previous(self):
        with obs_hooks.observing(TopoRecorder()) as outer:
            with obs_hooks.observing(TopoRecorder()) as inner:
                assert obs_hooks.active is inner
                assert inner is not outer
            assert obs_hooks.active is outer

    def test_recording_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs_hooks.observing(TopoRecorder()):
                raise RuntimeError("boom")
        assert obs_hooks.active is None

    def test_disabled_slot_costs_nothing_to_read(self):
        # The contract the overhead bench quantifies: the disabled path is
        # a module attribute load plus an identity test.
        assert obs_hooks.active is None


class TestIntegration:
    """The whole pipeline against a real (tiny) simulation."""

    @pytest.fixture(scope="class")
    def recorded_run(self):
        scale = get_scale("tiny")
        config = get_config("simos-mipsy-150-tuned")
        workload = make_app("ocean", scale)
        recorder = TopoRecorder(sample_interval_ps=500_000,
                                sample_capacity=64)
        with obs_hooks.observing(recorder):
            result = run_workload(config, workload, 2)
        return recorder, result

    def test_geometry_binds_from_machine_scale(self, recorded_run):
        recorder, _ = recorded_run
        scale = get_scale("tiny")
        assert recorder.region_bytes == scale.l2.line_bytes
        assert recorder.n_nodes == 2

    def test_traffic_was_recorded(self, recorded_run):
        recorder, _ = recorded_run
        assert recorder.total_accesses > 0
        assert set(recorder.matrix) <= {(a, b) for a in (0, 1)
                                        for b in (0, 1)}
        assert recorder.dir_transitions
        assert recorder.struct_misses

    def test_sampler_ran_and_stayed_bounded(self, recorded_run):
        recorder, result = recorded_run
        expected = result.total_ps // recorder.sample_interval_ps
        assert recorder.sample_t.pushed == expected
        assert len(recorder.sample_t) <= 64
        for ring in recorder.series.values():
            assert len(ring) <= 64

    def test_finish_captured_resource_heat(self, recorded_run):
        recorder, result = recorded_run
        assert recorder.end_ps == result.total_ps
        assert any(name.startswith("magic") for name in recorder.resource_heat)

    def test_report_round_trips_through_json(self, recorded_run):
        recorder, result = recorded_run
        report = build_report(recorder, result)
        assert report.config_name == result.config_name
        assert report.total_accesses == recorder.total_accesses
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload_kind(payload) == "topo"
        # Topo payloads must never look like attribution waterfalls.
        assert "overall" not in payload
        again = HotspotReport.from_dict(payload)
        assert again.matrix == report.matrix
        assert again.to_dict() == report.to_dict()

    def test_format_renders_the_three_views(self, recorded_run):
        recorder, result = recorded_run
        text = build_report(recorder, result).format()
        assert "traffic matrix" in text
        assert "hottest home" in text
        assert "queue occupancy" in text

    def test_run_without_topo_records_nothing(self):
        scale = get_scale("tiny")
        config = get_config("simos-mipsy-150-tuned")
        probe = TopoRecorder()
        run_workload(config, make_app("fft", scale), 1)
        assert probe.total_events == 0
        assert obs_hooks.active is None


class TestHotRegion:
    def test_remote_fraction(self):
        hr = HotRegion(region=1, base_paddr=128, home=0, accesses=4,
                       remote=3, mean_latency_ps=10.0, requesters=[0, 1],
                       peak_sharers=2)
        assert hr.remote_fraction == 0.75
        assert HotRegion.from_dict(hr.to_dict()) == hr
