"""DSM protocol edge cases: NUMA timing, writeback races, sharer churn."""

import pytest

from repro.common.errors import ConfigurationError
from repro.engine import Engine
from repro.mem.address import node_base
from repro.mem.cache import MODIFIED
from repro.memsys import (
    DsmMemorySystem,
    MemKind,
    hardware,
    numa,
    predict_case_ps,
)
from repro.memsys.params import PARAM_SETS
from repro.proto.directory import SHARED, UNOWNED

from tests.test_memsys import StubNode, build, run_request

LINE = 128


class TestNumaTiming:
    def test_numa_uncontended_latency_matches_flashlite_structure(self):
        # Same latency path, occupancy switched off: a single request takes
        # the same time under both (contention is the only difference).
        env_fl, mem_fl, _ = build(params=hardware())
        env_nu, mem_nu, _ = build(params=numa())
        paddr = node_base(1) + 0x400
        t_fl = run_request(env_fl, mem_fl, 0, paddr, MemKind.READ)
        t_nu = run_request(env_nu, mem_nu, 0, paddr, MemKind.READ)
        assert t_fl == t_nu

    def test_numa_parameter_flags(self):
        # One switch turns off MAGIC occupancy and link contention together.
        for params, on in ((numa(), False), (hardware(), True)):
            assert params.contention is on
            _env, mem, _hooks = build(params=params)
            assert mem.net.model_contention is on
            assert all(magic.model_occupancy is on for magic in mem.magic)


class TestProtocolChurn:
    def test_many_sharers_then_write(self):
        env, mem, hooks = build()
        paddr = node_base(5) + 0x100
        readers = list(range(8))
        for node in readers:
            run_request(env, mem, node, paddr, MemKind.READ)
        run_request(env, mem, 9, paddr, MemKind.WRITE)
        entry = mem.directory_of(paddr)
        assert entry.owner == 9
        line = paddr >> 7
        for node in readers:
            assert line not in hooks[node].l2

    def test_ownership_chain(self):
        # M bounces across four nodes; directory follows exactly.
        env, mem, hooks = build()
        paddr = node_base(2) + 0x200
        for node in (0, 1, 3, 7):
            run_request(env, mem, node, paddr, MemKind.WRITE)
            entry = mem.directory_of(paddr)
            assert entry.owner == node
            assert hooks[node].l2[paddr >> 7] == MODIFIED

    def test_writeback_of_shared_line_drops_sharer(self):
        env, mem, hooks = build()
        paddr = node_base(2) + 0x300
        run_request(env, mem, 0, paddr, MemKind.READ)
        run_request(env, mem, 1, paddr, MemKind.READ)
        hooks[0].l2.pop(paddr >> 7)     # evicted first, as the interface does
        run_request(env, mem, 0, paddr, MemKind.WRITEBACK)
        entry = mem.directory_of(paddr)
        assert entry.state == SHARED and entry.sharers == {1}

    def test_last_sharer_writeback_clears_entry(self):
        env, mem, hooks = build()
        paddr = node_base(2) + 0x380
        run_request(env, mem, 0, paddr, MemKind.READ)
        hooks[0].l2.pop(paddr >> 7)     # evicted first, as the interface does
        run_request(env, mem, 0, paddr, MemKind.WRITEBACK)
        assert mem.directory_of(paddr).state == UNOWNED

    def test_dirty_read_creates_sharing_writeback_traffic(self):
        env, mem, hooks = build()
        paddr = node_base(2) + 0x400
        run_request(env, mem, 1, paddr, MemKind.WRITE)
        before = mem.magic[2].dram.requests
        run_request(env, mem, 0, paddr, MemKind.READ)
        env.run()  # let the off-critical-path sharing writeback finish
        assert mem.magic[2].dram.requests > before


class TestLatencyAccounting:
    def test_case_latency_stats_accumulate(self):
        env, mem, _ = build()
        paddr = node_base(1) + 0x500
        latency = run_request(env, mem, 0, paddr, MemKind.READ)
        assert mem.stats["case_remote_clean"] == 1
        assert mem.stats["latency_ps_remote_clean"] == latency

    def test_prediction_requires_known_case(self):
        from repro.common.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            predict_case_ps(hardware(), "local_mystery")


class TestParamsAreChecked:
    """A timing no machine has is a ConfigurationError at construction."""

    @pytest.mark.parametrize("name", sorted(PARAM_SETS))
    def test_every_named_set_is_valid(self, name):
        assert PARAM_SETS[name]().name

    @pytest.mark.parametrize("fraction", [0.0, 0.55, 1.0])
    def test_occupancy_ablation_endpoints_are_valid(self, fraction):
        params = hardware().with_updates(pp_occ_fraction=fraction)
        assert params.pp_occ_fraction == fraction

    def test_negative_case_extra_is_left_to_the_plans(self):
        params = hardware().with_updates(case_extra_ps={"local_clean": -5})
        assert params.extra("local_clean") == -5

    @pytest.mark.parametrize("field,value", [
        ("bus_ps", -1), ("pp_out_ps", -1), ("pp_home_ps", -1),
        ("pp_mem_ps", -1), ("pp_redirect_ps", -1), ("pp_ivn_ps", -1),
        ("pp_inval_ps", -1), ("pp_reply_ps", -1), ("pp_wb_ps", -1),
        ("dram_ps", -1), ("owner_cache_ps", -1),
        ("req_flits", 0), ("data_flits", 0),
        ("pp_occ_fraction", -0.01), ("pp_occ_fraction", 1.01),
    ])
    def test_impossible_timing_is_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            hardware().with_updates(**{field: value})
