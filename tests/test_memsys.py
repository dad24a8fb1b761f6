"""Protocol-engine tests: the five Table 3 cases, coherence, contention."""

import pytest

from repro.engine import Engine
from repro.mem.cache import MODIFIED, SHARED as CACHE_SHARED
from repro.memsys import (
    DsmMemorySystem,
    LOCAL_CLEAN,
    LOCAL_DIRTY_REMOTE,
    MemKind,
    REMOTE_CLEAN,
    REMOTE_DIRTY_HOME,
    REMOTE_DIRTY_REMOTE,
    TABLE3_HARDWARE_NS,
    TABLE3_UNTUNED_NS,
    flashlite_untuned,
    hardware,
    numa,
    predict_case_ps,
)
from repro.mem.address import node_base
from repro.proto.directory import DIRTY, SHARED, UNOWNED

LINE = 128


class StubNode:
    """Minimal processor-side hook: an L2 as a dict plus event logs."""

    def __init__(self):
        self.l2 = {}
        self.invalidations = []
        self.fills = []

    def l2_peek(self, line):
        return self.l2.get(line)

    def l2_downgrade(self, line):
        if self.l2.get(line) == MODIFIED:
            self.l2[line] = CACHE_SHARED

    def l2_invalidate(self, line):
        self.invalidations.append(line)
        self.l2.pop(line, None)

    def l2_fill(self, line, state):
        self.fills.append((line, state))
        self.l2[line] = state


#: Memory systems the current scenario built (see the fixture below).
_BUILT = []


def build(n_nodes=16, params=None):
    env = Engine()
    params = params or hardware(n_nodes)
    mem = DsmMemorySystem(env, n_nodes, params, LINE)
    hooks = [StubNode() for _ in range(n_nodes)]
    for node, hook in enumerate(hooks):
        mem.attach(node, hook)
    _BUILT.append(mem)
    return env, mem, hooks


@pytest.fixture(autouse=True)
def _directories_stay_consistent():
    """After each scenario, every directory entry of every node it built
    satisfies the protocol's state invariants."""
    _BUILT.clear()
    yield
    for mem in _BUILT:
        for magic in mem.magic:
            magic.directory.check_invariants()


def run_request(env, mem, node, paddr, kind):
    start = env.now
    done = env.run(until=mem.request(node, paddr, kind))
    return done - start


class TestProtocolCaseLatencies:
    """The DES transaction must agree with the closed-form prediction."""

    def test_local_clean(self):
        env, mem, _hooks = build()
        latency = run_request(env, mem, 0, node_base(0) + 0x400, MemKind.READ)
        assert latency == predict_case_ps(mem.params, LOCAL_CLEAN)

    def test_remote_clean(self):
        env, mem, _hooks = build()
        latency = run_request(env, mem, 0, node_base(1) + 0x400, MemKind.READ)
        assert latency == predict_case_ps(mem.params, REMOTE_CLEAN)

    def test_local_dirty_remote(self):
        env, mem, hooks = build()
        paddr = node_base(0) + 0x800
        run_request(env, mem, 1, paddr, MemKind.WRITE)  # owner = node 1
        latency = run_request(env, mem, 0, paddr, MemKind.READ)
        assert latency == predict_case_ps(mem.params, LOCAL_DIRTY_REMOTE)

    def test_remote_dirty_home(self):
        env, mem, hooks = build()
        paddr = node_base(1) + 0x800
        run_request(env, mem, 1, paddr, MemKind.WRITE)  # home's CPU owns it
        latency = run_request(env, mem, 0, paddr, MemKind.READ)
        assert latency == predict_case_ps(mem.params, REMOTE_DIRTY_HOME)

    def test_remote_dirty_remote(self):
        env, mem, hooks = build()
        paddr = node_base(1) + 0x800
        run_request(env, mem, 3, paddr, MemKind.WRITE)  # third-party owner
        latency = run_request(env, mem, 0, paddr, MemKind.READ)
        assert latency == predict_case_ps(mem.params, REMOTE_DIRTY_REMOTE)

    @pytest.mark.parametrize("case,target_ns", sorted(TABLE3_HARDWARE_NS.items()))
    def test_hardware_params_hit_table3(self, case, target_ns):
        # Memory-system latency + the hardware CPU-side share (L2-interface
        # occupancy + one issue cycle) must equal the published value.
        from repro.memsys.params import HW_CPU_SIDE_PS
        params = hardware(16)
        assert predict_case_ps(params, case) + HW_CPU_SIDE_PS == target_ns * 1000

    @pytest.mark.parametrize("case,target_ns", sorted(TABLE3_UNTUNED_NS.items()))
    def test_untuned_params_hit_table3(self, case, target_ns):
        from repro.memsys.params import UNTUNED_CPU_SIDE_PS
        params = flashlite_untuned(16)
        assert (predict_case_ps(params, case) + UNTUNED_CPU_SIDE_PS
                == target_ns * 1000)


class TestCoherence:
    def test_read_then_read_shares(self):
        env, mem, hooks = build()
        paddr = node_base(2) + 0x100
        run_request(env, mem, 0, paddr, MemKind.READ)
        run_request(env, mem, 1, paddr, MemKind.READ)
        entry = mem.directory_of(paddr)
        assert entry.state == SHARED
        assert entry.sharers == {0, 1}

    def test_write_invalidates_sharers(self):
        env, mem, hooks = build()
        paddr = node_base(2) + 0x100
        run_request(env, mem, 0, paddr, MemKind.READ)
        run_request(env, mem, 1, paddr, MemKind.READ)
        run_request(env, mem, 3, paddr, MemKind.WRITE)
        entry = mem.directory_of(paddr)
        assert entry.state == DIRTY and entry.owner == 3
        line = paddr >> 7
        assert line in hooks[0].invalidations
        assert line in hooks[1].invalidations
        assert hooks[3].l2[line] == MODIFIED

    def test_read_of_dirty_line_downgrades_owner(self):
        env, mem, hooks = build()
        paddr = node_base(2) + 0x300
        run_request(env, mem, 1, paddr, MemKind.WRITE)
        run_request(env, mem, 0, paddr, MemKind.READ)
        line = paddr >> 7
        assert hooks[1].l2[line] == CACHE_SHARED
        entry = mem.directory_of(paddr)
        assert entry.state == SHARED and entry.sharers == {0, 1}

    def test_write_to_dirty_line_steals_ownership(self):
        env, mem, hooks = build()
        paddr = node_base(2) + 0x300
        run_request(env, mem, 1, paddr, MemKind.WRITE)
        run_request(env, mem, 0, paddr, MemKind.WRITE)
        line = paddr >> 7
        assert line not in hooks[1].l2
        entry = mem.directory_of(paddr)
        assert entry.state == DIRTY and entry.owner == 0

    def test_upgrade_invalidates_other_sharers(self):
        env, mem, hooks = build()
        paddr = node_base(2) + 0x500
        run_request(env, mem, 0, paddr, MemKind.READ)
        run_request(env, mem, 1, paddr, MemKind.READ)
        run_request(env, mem, 0, paddr, MemKind.UPGRADE)
        line = paddr >> 7
        assert line in hooks[1].invalidations
        entry = mem.directory_of(paddr)
        assert entry.state == DIRTY and entry.owner == 0

    def test_upgrade_race_escalates(self):
        env, mem, hooks = build()
        paddr = node_base(2) + 0x500
        # Upgrade without ever having read: directory has no sharer record.
        run_request(env, mem, 0, paddr, MemKind.UPGRADE)
        assert mem.stats["upgrade_races"] == 1
        entry = mem.directory_of(paddr)
        assert entry.state == DIRTY and entry.owner == 0

    def test_writeback_clears_directory(self):
        env, mem, hooks = build()
        paddr = node_base(2) + 0x700
        run_request(env, mem, 0, paddr, MemKind.WRITE)
        run_request(env, mem, 0, paddr, MemKind.WRITEBACK)
        entry = mem.directory_of(paddr)
        assert entry.state == UNOWNED

    def test_intervention_race_falls_back_to_memory(self):
        env, mem, hooks = build()
        paddr = node_base(2) + 0x900
        run_request(env, mem, 1, paddr, MemKind.WRITE)
        line = paddr >> 7
        del hooks[1].l2[line]  # owner evicted; writeback still in flight
        run_request(env, mem, 0, paddr, MemKind.READ)
        assert mem.stats["race_to_memory"] == 1

    def test_upgrade_cheaper_than_write_miss(self):
        env, mem, hooks = build()
        a = node_base(1) + 0x100
        b = node_base(1) + 0x100 + LINE
        run_request(env, mem, 0, a, MemKind.READ)
        upgrade = run_request(env, mem, 0, a, MemKind.UPGRADE)
        write = run_request(env, mem, 0, b, MemKind.WRITE)
        assert upgrade < write


class TestContention:
    def _burst_latencies(self, params, n_requesters=8):
        env, mem, _hooks = build(params=params)
        paddrs = [node_base(1) + 0x1000 + i * LINE for i in range(n_requesters)]
        events = [
            mem.request(node, paddr, MemKind.READ)
            for node, paddr in zip(range(2, 2 + n_requesters), paddrs)
        ]
        done = env.all_of(events)
        env.run(until=done)
        return env.now

    def test_flashlite_queues_at_hot_home(self):
        finish_fl = self._burst_latencies(hardware(16))
        finish_numa = self._burst_latencies(numa(16))
        # The NUMA model omits protocol-processor occupancy, so a burst to
        # one home finishes markedly earlier than under FlashLite.
        assert finish_numa < finish_fl

    def test_numa_still_models_memory_contention(self):
        # With DRAM as the only contended resource, a big burst must still
        # take longer than a single access.
        env, mem, _hooks = build(params=numa(16))
        single = run_request(env, mem, 2, node_base(1) + 0x100, MemKind.READ)
        finish = self._burst_latencies(numa(16), n_requesters=12)
        assert finish > single

    def test_same_line_requests_serialize(self):
        env, mem, _hooks = build()
        paddr = node_base(1) + 0x2000
        events = [mem.request(n, paddr, MemKind.READ) for n in (2, 4, 8)]
        env.run(until=env.all_of(events))
        assert mem.stats["line_busy_waits"] >= 1
        entry = mem.directory_of(paddr)
        assert entry.sharers == {2, 4, 8}
