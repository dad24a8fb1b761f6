"""Protocol-engine tests: the five Table 3 cases, coherence, contention."""

import importlib.util
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.mem.cache import MODIFIED, SHARED as CACHE_SHARED
from repro.memsys import (
    DsmMemorySystem,
    LOCAL_CLEAN,
    LOCAL_DIRTY_REMOTE,
    MemKind,
    PROTOCOL_CASES,
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
from repro.mem.address import home_node, node_base
from repro.memsys.params import PARAM_SETS
from repro.obs import hooks as obs_hooks
from repro.obs.txn import TxnRecorder
from repro.proto.directory import DIRTY, SHARED, UNOWNED
from tests.dsm_reference import ReferenceDsm

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
    params = params or hardware()
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


def disagreements(mem, held):
    """Where the directory and the caches tell different stories once no
    transaction is in flight: a DIRTY entry whose owner does not hold the
    line M, an M line whose home does not say DIRTY at its node, an S
    line whose node is not a recorded sharer.  *held* maps each node to
    its L2 as ``{line: state}``.  Every entry must also pass the
    directory's own invariants."""
    out = []
    for magic in mem.magic:
        magic.directory.check_invariants()
        for line, entry in magic.directory.snapshot()["entries"]:
            owner = entry["owner"]
            if entry["state"] == DIRTY and held[owner].get(line) != MODIFIED:
                out.append(f"line {line:#x}: DIRTY at {owner}, which holds "
                           f"{held[owner].get(line)}")
    for node, lines in held.items():
        for line, state in lines.items():
            entry = mem.magic[home_node(line << mem.line_shift)] \
                .directory.peek(line)
            if state == MODIFIED:
                agrees = (entry is not None and entry.state == DIRTY
                          and entry.owner == node)
            else:
                agrees = entry is not None and node in entry.sharers
            if not agrees:
                out.append(f"line {line:#x}: {state} at {node}, "
                           f"directory says {entry!r}")
    return out


def run_request(env, mem, node, paddr, kind):
    start = env.now
    done = env.run(until=mem.request(node, paddr, kind))
    return done - start


#: How each Table 3 case is staged for a read by node 0: (home node of
#: the line, offset in it, the node that writes the line first or None).
CASE_SETUPS = {
    LOCAL_CLEAN: (0, 0x400, None),
    REMOTE_CLEAN: (1, 0x400, None),
    LOCAL_DIRTY_REMOTE: (0, 0x800, 1),     # owner = node 1
    REMOTE_DIRTY_HOME: (1, 0x800, 1),      # home's CPU owns it
    REMOTE_DIRTY_REMOTE: (1, 0x800, 3),    # third-party owner
}


class TestProtocolCaseLatencies:
    """The DES transaction must agree with the closed-form prediction."""

    @staticmethod
    def check_case(params, case):
        env, mem, _hooks = build(params=PARAM_SETS[params]())
        home, offset, owner = CASE_SETUPS[case]
        paddr = node_base(home) + offset
        if owner is not None:
            run_request(env, mem, owner, paddr, MemKind.WRITE)
        latency = run_request(env, mem, 0, paddr, MemKind.READ)
        assert latency == predict_case_ps(mem.params, case)

    def test_local_clean(self):
        self.check_case("hardware", LOCAL_CLEAN)

    def test_remote_clean(self):
        self.check_case("hardware", REMOTE_CLEAN)

    def test_local_dirty_remote(self):
        self.check_case("hardware", LOCAL_DIRTY_REMOTE)

    def test_remote_dirty_home(self):
        self.check_case("hardware", REMOTE_DIRTY_HOME)

    def test_remote_dirty_remote(self):
        self.check_case("hardware", REMOTE_DIRTY_REMOTE)

    @pytest.mark.parametrize("params,case", [
        (params, case) for params in sorted(PARAM_SETS)
        if params != "hardware" for case in PROTOCOL_CASES])
    def test_des_latency_is_the_prediction(self, params, case):
        self.check_case(params, case)

    @pytest.mark.parametrize("case,target_ns", sorted(TABLE3_HARDWARE_NS.items()))
    def test_hardware_params_hit_table3(self, case, target_ns):
        # Memory-system latency + the hardware CPU-side share (L2-interface
        # occupancy + one issue cycle) must equal the published value.
        from repro.memsys.params import HW_CPU_SIDE_PS
        params = hardware()
        assert predict_case_ps(params, case) + HW_CPU_SIDE_PS == target_ns * 1000

    @pytest.mark.parametrize("case,target_ns", sorted(TABLE3_UNTUNED_NS.items()))
    def test_untuned_params_hit_table3(self, case, target_ns):
        from repro.memsys.params import UNTUNED_CPU_SIDE_PS
        params = flashlite_untuned()
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
        hooks[0].l2.pop(paddr >> 7)     # evicted first, as the interface does
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
        finish_fl = self._burst_latencies(hardware())
        finish_numa = self._burst_latencies(numa())
        # The NUMA model omits protocol-processor occupancy, so a burst to
        # one home finishes markedly earlier than under FlashLite.
        assert finish_numa < finish_fl

    def test_numa_still_models_memory_contention(self):
        # With DRAM as the only contended resource, a big burst must still
        # take longer than a single access.
        env, mem, _hooks = build(params=numa())
        single = run_request(env, mem, 2, node_base(1) + 0x100, MemKind.READ)
        finish = self._burst_latencies(numa(), n_requesters=12)
        assert finish > single

    def test_same_line_requests_serialize(self):
        env, mem, _hooks = build()
        paddr = node_base(1) + 0x2000
        events = [mem.request(n, paddr, MemKind.READ) for n in (2, 4, 8)]
        env.run(until=env.all_of(events))
        assert mem.stats["line_busy_waits"] >= 1
        entry = mem.directory_of(paddr)
        assert entry.sharers == {2, 4, 8}


# -- the plan walker against the coroutines it replaced ----------------------

_spec = importlib.util.spec_from_file_location(
    "refresh_goldens",
    Path(__file__).resolve().parent.parent / "scripts" / "refresh_goldens.py")
_refresh = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_refresh)


class _LoggedNode(StubNode):
    """A ``StubNode`` that also logs every hook call with its time."""

    def __init__(self, env, node, log):
        super().__init__()
        self._env, self._node, self._log = env, node, log

    def l2_peek(self, line):
        self._log.append(("peek", self._node, line, self._env.now))
        return super().l2_peek(line)

    def l2_downgrade(self, line):
        self._log.append(("downgrade", self._node, line, self._env.now))
        super().l2_downgrade(line)

    def l2_invalidate(self, line):
        self._log.append(("invalidate", self._node, line, self._env.now))
        super().l2_invalidate(line)

    def l2_fill(self, line, state):
        self._log.append(("fill", self._node, line, state, self._env.now))
        super().l2_fill(line, state)


def _drive(dsm_class, params, program, observe):
    """Run *program* -- ``(node, line_no, store, gap_ps)`` accesses, each
    issued *gap_ps* after the one before without waiting for it -- on a
    fresh 4-node memory system; everything either implementation could
    order differently comes back."""
    n_nodes = 4
    env = Engine()
    env.tracer = when = _refresh._WhenDigest()
    mem = dsm_class(env, n_nodes, PARAM_SETS[params](), LINE)
    log = []
    nodes = [_LoggedNode(env, node, log) for node in range(n_nodes)]
    for node, hook in enumerate(nodes):
        mem.attach(node, hook)
    outstanding = set()

    def finished(event, index, key):
        outstanding.discard(key)
        log.append(("done", index, event.value, env.now))

    def issue_all():
        for index, (node, line_no, store, gap) in enumerate(program):
            yield env.timeout(gap)
            paddr = node_base(line_no % n_nodes) + (line_no // n_nodes) * LINE
            key = (node, paddr // LINE)
            if key in outstanding:
                continue
            state = nodes[node].l2.get(key[1])
            if state == MODIFIED:
                if store:
                    continue            # a store hit
                nodes[node].l2.pop(key[1])
                kind = MemKind.WRITEBACK
            elif state == CACHE_SHARED:
                if not store:
                    continue            # a load hit
                kind = MemKind.UPGRADE
            else:
                kind = MemKind.WRITE if store else MemKind.READ
            log.append(("issue", index, node, kind, env.now))
            event = mem.request(node, paddr, kind)
            if kind != MemKind.WRITEBACK:
                outstanding.add(key)
                event.add_waiter(
                    lambda ev, index=index, key=key: finished(ev, index, key))

    env.process(issue_all())
    probe = _refresh._ProbeDigest()
    if observe:
        with obs_hooks.observing(TxnRecorder(), probe):
            env.run()
    else:
        env.run()
    assert disagreements(mem, {n: hook.l2 for n, hook in enumerate(nodes)}) \
        == []
    return mem, {
        "log": log, "now": env.now, "events": env.events_processed,
        "when": when.hexdigest(), "state": json.dumps(mem.snapshot()),
        "probe": (probe.events, probe.hexdigest()),
    }


#: Gaps between accesses: none (a burst), and around a miss's latency.
_GAPS = (0, 0, 50_000, 300_000, 1_000_000, 3_000_000)


def _program(seed, length=60):
    rng = random.Random(seed)
    return [(rng.randrange(4), rng.randrange(6), rng.random() < 0.5,
             rng.choice(_GAPS))
            for _ in range(length)]


_ACCESS = st.tuples(st.integers(0, 3), st.integers(0, 5), st.booleans(),
                    st.sampled_from(_GAPS))


class TestPlansMatchCoroutines:
    """``tests/dsm_reference.py`` keeps the coroutine transaction bodies
    the plans replaced.  Racing accesses from four nodes to six lines
    homed on all of them must produce, under both, the same calendar
    (every entry's time, the event count, the final clock), the same
    hook calls at the same times, the same completion times, the same
    end-of-run memory-system state with every order kept, and -- under
    the probe -- the same probe stream, sealed transaction records
    included."""

    PARAMS = ("hardware", "numa", "flashlite_untuned")

    @pytest.mark.parametrize("params", PARAMS)
    def test_seeded_programs_reach_every_branch(self, params):
        reached = Counter()
        for seed in range(12):
            program = _program(seed)
            observe = seed % 2 == 1
            reference, expected = _drive(ReferenceDsm, params, program,
                                         observe)
            _, got = _drive(DsmMemorySystem, params, program, observe)
            assert got == expected, f"seed {seed}"
            reached.update(reference.branches)
        # Every protocol path the plans split into ran somewhere above.
        for branch in ("busy_wait", "writeback_busy_wait", "race_to_memory",
                       "upgrade_race", "inval_at_home", "sharing_writeback",
                       f"intervene_{LOCAL_DIRTY_REMOTE}",
                       f"intervene_{REMOTE_DIRTY_HOME}",
                       f"intervene_{REMOTE_DIRTY_REMOTE}"):
            assert reached[branch] > 0, (branch, dict(reached))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_ACCESS, min_size=1, max_size=40),
           st.sampled_from(PARAMS), st.booleans())
    def test_random_programs(self, program, params, observe):
        _, expected = _drive(ReferenceDsm, params, program, observe)
        _, got = _drive(DsmMemorySystem, params, program, observe)
        assert got == expected
