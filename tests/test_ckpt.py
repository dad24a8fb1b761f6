"""repro.ckpt lock-down net: round-trip determinism, injection, bisection.

The checkpoint subsystem's whole contract is that a straight run and a
save-at-cycle-N + restore + run are *indistinguishable*, for any N.
This module pins that contract:

* per-component state survives a capture -> inject round trip exactly
  (caches, TLB LRU order, write buffer, directory, fabric queues, RNG
  streams, event-calendar tie order);
* a machine refuses to inject a state carrying live coroutine machinery
  (that is what replay-mode restore is for), naming every blocker in one
  error, and refuses a state captured by another core family;
* the whole-machine property: saving at an arbitrary instant in either
  mode and restoring by either method reproduces the straight run's
  RunResult dict bit for bit, across the determinism suite's
  config x shape lineup (and, hypothesis-driven, at random fractions);
* stale checkpoints (source drift) are rejected with an actionable
  message, never a pickle/KeyError;
* warm starts via the content-addressed store skip the initialization
  prefix; divergence bisection finds the first divergent event within
  its binary-search probe budget;
* the coverage rule (L3 in ``repro.lint``) and the hot-path import ban
  on ``repro.ckpt`` (L2) run in-suite, like the tracer lint.
"""

import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ckpt
from repro.ckpt.bisect import EventStreamRecorder, first_divergence
from repro.ckpt.checkpoint import CheckpointGate
from repro.common.config import TINY_SCALE
from repro.common.errors import CheckpointError, SimulationError
from repro.common.rng import RngStream
from repro.engine import Engine
from repro.obs import hooks as obs_hooks
from repro.obs.topo import TopoRecorder
from repro.obs.trace import TraceRecorder
from repro.obs.txn import TxnRecorder
from repro.sim import RunRequest, hardware_config, simos_mipsy, simos_mxs
from repro.sim import machine as machine_mod
from repro.workloads import TlbTimer, make_app


_SETTINGS = settings(max_examples=6, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def tiny_request(mhz=150, n_cpus=1, scale=TINY_SCALE):
    return RunRequest(simos_mipsy(mhz), make_app("fft", scale),
                      n_cpus=n_cpus)


def tiny_batch():
    """The determinism suite's lineup: two clock rates x two CPU counts."""
    return [tiny_request(mhz, n_cpus)
            for mhz in (150, 225) for n_cpus in (1, 2)]


@pytest.fixture(scope="module")
def straight():
    """One straight tiny run, shared by the cheap tests."""
    return tiny_request().execute()


@pytest.fixture(scope="module")
def quiesced(straight):
    """An injectable checkpoint of the tiny run at half time."""
    return ckpt.save(tiny_request(), at_ps=straight.total_ps // 2,
                     mode=ckpt.MODE_QUIESCE)


def _injected_machine(checkpoint):
    return ckpt.restore(checkpoint, method="inject")


# -- per-component round trips --------------------------------------------


class TestComponentRoundTrips:
    """Injecting a captured state reproduces each component's view."""

    @pytest.fixture(scope="class")
    def recaptured(self, quiesced):
        machine = _injected_machine(quiesced)
        return quiesced.state, machine.ckpt_state()

    @pytest.mark.parametrize("component", [
        "registry", "allocator", "page_table", "memsys", "sync",
    ])
    def test_component_survives_injection(self, recaptured, component):
        saved, live = recaptured
        assert live[component] == saved[component]

    def test_engine_clock_survives_injection(self, recaptured):
        saved, live = recaptured
        # pending_dispatch differs by design: injection re-arms the cores'
        # resume dispatches, which the parked capture did not carry.
        drop = "pending_dispatch"
        assert {k: v for k, v in live["engine"].items() if k != drop} \
            == {k: v for k, v in saved["engine"].items() if k != drop}
        assert saved["engine"]["pending_dispatch"] == 0
        assert live["engine"]["pending_dispatch"] > 0

    def test_caches_survive_injection(self, recaptured):
        saved, live = recaptured
        for saved_if, live_if in zip(saved["ifaces"], live["ifaces"]):
            assert live_if["l1d"] == saved_if["l1d"]
            assert live_if["l2"] == saved_if["l2"]

    def test_tlb_preserves_lru_order(self, recaptured):
        saved, live = recaptured
        for saved_if, live_if in zip(saved["ifaces"], live["ifaces"]):
            # Order-sensitive comparison: vpns list oldest-first.
            assert live_if["tlb"]["vpns"] == saved_if["tlb"]["vpns"]
            assert len(saved_if["tlb"]["vpns"]) > 0

    def test_write_buffer_and_icache_survive_injection(self, recaptured):
        saved, live = recaptured
        for saved_if, live_if in zip(saved["ifaces"], live["ifaces"]):
            saved_wb, live_wb = saved_if["write_buffer"], live_if["write_buffer"]
            assert saved_wb["stats"] == live_wb["stats"]
            # Fired (retired) stores are architecturally invisible, so the
            # restoring buffer drops them rather than re-materialize events.
            assert all(saved_wb["pending"])
            assert live_wb["pending"] == []
            assert live_if["icache"] == saved_if["icache"]
            assert len(saved_if["icache"]) > 0

    def test_directory_survives_injection(self, recaptured):
        saved, live = recaptured
        for saved_node, live_node in zip(saved["memsys"]["magic"],
                                         live["memsys"]["magic"]):
            assert live_node["directory"] == saved_node["directory"]
        total_entries = sum(len(node["directory"]["entries"])
                            for node in saved["memsys"]["magic"])
        assert total_entries > 0

    def test_cores_survive_injection(self, recaptured):
        saved, live = recaptured
        assert live["cores"] == saved["cores"]
        assert saved["cores"][0]["trace_pos"] > 0
        assert not saved["cores"][0]["done"]


def _busy(resource):
    return {**resource, "in_use": 1, "busy_since": 0}


def _hold_lock(state):
    state["sync"]["locks"] = [[7, _busy(state["memsys"]["magic"][0]["pp"])]]


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(state):
        for step in path:
            state = state[step]
        state[key] = value(state[key]) if callable(value) else value
    return mutate


#: (case, tamper, what the blocker names) -- one case per blocker kind
#: ``injection_blockers`` knows, on a two-CPU quiescent state.
BLOCKER_CASES = [
    ("calendar", _set("engine", "heap", [[1, 1, "callback"]]),
     "1 events on the calendar"),
    ("dispatch", _set("engine", "pending_dispatch", 2),
     "2 pending dispatches"),
    ("mshr", _set("ifaces", 0, "mshr", [[64, False]]),
     "iface0: 1 MSHR transactions"),
    ("write_buffer", _set("ifaces", 1, "write_buffer", "pending", [False]),
     "iface1: 1 unfired write-buffer entries"),
    ("miss_slots", _set("cores", 0, "inflight", [[True, 0.0]]),
     "cpu0: 1 occupied miss slots"),
    ("barrier", _set("sync", "barriers", [[0, 1]]), "1 open barriers"),
    ("lock", _hold_lock, "lock7 busy"),
    ("link", _set("memsys", "net", "links", 0, 1, _busy),
     "network link 0->1 busy"),
    ("pp", _set("memsys", "magic", 1, "pp", _busy),
     "node1: protocol processor busy"),
    ("dram", _set("memsys", "magic", 0, "dram", _busy),
     "node0: DRAM bank busy"),
    ("directory", _set("memsys", "magic", 0, "directory", "entries", 0, 1,
                       "busy", True),
     "node0: 1 busy directory lines"),
]


class TestInjectionBlockers:
    """Injectability is judged once: every blocker ``injection_blockers``
    lists is what ``Machine.begin(state=)`` refuses with, all at once."""

    @pytest.fixture(scope="class")
    def quiesced_p2(self, straight):
        checkpoint = ckpt.save(tiny_request(n_cpus=2),
                               at_ps=straight.total_ps // 2,
                               mode=ckpt.MODE_QUIESCE)
        assert ckpt.injection_blockers(checkpoint.state) == []
        return checkpoint

    def _inject(self, checkpoint, state):
        request = checkpoint.request()
        request.machine().begin(request.workload, state=state)

    def _tampered(self, checkpoint, *mutations):
        state = json.loads(json.dumps(checkpoint.state))
        for mutate in mutations:
            mutate(state)
        return state

    def test_one_check_is_the_machines(self):
        assert ckpt.injection_blockers is machine_mod.injection_blockers

    @pytest.mark.parametrize("mutate,named",
                             [case[1:] for case in BLOCKER_CASES],
                             ids=[case[0] for case in BLOCKER_CASES])
    def test_blocker_is_listed_and_refused(self, quiesced_p2, mutate, named):
        state = self._tampered(quiesced_p2, mutate)
        assert ckpt.injection_blockers(state) == [named]
        with pytest.raises(SimulationError, match=re.escape(named)):
            self._inject(quiesced_p2, state)

    def test_one_refusal_names_every_blocker(self, quiesced_p2):
        # Three components that used to refuse one at a time, with three
        # different exception types.
        picked = [case for case in BLOCKER_CASES
                  if case[0] in ("calendar", "write_buffer", "directory")]
        state = self._tampered(quiesced_p2, *(case[1] for case in picked))
        with pytest.raises(SimulationError) as info:
            self._inject(quiesced_p2, state)
        for _name, _mutate, named in picked:
            assert named in str(info.value)

    def test_window_state_into_in_order_core_is_named(self, quiesced):
        state = self._tampered(quiesced,
                               _set("cores", 0, "miss_ema", 0.0),
                               _set("cores", 0, "inflight", []))
        assert ckpt.injection_blockers(state) == []
        with pytest.raises(SimulationError,
                           match=r"cpu0: .*'inflight'.*MipsyCore"):
            self._inject(quiesced, state)

    def test_window_cores_share_their_fields(self):
        # Why MXS <-> R10K (hardware) bisection injects.
        fields = [sorted(RunRequest(config, make_app("fft", TINY_SCALE))
                         .machine().cores[0].ckpt_state())
                  for config in (simos_mxs(), hardware_config())]
        assert fields[0] == fields[1]
        assert "inflight" in fields[0]

    def test_in_order_state_into_window_core_is_named(self, quiesced):
        with pytest.raises(CheckpointError,
                           match=r"simos-mxs.*cpu0: .*MxsCore.*'inflight'"):
            ckpt.bisect_divergence(
                simos_mipsy(150), simos_mxs(), make_app("fft", TINY_SCALE),
                checkpoint=quiesced)


class TestEventCalendar:
    """The engine's calendar view keeps same-time ordering ties."""

    def test_tie_order_captured_by_sequence(self):
        env = Engine()

        def cb(_arg):
            pass

        env.schedule_at(5, cb, None)
        env.schedule_at(5, cb, None)
        heap = env.ckpt_state()["heap"]
        assert [entry[0] for entry in heap] == [5, 5]
        assert heap[0][1] < heap[1][1]  # FIFO among ties

    def test_pause_by_events_resumes_identically(self, straight):
        request = tiny_request()
        machine = request.machine()
        machine.begin(request.workload)
        assert machine.advance(max_events=1000) is False
        assert machine.advance() is True
        assert machine.finish().to_dict() == straight.to_dict()


class TestRngStream:
    def test_round_trip_preserves_position(self):
        stream = RngStream("test-stream", seed=7)
        stream.integers(0, 100, size=5)
        state = json.loads(json.dumps(stream.ckpt_state()))
        clone = RngStream("test-stream", seed=7)
        clone.ckpt_restore(state)
        assert list(clone.integers(0, 100, size=8)) \
            == list(stream.integers(0, 100, size=8))

    def test_substream_round_trips(self):
        sub = RngStream("parent", seed=3).substream("child", "leaf")
        sub.integers(0, 10, size=3)
        clone = RngStream("parent", seed=3).substream("child", "leaf")
        clone.ckpt_restore(sub.ckpt_state())
        assert list(clone.integers(0, 10, size=4)) \
            == list(sub.integers(0, 10, size=4))

    def test_restore_rejects_wrong_stream(self):
        state = RngStream("one", seed=1).ckpt_state()
        with pytest.raises(ValueError):
            RngStream("other", seed=1).ckpt_restore(state)


# -- whole-machine round-trip determinism ---------------------------------


class TestRoundTripDeterminism:
    def test_replay_restore_matches_straight(self, straight):
        checkpoint = ckpt.save(tiny_request(),
                               at_ps=straight.total_ps // 2)
        assert not checkpoint.injectable
        assert ckpt.resume(checkpoint).to_dict() == straight.to_dict()

    def test_inject_restore_matches_straight(self, straight, quiesced):
        assert quiesced.injectable
        result = ckpt.resume(quiesced, method="inject")
        assert result.to_dict() == straight.to_dict()

    def test_quiesce_replay_restore_matches_straight(self, straight,
                                                     quiesced):
        result = ckpt.resume(quiesced, method="replay")
        assert result.to_dict() == straight.to_dict()

    def test_released_gate_never_parks_a_core_again(self):
        # Cores keep their gate argument for the rest of the run, so a
        # released gate must be open at every later clock value.
        gate = CheckpointGate(100)
        hold = gate.hold(0, Engine())
        gate.release()
        assert hold.fired and not gate.held
        assert not any(now >= gate.at_ps for now in (100, 10**15, 2**63))

    def test_checkpoint_survives_json(self, straight, quiesced):
        rehydrated = ckpt.Checkpoint.from_dict(
            json.loads(json.dumps(quiesced.to_dict())))
        assert rehydrated.digest == quiesced.digest
        assert ckpt.resume(rehydrated).to_dict() == straight.to_dict()

    @pytest.mark.slow
    def test_determinism_suite_round_trips(self):
        """Save at half time + restore == straight, for the full lineup."""
        for request in tiny_batch():
            straight = request.execute()
            checkpoint = ckpt.save(request, at_ps=straight.total_ps // 2,
                                   mode=ckpt.MODE_QUIESCE)
            for method in ("inject", "replay"):
                result = ckpt.resume(checkpoint, method=method)
                assert result.to_dict() == straight.to_dict(), \
                    f"{request.describe()} diverged via {method}"

    @pytest.mark.slow
    @_SETTINGS
    @given(fraction=st.floats(min_value=0.05, max_value=0.95),
           mhz=st.sampled_from([150, 225]))
    def test_save_anywhere_resumes_exactly(self, fraction, mhz):
        """The property: any cycle is a valid replay-mode save point."""
        request = tiny_request(mhz)
        straight = request.execute()
        at_ps = max(1, int(straight.total_ps * fraction))
        checkpoint = ckpt.save(request, at_ps=at_ps)
        assert ckpt.resume(checkpoint).to_dict() == straight.to_dict()


class TestCheckpointSafety:
    def test_stale_code_rejected_actionably(self, quiesced):
        stale = ckpt.Checkpoint.from_dict(quiesced.to_dict())
        stale.code = "0" * 64
        with pytest.raises(CheckpointError, match="Re-save"):
            ckpt.restore(stale)

    def test_replay_divergence_detected(self, quiesced):
        tampered = ckpt.Checkpoint.from_dict(
            json.loads(json.dumps(quiesced.to_dict())))
        tampered.digests["registry"] = "0" * 64
        with pytest.raises(CheckpointError, match="registry"):
            ckpt.restore(tampered, method="replay")

    def test_save_past_the_end_refused(self, straight):
        with pytest.raises(CheckpointError, match="completed"):
            ckpt.save(tiny_request(), at_ps=straight.total_ps * 2)

    def test_save_requires_a_stop_point(self):
        with pytest.raises(CheckpointError, match="stop point"):
            ckpt.save(tiny_request())

    def test_capture_refuses_obs_recorders(self):
        with obs_hooks.observing(TraceRecorder()):
            with pytest.raises(CheckpointError, match="TraceRecorder"):
                ckpt.save(tiny_request(), at_ps=100)

    @pytest.mark.parametrize("recorder", [TopoRecorder, TxnRecorder])
    def test_capture_refuses_every_stateful_recorder(self, recorder):
        # Regression: the hand-kept refusal list used to forget txn.
        with obs_hooks.observing(recorder()):
            with pytest.raises(CheckpointError, match=recorder.__name__):
                ckpt.save(tiny_request(), at_ps=100)

    def test_key_is_a_content_address(self):
        key = ckpt.checkpoint_key(tiny_request(), ckpt.MODE_QUIESCE, 100)
        assert len(key) == 64
        int(key, 16)
        assert key == ckpt.checkpoint_key(tiny_request(),
                                          ckpt.MODE_QUIESCE, 100)
        assert key != ckpt.checkpoint_key(tiny_request(),
                                          ckpt.MODE_QUIESCE, 200)
        assert key != ckpt.checkpoint_key(tiny_request(225),
                                          ckpt.MODE_QUIESCE, 100)


# -- the store and warm starts --------------------------------------------


class TestCheckpointStore:
    def test_put_get_round_trip(self, tmp_path, quiesced):
        store = ckpt.CheckpointStore(tmp_path)
        store.put(quiesced)
        assert len(store) == 1
        found = store.get(quiesced.key)
        assert found is not None and found.digest == quiesced.digest

    def test_env_var_overrides_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ckpt.CKPT_DIR_ENV, str(tmp_path / "elsewhere"))
        assert ckpt.default_ckpt_dir() == tmp_path / "elsewhere"
        monkeypatch.delenv(ckpt.CKPT_DIR_ENV)
        assert ckpt.default_ckpt_dir().name == "ckpt"

    def test_warm_start_skips_initialization(self, tmp_path):
        """The injected machine starts past the checkpoint's event prefix."""
        request = RunRequest(simos_mipsy(150), TlbTimer(TINY_SCALE), 1)
        checkpoint = ckpt.save(request, at_ps=1, mode=ckpt.MODE_QUIESCE)
        skipped = checkpoint.stop["events_processed"]
        assert skipped > 0
        machine = ckpt.restore(checkpoint, method="inject")
        assert machine.env.events_processed == skipped
        assert machine.cores[0].trace_pos > 0


# -- bisection ------------------------------------------------------------


class TestBisect:
    def test_first_divergence_prefix_property(self):
        a = ["h0", "h1", "h2", "x3", "x4"]
        b = ["h0", "h1", "h2", "h3", "h4"]
        index, probes = first_divergence(a, b)
        assert index == 3
        assert probes <= math.ceil(math.log2(len(a))) + 1

    def test_first_divergence_identical_and_prefix(self):
        chain = ["h0", "h1", "h2"]
        assert first_divergence(chain, list(chain))[0] is None
        assert first_divergence(chain, chain[:2])[0] == 2

    def test_recorder_chains_are_prefix_closed(self):
        rec_a, rec_b = EventStreamRecorder(), EventStreamRecorder()
        for rec in (rec_a, rec_b):
            rec.span(10, "engine", "alpha")
            rec.span(20, "engine", "beta")
        rec_a.span(30, "engine", "gamma")
        rec_b.span(30, "engine", "delta")
        assert rec_a.chain[:2] == rec_b.chain[:2]
        assert rec_a.chain[2] != rec_b.chain[2]

    @pytest.mark.slow
    def test_bisect_demo_finds_first_divergent_event(self, straight):
        """Two clock rates from a shared state: the divergence is found
        with a probe count within the binary-search budget."""
        workload = make_app("fft", TINY_SCALE)
        report = ckpt.bisect_divergence(
            simos_mipsy(150), simos_mipsy(225), workload,
            n_cpus=1, at_ps=straight.total_ps // 2)
        assert not report.identical
        assert report.probes <= report.probe_budget
        assert report.event_a is not None and report.event_b is not None
        assert report.event_a["when_ps"] >= report.resumed_at_ps
        assert report.neighborhood_a and report.neighborhood_b
        assert report.context_a and report.context_b  # obs span context
        text = report.format()
        assert "first divergent event" in text
        assert str(report.event_a["when_ps"]) in text

    @pytest.mark.slow
    def test_bisect_same_config_is_identical(self, straight):
        workload = make_app("fft", TINY_SCALE)
        report = ckpt.bisect_divergence(
            simos_mipsy(150), simos_mipsy(150), workload,
            n_cpus=1, at_ps=straight.total_ps // 2)
        assert report.identical
        assert report.events_a == report.events_b


    #: What the earlier bisector (a recorded and a traced replay per side)
    #: returned for the two pairs above; the checkpoint key is left out
    #: because it is keyed by the source fingerprint.
    RECORDED = {
        225: dict(index=0, probes=16, events_a=26476, events_b=26475,
                  event_a={"event": "Event._fire", "when_ps": 3947099122},
                  event_b={"event": "Steps._walk", "when_ps": 3944768839},
                  spans_a=["barrier_arrive", "barrier_release",
                           "barrier_wait", "miss", "l1d0.miss", "l20.miss"],
                  spans_b=["total", "txn.read", "chunk:fft/row_fft",
                           "barrier_arrive", "barrier_release", "pp.home"]),
        150: dict(index=None, probes=1, events_a=26476, events_b=26476,
                  event_a=None, event_b=None, spans_a=[], spans_b=[]),
    }

    @pytest.mark.slow
    @pytest.mark.parametrize("mhz_b", sorted(RECORDED))
    def test_bisect_result_is_the_recorded_one(self, straight, mhz_b):
        """One replay per side feeds the digest chain and the span tracer;
        the result equals the two-replays-per-side bisector's."""
        report = ckpt.bisect_divergence(
            simos_mipsy(150), simos_mipsy(mhz_b), make_app("fft", TINY_SCALE),
            n_cpus=1, at_ps=straight.total_ps // 2)
        assert straight.total_ps // 2 == 3402154282
        assert report.resumed_at_ps == 3944713839
        got = {field: getattr(report, field) for field in
               ("index", "probes", "events_a", "events_b", "event_a",
                "event_b")}
        got["spans_a"] = [span["name"] for span in report.context_a]
        got["spans_b"] = [span["name"] for span in report.context_b]
        assert got == self.RECORDED[mhz_b]


# -- command line ---------------------------------------------------------


class TestCli:
    def _main(self, argv):
        from repro.ckpt.cli import main
        return main(argv)

    @pytest.mark.slow
    def test_save_info_restore_flow(self, tmp_path, capsys, straight):
        store_dir = str(tmp_path / "store")
        argv = ["save", "fft", "--config", "mipsy", "--scale", "tiny",
                "--at-ps", str(straight.total_ps // 2),
                "--mode", "quiesce", "--checkpoint-dir", store_dir]
        assert self._main(argv) == 0
        out = capsys.readouterr().out
        assert "injectable" in out and "stored:" in out
        key16 = out.split()[1]
        assert self._main(["info", key16,
                           "--checkpoint-dir", store_dir]) == 0
        assert "quiesce" in capsys.readouterr().out
        assert self._main(["restore", key16, "--run",
                           "--checkpoint-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "injected" in out and "parallel" in out

    def test_checkpoint_dir_parent_validated(self, tmp_path):
        with pytest.raises(SystemExit):
            self._main(["save", "fft", "--at-ps", "5", "--checkpoint-dir",
                        str(tmp_path / "no" / "such" / "store")])

    def test_unwritable_store_exits_2_naming_the_path(self, tmp_path,
                                                      capsys):
        # Regression: save used to print "stored: ..." and exit 0 with
        # nothing on disk, or die with a raw traceback from mkdir.
        occupied = tmp_path / "occupied"
        occupied.write_text("an existing file, not a directory")
        rc = self._main(["save", "fft", "--config", "mipsy", "--scale",
                         "tiny", "--events", "50",
                         "--checkpoint-dir", str(occupied)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "cannot store checkpoint" in captured.err
        assert str(occupied) in captured.err
        assert "stored:" not in captured.out

    def test_unknown_checkpoint_is_actionable(self, tmp_path, capsys):
        rc = self._main(["info", "feedbeef" * 8,
                         "--checkpoint-dir", str(tmp_path / "s")])
        assert rc == 2
        assert "no checkpoint" in capsys.readouterr().err


# -- lint guards ----------------------------------------------------------


class TestLints:
    def test_ckpt_coverage_rule_passes(self):
        from repro.lint.engine import repo_root, run_lint
        report = run_lint(repo_root(), rules=["L3"])
        assert report.ok, report.format()

    def test_ckpt_import_ban_passes(self):
        from repro.lint.engine import repo_root, run_lint
        report = run_lint(repo_root(), rules=["L2"])
        assert report.ok, report.format()

    def test_ckpt_import_ban_catches_violations(self, tmp_path):
        from repro.lint.engine import run_lint
        bad = tmp_path / "src" / "repro" / "mem" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("from repro.ckpt import save\n"
                       "import repro.ckpt.store\n")
        report = run_lint(tmp_path, rules=["L2"])
        assert [v.line for v in report.violations] == [1, 2]
        # Model code needs nothing from repro.ckpt: no slot is offered.
        assert all("needs nothing" in v.hint for v in report.violations)

    def test_coverage_rule_flags_uncovered_stateful_class(self):
        import ast
        from repro.lint.rules import _assigns_self_container
        tree = ast.parse("class Leaky:\n"
                         "    def __init__(self):\n"
                         "        self.entries = {}\n")
        fn = tree.body[0].body[0]
        assert _assigns_self_container(fn)
        covered = ast.parse("class Fine:\n"
                            "    def __init__(self):\n"
                            "        self.x = 3\n")
        assert not _assigns_self_container(covered.body[0].body[0])
