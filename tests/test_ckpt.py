"""repro.ckpt lock-down net: round-trip determinism, injection, bisection.

The checkpoint subsystem's whole contract is that a straight run and a
save-at-cycle-N + restore + run are *indistinguishable*, for any N.
This module pins that contract:

* per-component state survives a capture -> inject round trip exactly
  (caches, TLB LRU order, write buffer, directory, fabric queues, RNG
  streams, event-calendar tie order);
* components refuse to inject states carrying live coroutine machinery
  (that is what replay-mode restore is for);
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

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ckpt
from repro.ckpt.bisect import EventStreamRecorder, first_divergence
from repro.ckpt.checkpoint import CheckpointGate
from repro.common.config import TINY_SCALE
from repro.common.errors import (
    CheckpointError,
    ProtocolError,
    SimulationError,
)
from repro.common.rng import RngStream
from repro.engine import Engine
from repro.obs import hooks as obs_hooks
from repro.obs.topo import TopoRecorder
from repro.obs.trace import TraceRecorder
from repro.obs.txn import TxnRecorder
from repro.sim import RunRequest, simos_mipsy
from repro.workloads import TlbTimer, make_app


_SETTINGS = settings(max_examples=6, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def tiny_request(mhz=150, n_cpus=1, scale=TINY_SCALE):
    return RunRequest(simos_mipsy(mhz), make_app("fft", scale),
                      n_cpus=n_cpus, scale=scale)


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


class TestComponentRefusals:
    """States carrying live machinery cannot be injected."""

    def _restore_tampered(self, checkpoint, mutate):
        state = json.loads(json.dumps(checkpoint.state))
        mutate(state)
        request = checkpoint.request()
        request.machine().begin(request.workload, state=state)

    def test_engine_refuses_live_calendar(self, quiesced):
        with pytest.raises(SimulationError, match="live events"):
            self._restore_tampered(
                quiesced,
                lambda s: s["engine"]["heap"].append([1, 1, "callback"]))

    def test_write_buffer_refuses_unfired_stores(self, quiesced):
        def mutate(state):
            state["ifaces"][0]["write_buffer"]["pending"] = [False]
        with pytest.raises(ValueError, match="unfired in-flight stores"):
            self._restore_tampered(quiesced, mutate)

    def test_directory_refuses_busy_lines(self, quiesced):
        def mutate(state):
            entries = state["memsys"]["magic"][0]["directory"]["entries"]
            entries[0][1]["busy"] = True
        with pytest.raises(ProtocolError, match="transactions in"):
            self._restore_tampered(quiesced, mutate)

    def test_resource_refuses_occupancy(self, quiesced):
        def mutate(state):
            state["memsys"]["magic"][0]["pp"]["in_use"] = 1
        with pytest.raises(SimulationError, match="busy resource"):
            self._restore_tampered(quiesced, mutate)

    def test_sync_refuses_open_barriers(self, quiesced):
        def mutate(state):
            state["sync"]["barriers"] = [[0, 1]]
        with pytest.raises(SimulationError, match="barrier"):
            self._restore_tampered(quiesced, mutate)

    def test_mshr_refuses_transactions(self, quiesced):
        def mutate(state):
            state["ifaces"][0]["mshr"] = [[64, False]]
        with pytest.raises(SimulationError, match="MSHR"):
            self._restore_tampered(quiesced, mutate)

    def test_blockers_explain_every_refusal(self, quiesced):
        state = json.loads(json.dumps(quiesced.state))
        assert ckpt.injection_blockers(state) == []
        state["engine"]["heap"].append([1, 1, "callback"])
        state["sync"]["barriers"] = [[0, 1]]
        blockers = ckpt.injection_blockers(state)
        assert any("calendar" in b for b in blockers)
        assert any("barrier" in b for b in blockers)


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

    def test_restore_refuses_live_heap_on_either_side(self):
        env = Engine()
        env.schedule_at(5, lambda _arg: None, None)
        state = env.ckpt_state()
        with pytest.raises(SimulationError, match="live events"):
            Engine().ckpt_restore(state)
        idle = Engine().ckpt_state()
        with pytest.raises(SimulationError, match="scheduled events"):
            env.ckpt_restore(idle)

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
        request = RunRequest(simos_mipsy(150), TlbTimer(TINY_SCALE), 1,
                             TINY_SCALE)
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
            n_cpus=1, scale=TINY_SCALE, at_ps=straight.total_ps // 2)
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
            n_cpus=1, scale=TINY_SCALE, at_ps=straight.total_ps // 2)
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
            n_cpus=1, scale=TINY_SCALE, at_ps=straight.total_ps // 2)
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
