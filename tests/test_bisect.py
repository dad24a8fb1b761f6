"""Divergence bisection (``repro.obs.bisect``): fork at a quiescent gate.

* the digest chain and its binary search keep the prefix property;
* the bisector returns, field by field, what the checkpoint-injecting
  bisector it replaced returned for three fft pairs (clock, tuning, DSM
  parameters), and a P=2 radix pin recorded when radix began to sort;
* a core parks at the gate on its own clock, ahead of the engine's;
* window cores can be bisected (their occupied miss slots used to
  refuse injection), and a configuration against itself is identical;
* :meth:`Machine.reconfigure` refuses another machine shape in one error
  naming both sides, and a failing child is one clear error with no
  child left behind;
* ``python -m repro.obs bisect`` exits 1 on divergence, 2 on a refusal.
"""

import math
import os

import pytest

from repro.common.config import TINY_SCALE
from repro.common.errors import ReproError
from repro.isa.trace import Barrier, ChunkExec
from repro.memsys.params import numa
from repro.obs.bisect import (
    EventStreamRecorder,
    Gate,
    bisect_divergence,
    first_divergence,
)
from repro.obs.cli import main as obs_main
from repro.sim import (
    Machine,
    RunRequest,
    hardware_config,
    simos_mipsy,
    simos_mxs,
    solo_mipsy,
)
from repro.sim.configs import get_config
from repro.workloads import make_app
from repro.workloads.base import Workload
from repro.workloads.builder import ChunkBuilder


def half_time(config, app, n_cpus=1):
    workload = make_app(app, TINY_SCALE)
    straight = RunRequest(config, workload, n_cpus).execute()
    return workload, straight.total_ps // 2


@pytest.fixture(scope="module")
def fft_half():
    """fft on simos-mipsy-150, P=1: the workload and half its run."""
    return half_time(simos_mipsy(150), "fft")


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
    def test_bisect_demo_finds_first_divergent_event(self, fft_half):
        """Two clock rates from a shared state: the divergence is found
        with a probe count within the binary-search budget."""
        workload, half = fft_half
        report = bisect_divergence(simos_mipsy(150), simos_mipsy(225),
                                   workload, n_cpus=1, at_ps=half)
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
    def test_bisect_same_config_is_identical(self, fft_half):
        workload, half = fft_half
        report = bisect_divergence(simos_mipsy(150), simos_mipsy(150),
                                   workload, n_cpus=1, at_ps=half)
        assert report.identical
        assert report.events_a == report.events_b

    #: What the checkpoint-injecting bisector returned with A =
    #: simos-mipsy-150 stopped at half its straight run: case id ->
    #: ((B, workload, P), report fields and context-span names).  The
    #: radix case is what the forking bisector returned once radix's
    #: second pass read its input in slot order (the workload moved); it
    #: resumes before its gate time because a core parks on its own
    #: clock (``test_a_core_parks_on_its_own_clock``).
    RECORDED = {
        "150": (("simos-mipsy-150", "fft", 1), dict(
            half_ps=3402154282, resumed_at_ps=3944713839, index=None,
            probes=1, events_a=26476, events_b=26476, event_a=None,
            event_b=None, spans_a=[], spans_b=[])),
        "225": (("simos-mipsy-225", "fft", 1), dict(
            half_ps=3402154282, resumed_at_ps=3944713839, index=0,
            probes=16, events_a=26476, events_b=26475,
            event_a={"event": "Event._fire", "when_ps": 3947099122},
            event_b={"event": "Steps._walk", "when_ps": 3944768839},
            spans_a=["barrier_arrive", "barrier_release", "barrier_wait",
                     "miss", "l1d0.miss", "l20.miss"],
            spans_b=["total", "txn.read", "chunk:fft/row_fft",
                     "barrier_arrive", "barrier_release", "pp.home"])),
        # Core and DsmParams both change.
        "150-tuned": (("simos-mipsy-150-tuned", "fft", 1), dict(
            half_ps=3402154282, resumed_at_ps=3944713839, index=1,
            probes=16, events_a=26476, events_b=26476,
            event_a={"event": "Steps._walk", "when_ps": 3947154122},
            event_b={"event": "Steps._walk", "when_ps": 3947184122},
            spans_a=["total", "txn.read", "chunk:fft/row_fft",
                     "barrier_arrive", "barrier_release", "pp.home"],
            spans_b=["total", "txn.read", "chunk:fft/row_fft",
                     "barrier_arrive", "barrier_release", "pp.home"])),
        "radix-p2-300-tuned": (("simos-mipsy-300-tuned", "radix", 2), dict(
            half_ps=400751022, resumed_at_ps=355806103, index=0,
            probes=15, events_a=9477, events_b=9546,
            event_a={"event": "Event._fire", "when_ps": 404433327},
            event_b={"event": "Steps._walk", "when_ps": 355891103},
            spans_a=["total", "total", "barrier_arrive", "barrier_wait",
                     "barrier_arrive", "barrier_release"],
            spans_b=["pp.home", "pp.home", "pp.home", "refill",
                     "txn.upgrade", "txn.read"])),
    }

    @pytest.mark.slow
    @pytest.mark.parametrize("case", sorted(RECORDED))
    def test_bisect_result_is_the_recorded_one(self, case):
        (config_b, app, n_cpus), want = self.RECORDED[case]
        workload, half = half_time(simos_mipsy(150), app, n_cpus)
        report = bisect_divergence(
            simos_mipsy(150), get_config(config_b), workload,
            n_cpus=n_cpus, at_ps=half)
        got = {field: getattr(report, field) for field in
               ("resumed_at_ps", "index", "probes", "events_a", "events_b",
                "event_a", "event_b")}
        got["half_ps"] = half
        got["spans_a"] = [span["name"] for span in report.context_a]
        got["spans_b"] = [span["name"] for span in report.context_b]
        assert got == want

    @pytest.mark.slow
    def test_a_core_parks_on_its_own_clock(self):
        """The gate is judged on each core's local clock, which runs
        ahead of the engine's between synchronisations: radix at P=2
        quiesces with both cores held past the line while the engine's
        clock, where the bisector resumes, is still short of it."""
        workload, half = half_time(simos_mipsy(150), "radix", 2)
        gate = Gate(half)
        machine = RunRequest(simos_mipsy(150), workload, 2).machine()
        machine.begin(workload, gate=gate)
        assert not machine.advance_until_blocked()
        assert gate.held == {0, 1}
        assert min(core.time_ps() for core in machine.cores) >= half
        assert machine.env.now == 355806103 < half


class TestWindowCores:
    """The paper's central comparison, R10K against MXS: window cores
    park at the gate with occupied miss slots, which the fork keeps."""

    @pytest.fixture(scope="class")
    def fft_p2_half(self):
        return half_time(hardware_config(), "fft", 2)

    @pytest.mark.slow
    def test_hardware_against_mxs_diverges_within_budget(self, fft_p2_half):
        workload, half = fft_p2_half
        report = bisect_divergence(hardware_config(), simos_mxs(True),
                                   workload, n_cpus=2, at_ps=half)
        assert not report.identical
        assert report.probes <= report.probe_budget
        assert report.event_a is not None and report.event_b is not None
        assert report.context_a and report.context_b

    @pytest.mark.slow
    def test_window_config_against_itself_is_identical(self, fft_p2_half):
        workload, half = fft_p2_half
        report = bisect_divergence(hardware_config(), hardware_config(),
                                   workload, n_cpus=2, at_ps=half)
        assert report.identical
        assert report.events_a == report.events_b


class Imbalanced(Workload):
    """cpu0 waits at a barrier while cpu1 computes past any early gate."""

    name = "imbalanced"

    def build(self, n_cpus):
        builder = ChunkBuilder("imbalanced/alu")
        builder.ialu(1, 1)
        alu = builder.build()
        return [[Barrier(0), ChunkExec(alu, reps=10)],
                [ChunkExec(alu, reps=1000), Barrier(0),
                 ChunkExec(alu, reps=10)]]


class TestRefusals:
    def test_reconfigure_names_every_difference_at_once(self):
        machine = Machine(simos_mipsy(150), 1, TINY_SCALE)
        other = solo_mipsy(150).derive(memsys=numa())
        with pytest.raises(ReproError) as info:
            machine.reconfigure(other)
        message = str(info.value)
        assert "simos-mipsy-150 into solo-mipsy-150" in message
        for part in ("TLB modelling True vs False",
                     "page allocator irix vs solo",
                     "DsmParams.contention True vs False"):
            assert part in message
        assert machine.config.name == "simos-mipsy-150"

    def test_in_order_against_window_core_names_both_classes(self):
        workload = make_app("fft", TINY_SCALE)
        with pytest.raises(ReproError,
                           match=r"cannot reconfigure simos-mipsy-150 into "
                                 r"simos-mxs-150: core class MipsyCore vs "
                                 r"MxsCore"):
            bisect_divergence(simos_mipsy(150), simos_mxs(), workload,
                              at_ps=1_000_000_000)

    def test_gate_past_the_end_is_refused(self):
        workload = make_app("fft", TINY_SCALE)
        with pytest.raises(ReproError, match="before reaching the gate"):
            bisect_divergence(simos_mipsy(150), simos_mipsy(225), workload,
                              at_ps=10 ** 15)

    def test_a_core_short_of_the_gate_is_named(self):
        with pytest.raises(ReproError,
                           match=r"failed to quiesce.*cpu0 blocked"):
            bisect_divergence(simos_mipsy(150), simos_mipsy(225),
                              Imbalanced(TINY_SCALE), n_cpus=2, at_ps=1)

    @pytest.mark.parametrize("how,named", [
        ("raise", r"SimulationError: unknown trace item"),
        ("exit", r"its process ended without a result"),
    ], ids=["raise", "exit"])
    def test_a_failing_child_is_one_clear_error(self, monkeypatch, how,
                                                named):
        reconfigure = Machine.reconfigure
        parent = os.getpid()

        def broken(machine, config):
            reconfigure(machine, config)
            if os.getpid() == parent:
                return          # the shape check before the run
            if how == "exit":
                os._exit(3)
            # B's replay meets an item no core knows.
            machine.traces[0].insert(machine.cores[0].trace_pos, "bogus")

        forked = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(Machine, "reconfigure", broken)
        monkeypatch.setattr(os, "fork", recording_fork)
        workload = make_app("fft", TINY_SCALE)
        with pytest.raises(ReproError,
                           match=r"the simos-mipsy-225 side failed after "
                                 r"the fork: " + named):
            bisect_divergence(simos_mipsy(150), simos_mipsy(225), workload,
                              at_ps=1_000_000_000)
        # The child was reaped: no zombie is left.
        (pid,) = forked
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestCli:
    ARGS = ["bisect", "fft", "--scale", "tiny", "--ref", "mipsy"]

    @pytest.mark.slow
    def test_divergence_exits_1_with_the_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert obs_main(self.ARGS + ["--cand", "simos-mipsy-225-tuned",
                                     "--at-ps", "4000000000",
                                     "--json", str(path)]) == 1
        out = capsys.readouterr().out
        assert "first divergent event: #" in out
        assert path.exists()

    def test_refused_shape_exits_2_naming_it(self, capsys):
        assert obs_main(self.ARGS + ["--cand", "mxs",
                                     "--at-ps", "1000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro.obs: cannot reconfigure ")
        assert "MipsyCore vs MxsCore" in err
