"""End-to-end integration tests: the paper's key stories at repro scale.

These are the expensive, load-bearing checks; each one pins a phenomenon
the figures depend on.  Module-scoped fixtures share gold-standard runs.
"""

import pytest

from repro.common.config import REPRO_SCALE, get_scale
from repro.memsys.params import PARAM_SETS, PROTOCOL_CASES, TABLE3_HARDWARE_NS
from repro.sim import (
    Machine,
    hardware_config,
    run_workload,
    simos_mipsy,
    simos_mxs,
    solo_mipsy,
)
from repro.sim.configs import get_config
from repro.validation import Tuner, measure_port_occupancy_cycles
from repro.workloads import (
    FftWorkload,
    OceanWorkload,
    RadixWorkload,
    make_app,
    measure_dependent_loads,
    measure_tlb_refill,
    pathological_radix,
    tuned_radix,
)
from tests.test_memsys import disagreements


def live_machinery(machine):
    """What is still in flight on *machine*, one line per kind and place
    (empty: nothing): calendar entries, dispatches, MSHR entries, unfired
    write-buffer entries, open barriers, busy directory lines, and busy
    or queued resources -- links, protocol processors, DRAM.  A
    window core's miss slots are not here; they are state the core keeps
    (``miss_slots``)."""
    live = []

    def count(n, what, where=""):
        if n:
            live.append(f"{where}{n} {what}")

    env = machine.env
    count(len(env._heap), "events on the calendar")
    count(len(env._queue), "pending dispatches")
    for iface in machine.ifaces:
        where = f"iface{iface.node}: "
        count(len(iface._mshr), "MSHR transactions", where)
        count(iface.write_buffer.snapshot()["pending"].count(False),
              "unfired write-buffer entries", where)
    count(machine.sync.open_barriers(), "open barriers")
    memsys = machine.memsys.snapshot()
    resources = [(f"network link {key}", link)
                 for key, link in memsys["net"]["links"]]
    for node, magic in enumerate(memsys["magic"]):
        resources += [(f"node{node}: protocol processor", magic["pp"]),
                      (f"node{node}: DRAM bank", magic["dram"])]
        count(sum(entry["busy"] for _line, entry
                  in magic["directory"]["entries"]),
              "busy directory lines", f"node{node}: ")
    live += [f"{name} busy" for name, res in resources
             if res["in_use"] or res["queue"] or res["busy_since"] is not None]
    return live


def miss_slots(machine):
    """Occupied miss slots per CPU (window cores; 0 on the others)."""
    return [len(getattr(core, "_inflight", ())) for core in machine.cores]


@pytest.fixture(scope="module")
def hw():
    return hardware_config()


@pytest.fixture(autouse=True)
def _directories_stay_consistent(monkeypatch):
    """Every run in this module ends with every directory entry of every
    node checked against the protocol's state invariants."""
    finish = Machine.finish

    def checked_finish(machine):
        result = finish(machine)
        for magic in machine.memsys.magic:
            magic.directory.check_invariants()
        return result

    monkeypatch.setattr(Machine, "finish", checked_finish)


class TestTable3EndToEnd:
    @pytest.mark.parametrize("case", PROTOCOL_CASES)
    def test_hardware_matches_paper_within_3pct(self, hw, case):
        measured = measure_dependent_loads(hw, case, REPRO_SCALE, n_loads=100)
        target = TABLE3_HARDWARE_NS[case]
        assert measured == pytest.approx(target, rel=0.03)

    def test_case_ordering_matches_paper(self, hw):
        values = {c: measure_dependent_loads(hw, c, REPRO_SCALE, 50)
                  for c in PROTOCOL_CASES}
        assert (values["local_clean"] < values["remote_clean"]
                < values["local_dirty_remote"] < values["remote_dirty_home"]
                < values["remote_dirty_remote"])


class TestMicrobenchStories:
    def test_tlb_refill_65_vs_25_vs_35(self, hw):
        assert measure_tlb_refill(hw) == pytest.approx(65, abs=5)
        assert measure_tlb_refill(simos_mipsy(150)) == pytest.approx(25, abs=4)
        assert measure_tlb_refill(simos_mxs()) == pytest.approx(35, abs=5)

    def test_port_occupancy_recovered(self, hw):
        assert measure_port_occupancy_cycles(hw) == pytest.approx(11.5, abs=2)
        # Untuned models have none.
        assert measure_port_occupancy_cycles(
            simos_mipsy(150)) == pytest.approx(0.0, abs=2)


class TestTuningEndToEnd:
    def test_tuning_reduces_microbench_error_everywhere(self):
        untuned = simos_mipsy(150)
        tuned, report = Tuner(scale=REPRO_SCALE).fit(untuned)
        for case in PROTOCOL_CASES:
            before = abs(report.before_cases_ns[case]
                         - report.target_cases_ns[case])
            after = abs(report.after_cases_ns[case]
                        - report.target_cases_ns[case])
            assert after <= before + 1.0


class TestApplicationStories:
    def test_fft_tlb_blocking_wins_on_hardware(self, hw):
        cache = run_workload(hw, FftWorkload(blocking="cache"), 1)
        tlb = run_workload(hw, FftWorkload(blocking="tlb"), 1)
        assert tlb.parallel_ps < 0.8 * cache.parallel_ps

    def test_pathological_radix_thrashes_tlb(self, hw):
        path = run_workload(
            hw, RadixWorkload(radix=pathological_radix(REPRO_SCALE)), 1)
        fixed = run_workload(
            hw, RadixWorkload(radix=tuned_radix(REPRO_SCALE)), 1)
        tlb_path = sum(v for k, v in path.stats.items()
                       if k.startswith("tlb") and k.endswith(".misses"))
        tlb_fixed = sum(v for k, v in fixed.stats.items()
                        if k.startswith("tlb") and k.endswith(".misses"))
        assert tlb_path > 5 * tlb_fixed

    def test_solo_ocean_conflicts_are_uniprocessor_only(self):
        solo = solo_mipsy(225, tuned=True)
        simos = simos_mipsy(225, tuned=True)
        t_solo1 = run_workload(solo, OceanWorkload(), 1).parallel_ps
        t_simos1 = run_workload(simos, OceanWorkload(), 1).parallel_ps
        t_solo4 = run_workload(solo, OceanWorkload(), 4).parallel_ps
        t_simos4 = run_workload(simos, OceanWorkload(), 4).parallel_ps
        assert t_solo1 > 1.25 * t_simos1        # conflicts at P=1
        assert t_solo4 < 1.15 * t_simos4        # gone at P=4

    def test_mxs_faster_than_gold_standard(self, hw):
        for app in ("fft", "lu"):
            workload = make_app(app)
            t_hw = run_workload(hw, workload, 1).parallel_ps
            t_mxs = run_workload(simos_mxs(tuned=True), workload, 1).parallel_ps
            assert 0.6 < t_mxs / t_hw < 0.95

    def test_mipsy_300_overpredicts_its_own_uniprocessor_speed(self, hw):
        workload = make_app("fft")
        t_hw = run_workload(hw, workload, 1).parallel_ps
        t300 = run_workload(simos_mipsy(300, tuned=True), workload, 1).parallel_ps
        assert t300 < t_hw  # under-predicts execution time

    def test_same_binaries_property(self):
        # The traces a workload produces are independent of the simulator:
        # identical address streams feed every platform.
        wl = make_app("lu")
        a = wl.build(2)
        b = wl.build(2)
        for ta, tb in zip(a, b):
            assert len(ta) == len(tb)


class TestCoherenceAtScale:
    def test_parallel_radix_is_coherent_and_deterministic(self, hw):
        r1 = run_workload(hw, make_app("radix"), 4)
        r2 = run_workload(hw, make_app("radix"), 4)
        assert r1.parallel_ps == r2.parallel_ps
        assert r1.stat("memsys.req_read") == r2.stat("memsys.req_read")

    @pytest.mark.parametrize("workload,config,memsys", [
        # The miss_path_tiny golden's four runs ...
        ("fft", "hardware", "hardware"),
        ("radix", "hardware", "hardware"),
        ("radix", "simos-mipsy-150", "numa"),
        ("lu", "simos-mipsy-150", "flashlite_untuned"),
        # ... and NUMA, whose pure delays let a request overtake its own
        # node's writeback, on two more cores.
        ("radix", "hardware", "numa"),
        ("radix", "solo-mipsy-150", "numa"),
    ])
    def test_directory_agrees_with_the_caches_when_a_run_ends(
            self, workload, config, memsys):
        scale = get_scale("tiny")
        config = get_config(config).derive(memsys=PARAM_SETS[memsys]())
        machine = Machine(config, 4, scale)
        machine.run(make_app(workload, scale))
        machine.env.run()       # drain the writebacks still in flight
        held = {iface.node: dict(iface.l2.snapshot()["state"])
                for iface in machine.ifaces}
        assert disagreements(machine.memsys, held) == []
        # Nothing is left live either: no MSHR entry, unfired write-buffer
        # entry, busy directory line, busy or queued resource or lock,
        # open barrier or calendar entry.
        assert live_machinery(machine) == []
        # A window core's miss slots are the exception: fired, but reaped
        # only on the core's next miss, which a finished core never takes
        # (one to three per CPU in the hardware runs here; none on Mipsy
        # or Solo).
        slots = miss_slots(machine)
        if config.core.model == "r10k":
            assert all(1 <= n <= 3 for n in slots), slots
        else:
            assert slots == [0] * 4

    def test_remote_traffic_appears_only_in_parallel_runs(self, hw):
        uni = run_workload(hw, make_app("fft"), 1)
        par = run_workload(hw, make_app("fft"), 4)
        assert uni.stat("memsys.case_remote_clean") == 0
        assert par.stat("memsys.case_remote_clean") > 100
