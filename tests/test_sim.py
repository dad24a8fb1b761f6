"""Machine assembly, synchronization, configuration registry tests."""

import dataclasses

import numpy as np
import pytest

from repro.common.config import TINY_SCALE
from repro.common.errors import ConfigurationError, SimulationError
from repro.engine import Engine
from repro.isa.trace import Barrier, ChunkExec, PhaseMark
from repro.sim import (
    Machine,
    get_config,
    hardware_config,
    run_workload,
    simos_mipsy,
    simos_mxs,
    solo_mipsy,
)
from repro.sim.configs import figure_lineup
from repro.sim.sync import SyncDomain
from repro.vm.layout import VirtualLayout
from repro.workloads.base import Workload
from repro.workloads.builder import ChunkBuilder

PAGE = TINY_SCALE.tlb.page_bytes

#: Every configuration a name resolves to: both figure line-ups and the
#: reference.
NAMED = {config.name: config
         for config in [*figure_lineup(False), *figure_lineup(True),
                        hardware_config()]}


class _TwoPhaseWorkload(Workload):
    """All CPUs compute, meet at a barrier, compute again."""

    name = "twophase"

    def __init__(self, reps_by_cpu):
        super().__init__(TINY_SCALE)
        self.reps_by_cpu = reps_by_cpu

    def build(self, n_cpus):
        b = ChunkBuilder("tp")
        for i in range(16):
            b.ialu(1 + (i % 8), 1 + (i % 8))
        chunk = b.build()
        traces = []
        for cpu in range(n_cpus):
            reps = self.reps_by_cpu[cpu % len(self.reps_by_cpu)]
            traces.append([
                PhaseMark(PhaseMark.PARALLEL, True),
                ChunkExec(chunk, reps=reps),
                Barrier(1),
                ChunkExec(chunk, reps=10),
                PhaseMark(PhaseMark.PARALLEL, False),
            ])
        return traces


class TestMachine:
    def test_runs_and_reports_parallel_phase(self):
        result = run_workload(simos_mipsy(150), _TwoPhaseWorkload([50]), 2)
        assert result.parallel_ps > 0
        assert result.n_cpus == 2
        assert result.instructions > 0

    def test_barrier_makes_cpus_wait_for_slowest(self):
        # One CPU does 10x the work before the barrier; total time is set
        # by the slow one, not the sum.
        slow = run_workload(simos_mipsy(150), _TwoPhaseWorkload([1000, 100]),
                            2)
        uniform = run_workload(simos_mipsy(150), _TwoPhaseWorkload([1000]),
                               2)
        assert slow.parallel_ps == pytest.approx(uniform.parallel_ps, rel=0.05)

    def test_non_power_of_two_cpus_rejected(self):
        with pytest.raises(ConfigurationError):
            Machine(simos_mipsy(150), 3, TINY_SCALE)

    def test_machine_is_single_use(self):
        machine = Machine(simos_mipsy(150), 1, TINY_SCALE)
        machine.run(_TwoPhaseWorkload([5]))
        with pytest.raises(SimulationError):
            machine.run(_TwoPhaseWorkload([5]))

    def test_trace_count_mismatch_rejected(self):
        class Bad(Workload):
            name = "bad"

            def build(self, n_cpus):
                return [[]]  # always one trace

        with pytest.raises(ConfigurationError):
            run_workload(simos_mipsy(150), Bad(TINY_SCALE), 2)

    def test_deterministic_across_runs(self):
        a = run_workload(hardware_config(), _TwoPhaseWorkload([200]), 2)
        b = run_workload(hardware_config(), _TwoPhaseWorkload([200]), 2)
        assert a.parallel_ps == b.parallel_ps


class TestSyncDomain:
    def test_barrier_completion_removes_state(self):
        env = Engine()
        sync = SyncDomain(env, 2)
        sync.barrier_arrive(1, 0)
        assert sync.open_barriers() == 1
        sync.barrier_arrive(1, 1)
        assert sync.open_barriers() == 0


class TestConfigRegistry:
    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_round_trips_by_name(self, name):
        config = get_config(name)
        assert config.name == name
        assert config == NAMED[name]

    @pytest.mark.parametrize("alias,name", [
        ("solo", "solo-mipsy-150-tuned"),
        ("mipsy", "simos-mipsy-150-tuned"),
        ("simos-mipsy", "simos-mipsy-150-tuned"),
        ("mxs", "simos-mxs-150-tuned"),
        ("simos-mxs", "simos-mxs-150-tuned"),
    ])
    def test_shorthand_resolves(self, alias, name):
        assert get_config(alias) == NAMED[name]

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            get_config("simics")

    def test_tuned_configs_differ(self):
        untuned = simos_mipsy(150, tuned=False)
        tuned = simos_mipsy(150, tuned=True)
        assert untuned.core.tlb_refill_cycles < tuned.core.tlb_refill_cycles
        assert untuned.memsys != tuned.memsys

    def test_solo_has_no_tlb_and_solo_allocator(self):
        solo = solo_mipsy(225)
        assert not solo.os_model.models_tlb
        assert solo.os_model.allocator_kind == "solo"

    def test_hardware_uses_r10k_and_hardware_memsys(self):
        hw = hardware_config()
        assert hw.core.model == "r10k"
        assert hw.memsys.name == "hardware"
        assert hw.core.ilp_derate_factor > 1.0

    def test_derive_replaces_memsys(self):
        from repro.memsys.params import numa
        cfg = simos_mipsy(225).derive("-numa", memsys=numa())
        assert cfg.name == "simos-mipsy-225-numa"
        assert not cfg.memsys.contention

    def test_mxs_untuned_has_no_port_occupancy(self):
        assert simos_mxs(tuned=False).core.l2_port_occupancy_cycles == 0
        assert simos_mxs(tuned=True).core.l2_port_occupancy_cycles > 0


class TestRecipeFields:
    """Every field of a run's recipe is a setting some configuration in the
    study varies or the model reads.  Adding or removing one means editing
    this pin, so a new knob is a reviewed decision, not a side effect."""

    def test_recipe_field_names_are_pinned(self):
        from repro.common.config import MachineScale
        from repro.cpu.base import CoreParams
        from repro.memsys.params import DsmParams
        from repro.network.fabric import NetworkParams
        from repro.os.base import OsModel
        from repro.sim.configs import SimulatorConfig
        from repro.sim.request import RunRequest
        from repro.sim.results import RunResult

        fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
                  for cls in (SimulatorConfig, CoreParams, DsmParams,
                              NetworkParams, OsModel, RunRequest,
                              MachineScale, RunResult)}
        assert fields == {
            "SimulatorConfig": ["name", "core", "os_model", "memsys"],
            "CoreParams": [
                "model", "clock_mhz", "tlb_refill_cycles",
                "model_instruction_latencies", "width", "miss_hide_cycles",
                "interlock_penalty_cycles", "ilp_derate_factor",
                "fast_issue_bug_factor", "cacheop_bug_stall_cycles",
                "l2_port_occupancy_cycles"],
            "DsmParams": [
                "name", "bus_ps", "pp_out_ps", "pp_home_ps", "pp_mem_ps",
                "pp_redirect_ps", "pp_ivn_ps", "pp_inval_ps", "pp_reply_ps",
                "pp_wb_ps", "dram_ps", "owner_cache_ps", "net",
                "case_extra_ps", "contention", "pp_occ_fraction"],
            "NetworkParams": ["hop_ps", "router_occ_ps", "flit_occ_ps"],
            "OsModel": ["models_tlb", "allocator_kind",
                        "tick_overhead_factor"],
            "RunRequest": ["config", "workload", "n_cpus", "placement",
                           "seed"],
            "MachineScale": ["name", "l1i", "l1d", "l2", "tlb",
                             "problem_factor"],
            "RunResult": ["config_name", "workload_name", "n_cpus",
                          "scale_name", "total_ps", "phase_spans_ps",
                          "instructions", "stats"],
        }
