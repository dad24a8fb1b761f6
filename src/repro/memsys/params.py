"""Timing parameter sets for the DSM memory system.

Three named sets reproduce the paper's Table 3 structure:

* ``hardware()`` -- the gold standard.  Handler occupancies and interface
  delays are chosen so the five snbench dependent-load protocol cases land
  on the hardware column of Table 3 (587 / 2201 / 1484 / 2359 / 2617 ns).
* ``flashlite_untuned()`` -- the design-time FlashLite parameters ("delays
  extracted from the Verilog model"): close, but optimistic on the clean
  paths and pessimistic on the three-hop dirty-remote path, matching the
  untuned column (510 / 2152 / 1311 / 2215 / 2957 ns).
* ``flashlite_tuned()`` -- ``hardware()``'s DSM set renamed: it agrees
  with what the calibration loop (:mod:`repro.validation.tuning`) fits to
  the untuned set only at the five unloaded Table 3 points, not under
  load.

``predict_case_ps`` is the closed-form (uncontended) latency of each
protocol case; the DES transaction follows the same path, so microbenchmark
measurements agree with the closed form -- a property the test suite
checks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping

from repro.common.errors import ConfigurationError
from repro.network.fabric import NetworkParams

# Protocol case names (Table 3 rows).
LOCAL_CLEAN = "local_clean"
LOCAL_DIRTY_REMOTE = "local_dirty_remote"
REMOTE_CLEAN = "remote_clean"
REMOTE_DIRTY_HOME = "remote_dirty_home"
REMOTE_DIRTY_REMOTE = "remote_dirty_remote"

PROTOCOL_CASES = (
    LOCAL_CLEAN,
    LOCAL_DIRTY_REMOTE,
    REMOTE_CLEAN,
    REMOTE_DIRTY_HOME,
    REMOTE_DIRTY_REMOTE,
)

#: Hardware dependent-load latencies from Table 3, in nanoseconds.
TABLE3_HARDWARE_NS: Dict[str, int] = {
    LOCAL_CLEAN: 587,
    LOCAL_DIRTY_REMOTE: 2201,
    REMOTE_CLEAN: 1484,
    REMOTE_DIRTY_HOME: 2359,
    REMOTE_DIRTY_REMOTE: 2617,
}

#: Untuned FlashLite latencies from Table 3, in nanoseconds.
TABLE3_UNTUNED_NS: Dict[str, int] = {
    LOCAL_CLEAN: 510,
    LOCAL_DIRTY_REMOTE: 2152,
    REMOTE_CLEAN: 1311,
    REMOTE_DIRTY_HOME: 2215,
    REMOTE_DIRTY_REMOTE: 2957,
}

#: Tuned FlashLite latencies from Table 3 (what the paper's calibration
#: achieved), in nanoseconds.  Reported for EXPERIMENTS.md comparison.
TABLE3_TUNED_NS: Dict[str, int] = {
    LOCAL_CLEAN: 615,
    LOCAL_DIRTY_REMOTE: 2202,
    REMOTE_CLEAN: 1457,
    REMOTE_DIRTY_HOME: 2378,
    REMOTE_DIRTY_REMOTE: 2658,
}

# A *measured* dependent load is memory-system latency plus the CPU-side
# share: the secondary-cache interface occupancy the next tag check waits
# out (~77 ns; modelled by the hardware/tuned cores, absent untuned) and
# one 150 MHz issue cycle.  The parameter sets are therefore fit to the
# Table 3 targets minus their configuration's CPU-side share, so that what
# the snbench microbenchmark *measures* lands on Table 3.
L2_PORT_CHASE_PS = 77_000
CORE_CYCLE_PS_150 = 6_667
HW_CPU_SIDE_PS = L2_PORT_CHASE_PS + CORE_CYCLE_PS_150
UNTUNED_CPU_SIDE_PS = CORE_CYCLE_PS_150


@dataclass(frozen=True)
class DsmParams:
    """Timing of the distributed-shared-memory system (picoseconds).

    The ``pp_*`` values are MAGIC protocol-processor handler occupancies;
    ``case_extra_ps`` adds per-protocol-case handler time on top (FLASH ran
    a distinct handler per case, each with its own path length).
    """

    name: str
    bus_ps: int               #: CPU <-> MAGIC, each direction
    pp_out_ps: int            #: requester MAGIC, outgoing remote request
    pp_home_ps: int           #: home MAGIC, directory lookup
    pp_mem_ps: int            #: home MAGIC, memory reply handler (clean)
    pp_redirect_ps: int       #: home MAGIC, forward to dirty owner
    pp_ivn_ps: int            #: owner MAGIC, intervention handler
    pp_inval_ps: int          #: sharer MAGIC, invalidation handler
    pp_reply_ps: int          #: requester MAGIC, delivering the reply
    pp_wb_ps: int             #: home MAGIC, writeback handler
    dram_ps: int              #: memory access (latency == occupancy)
    owner_cache_ps: int       #: data extraction through the owner R10000
    net: NetworkParams
    req_flits: int = 1
    data_flits: int = 4
    case_extra_ps: Mapping[str, int] = field(default_factory=dict)
    model_pp_occupancy: bool = True      #: False = generic NUMA model
    model_net_contention: bool = True    #: False = generic NUMA model
    #: Fraction of each handler's time that *occupies* the protocol
    #: processor (the rest is pipelined latency through MAGIC's queues and
    #: interfaces).  Handler latency and handler occupancy are different
    #: quantities; conflating them overstates contention enormously.
    pp_occ_fraction: float = 0.55

    def __post_init__(self):
        """Reject timings no machine has.  ``case_extra_ps`` is unchecked:
        calibration adjustments may be negative; the plans clamp at 0."""
        bad = [f"{f.name}={getattr(self, f.name)} < 0"
               for f in dataclasses.fields(self) if f.name.endswith("_ps")
               and f.name != "case_extra_ps" and getattr(self, f.name) < 0]
        bad += [f"{name}={getattr(self, name)} < 1"
                for name in ("req_flits", "data_flits")
                if getattr(self, name) < 1]
        if not 0.0 <= self.pp_occ_fraction <= 1.0:
            bad.append(
                f"pp_occ_fraction={self.pp_occ_fraction} not in [0, 1]")
        if bad:
            raise ConfigurationError(f"{self.name}: {'; '.join(bad)}")

    def extra(self, case: str) -> int:
        return self.case_extra_ps.get(case, 0)

    def with_updates(self, **kwargs) -> "DsmParams":
        return replace(self, **kwargs)

    def as_dict(self) -> Dict[str, int]:
        out = {}
        for f in dataclasses.fields(self):
            if f.name in ("name", "net", "case_extra_ps",
                          "model_pp_occupancy", "model_net_contention"):
                continue
            out[f.name] = getattr(self, f.name)
        return out


def predict_case_ps(params: DsmParams, case: str,
                    hops_rh: int = 1, hops_ho: int = 1,
                    hops_or: int = 2, hops_oh_local: int = 1) -> int:
    """Closed-form uncontended latency of one dependent load of *case*.

    Hop counts default to the snbench microbenchmark placement on a
    16-node cube: requester 0, home 1, third-party owner 3 (so home->owner
    is one hop and owner->requester is two).
    """
    p = params
    n_req = lambda hops: hops * (p.net.occupancy_ps(p.req_flits) + p.net.hop_ps)
    n_data = lambda hops: hops * (p.net.occupancy_ps(p.data_flits) + p.net.hop_ps)
    two_bus = 2 * p.bus_ps
    extra = p.extra(case)

    if case == LOCAL_CLEAN:
        return two_bus + p.pp_home_ps + p.pp_mem_ps + p.dram_ps + extra
    if case == LOCAL_DIRTY_REMOTE:
        return (two_bus + p.pp_home_ps + p.pp_redirect_ps
                + n_req(hops_oh_local) + p.pp_ivn_ps + p.owner_cache_ps
                + n_data(hops_oh_local) + p.pp_reply_ps + extra)
    if case == REMOTE_CLEAN:
        return (two_bus + p.pp_out_ps + n_req(hops_rh) + p.pp_home_ps
                + p.pp_mem_ps + p.dram_ps + n_data(hops_rh)
                + p.pp_reply_ps + extra)
    if case == REMOTE_DIRTY_HOME:
        return (two_bus + p.pp_out_ps + n_req(hops_rh) + p.pp_home_ps
                + p.pp_redirect_ps + p.owner_cache_ps + n_data(hops_rh)
                + p.pp_reply_ps + extra)
    if case == REMOTE_DIRTY_REMOTE:
        return (two_bus + p.pp_out_ps + n_req(hops_rh) + p.pp_home_ps
                + p.pp_redirect_ps + n_req(hops_ho) + p.pp_ivn_ps
                + p.owner_cache_ps + n_data(hops_or) + p.pp_reply_ps + extra)
    raise ConfigurationError(f"unknown protocol case {case!r}")


def _solve_case_extras(params: DsmParams, targets_ns: Mapping[str, int],
                       cpu_side_ps: int) -> DsmParams:
    """Set per-case handler extras so a measured dependent load (closed-form
    memory latency + the configuration's CPU-side share) hits *targets_ns*."""
    base = params.with_updates(case_extra_ps={})
    extras = {}
    for case, target_ns in targets_ns.items():
        predicted = predict_case_ps(base, case)
        extras[case] = target_ns * 1000 - cpu_side_ps - predicted
    for case, value in extras.items():
        if value < 0:
            raise ConfigurationError(
                f"{params.name}: base parameters overshoot {case} by {-value} ps"
            )
    return params.with_updates(case_extra_ps=extras)


def hardware(n_nodes: int = 16) -> DsmParams:
    """The gold-standard memory-system timing (hits Table 3's HW column)."""
    base = DsmParams(
        name="hardware",
        bus_ps=85_000,
        pp_out_ps=320_000,
        pp_home_ps=120_000,
        pp_mem_ps=70_000,
        pp_redirect_ps=90_000,
        pp_ivn_ps=80_000,
        pp_inval_ps=90_000,
        pp_reply_ps=180_000,
        pp_wb_ps=140_000,
        dram_ps=140_000,
        owner_cache_ps=950_000,
        net=NetworkParams(hop_ps=50_000, router_occ_ps=50_000,
                          flit_occ_ps=30_000),
    )
    return _solve_case_extras(base, TABLE3_HARDWARE_NS, HW_CPU_SIDE_PS)


def flashlite_untuned(n_nodes: int = 16) -> DsmParams:
    """Design-time FlashLite parameters (hits Table 3's untuned column).

    Relative to hardware: the processor-side bus and the reply path are
    optimistic (the real R10000's secondary-cache interface occupancy and
    core-to-pin delays were unknown before tuning, Section 3.1.2), while
    the intervention path through a remote owner is pessimistic.
    """
    base = DsmParams(
        name="flashlite_untuned",
        bus_ps=55_000,
        pp_out_ps=300_000,
        pp_home_ps=110_000,
        pp_mem_ps=140_000,
        pp_redirect_ps=85_000,
        pp_ivn_ps=260_000,
        pp_inval_ps=90_000,
        pp_reply_ps=140_000,
        pp_wb_ps=140_000,
        dram_ps=130_000,
        owner_cache_ps=980_000,
        net=NetworkParams(hop_ps=45_000, router_occ_ps=45_000,
                          flit_occ_ps=28_000),
    )
    return _solve_case_extras(base, TABLE3_UNTUNED_NS, UNTUNED_CPU_SIDE_PS)


def flashlite_tuned(n_nodes: int = 16) -> DsmParams:
    """The "tuned FlashLite" set: :func:`hardware`'s parameters renamed.

    It stands in for the paper's tuned FlashLite (615 / 2202 / 1457 / 2378
    / 2658 ns), and by construction its memory system is the reference's.
    :class:`repro.validation.tuning.Tuner` fitted to :func:`flashlite_untuned`
    matches it only at the five unloaded Table 3 points: the fit keeps the
    untuned handler split and puts the difference into home-handler
    extras, so the two diverge under load.
    """
    hw = hardware(n_nodes)
    return hw.with_updates(name="flashlite_tuned")


def numa(n_nodes: int = 16) -> DsmParams:
    """The generic NUMA model: correct latencies, no controller occupancy
    beyond the latency path, no network/router contention (Section 2.2).

    "The latency parameters in NUMA were set to match hardware latencies,
    known well in advance of building the hardware" -- so the NUMA set
    reuses the hardware latency values with the occupancy modelling
    switched off.
    """
    hw = hardware(n_nodes)
    return hw.with_updates(
        name="numa",
        model_pp_occupancy=False,
        model_net_contention=False,
    )


PARAM_SETS = {
    "hardware": hardware,
    "flashlite_untuned": flashlite_untuned,
    "flashlite_tuned": flashlite_tuned,
    "numa": numa,
}
