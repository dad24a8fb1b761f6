"""MAGIC: FLASH's programmable node controller.

Each node's MAGIC is modelled as a set of contended resources -- the
embedded protocol processor that runs the coherence handlers, and the
node's memory (DRAM) -- plus the directory for the lines homed there.
Handler *logic* lives in :mod:`repro.memsys.dsm`; MAGIC supplies the
occupancy/queueing behaviour that distinguishes FlashLite from the generic
NUMA model: "[NUMA] does not model occupancy of the directory controller
beyond the normal latency path" (Section 2.2).

When ``model_occupancy`` is off, ``pp_busy`` degenerates to a pure latency
(no queueing), which is exactly the NUMA simplification.
"""

from __future__ import annotations

from repro.common.stats import CounterSet
from repro.engine import Engine, Resource, Steps
from repro.obs import hooks as obs_hooks
from repro.proto.directory import Directory


class MagicController:
    """Per-node controller: protocol processor + DRAM + directory."""

    def __init__(self, env: Engine, node: int, model_occupancy: bool = True,
                 dram_banks: int = 1, pp_occ_fraction: float = 0.45):
        self.env = env
        self.node = node
        self.model_occupancy = model_occupancy
        self.pp_occ_fraction = pp_occ_fraction
        self.stats = CounterSet(f"magic{node}")
        self.pp = Resource(env, f"magic{node}.pp", capacity=1,
                           stats=CounterSet(f"magic{node}.pp"))
        self.dram = Resource(env, f"magic{node}.dram", capacity=dram_banks,
                             stats=CounterSet(f"magic{node}.dram"))
        self.directory = Directory(node)

    def pp_busy(self, hold_ps: int, label: str = "handler", txn=None):
        """Handle something for *hold_ps* of latency, occupying the
        protocol processor for ``pp_occ_fraction`` of it.

        Returns an event; the caller ``yield``\\ s it.  Handler counts are
        available via ``pp.requests``; per-label counting is skipped on
        this hot path.  *txn* threads the requesting transaction's record
        down to the pp resource so its queueing delay is captured as
        wait, never service (see :mod:`repro.obs.txn`).
        """
        probe = obs_hooks.active
        if probe is not None:
            # MAGIC occupancy visibility: requested hold at request time
            # (queueing delay shows up in the pp resource's wait_ps).
            probe.span(self.env.now, obs_hooks.DSM, f"pp.{label}",
                       hold_ps, {"node": self.node})
        if not self.model_occupancy:
            return self.env.timeout(hold_ps)
        occ = int(hold_ps * self.pp_occ_fraction)
        rest = hold_ps - occ
        if rest <= 0:
            return self.pp.use(hold_ps, txn)
        return Steps(self.env, ((self.pp, occ), (None, rest)), txn)

    def dram_access(self, hold_ps: int, txn=None):
        """Access this node's memory.  Memory contention is modelled even
        by the NUMA configuration ("it simulates ... contention for main
        memory"), so this is always a real resource."""
        return self.dram.use(hold_ps, txn)

    # -- checkpoint contract ---------------------------------------------

    def ckpt_state(self) -> dict:
        return {
            "stats": self.stats.ckpt_state(),
            "pp": self.pp.ckpt_state(),
            "dram": self.dram.ckpt_state(),
            "directory": self.directory.ckpt_state(),
        }

    def ckpt_restore(self, state: dict) -> None:
        self.stats.ckpt_restore(state["stats"])
        self.pp.ckpt_restore(state["pp"])
        self.dram.ckpt_restore(state["dram"])
        self.directory.ckpt_restore(state["directory"])
