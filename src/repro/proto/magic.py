"""MAGIC: FLASH's programmable node controller.

Each node's MAGIC is modelled as a set of contended resources -- the
embedded protocol processor that runs the coherence handlers, and the
node's memory (DRAM) -- plus the directory for the lines homed there.
Handler *logic* lives in :mod:`repro.memsys.dsm`; MAGIC supplies the
occupancy/queueing behaviour that distinguishes FlashLite from the generic
NUMA model: "[NUMA] does not model occupancy of the directory controller
beyond the normal latency path" (Section 2.2).

When ``model_occupancy`` is off, a handler (``pp_stages``) degenerates to
a pure latency (no queueing), which is exactly the NUMA simplification.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import SimulationError
from repro.common.stats import CounterSet
from repro.engine import Engine, Resource
from repro.engine.resources import CALL, HOP
from repro.obs import hooks as obs_hooks
from repro.proto.directory import Directory


class MagicController:
    """Per-node controller: protocol processor + DRAM + directory."""

    def __init__(self, env: Engine, node: int, pp_occ_fraction: float,
                 model_occupancy: bool = True):
        self.env = env
        self.node = node
        self.model_occupancy = model_occupancy
        self.stats = CounterSet(f"magic{node}")
        self.pp = Resource(env, f"magic{node}.pp", capacity=1,
                           stats=CounterSet(f"magic{node}.pp"))
        # Memory contention is modelled even by the NUMA configuration ("it
        # simulates ... contention for main memory"): always a resource.
        self.dram = Resource(env, f"magic{node}.dram", capacity=1,
                             stats=CounterSet(f"magic{node}.dram"))
        self.directory = Directory(node)
        #: Whether handler stages carry the probe's span (see
        #: :meth:`pp_stages`); the memory system sets it with its own.
        self.observed = obs_hooks.active is not None
        self.reconfigure(pp_occ_fraction)

    def reconfigure(self, pp_occ_fraction: float) -> None:
        """Occupy the protocol processor for *pp_occ_fraction* of each
        handler from now on; handler stages built before are dropped."""
        self.pp_occ_fraction = pp_occ_fraction
        self._pp_plans = {}

    def pp_stages(self, hold_ps: int, label: str = "handler",
                  seg: Optional[str] = None) -> tuple:
        """The plan stages of one handler of *hold_ps* latency that
        occupies the protocol processor for ``pp_occ_fraction`` of it, as
        a transaction's plan embeds them (:class:`repro.engine.Steps`);
        *seg* names the segment the whole handler is charged to.

        The stages schedule what a process yielding a handler's event
        did: the probe span at request time, then -- occupancy
        modelled -- one deferred start, the pp hold, the pipelined rest
        as a delay, one deferred firing; a handler with no rest is the
        pp hold alone, and one without occupancy (NUMA) a plain delay.
        The span is a ``CALL`` stage in front of the handler, and only
        :attr:`observed` stages have it: it schedules nothing, so a
        plan without it walks the same calendar.  Built once per
        distinct handler and shared (until :meth:`reconfigure`).
        """
        key = (hold_ps, label, seg)
        stages = self._pp_plans.get(key)
        if stages is None:
            if hold_ps < 0:
                raise SimulationError(f"{label}: negative handler {hold_ps}")
            name = f"pp.{label}"
            node = self.node

            def span(walk):
                probe = obs_hooks.active
                if probe is not None:
                    # MAGIC occupancy visibility: requested hold at request
                    # time (queueing delay shows up in the pp's wait_ps).
                    probe.span(walk.env.now, obs_hooks.DSM, name, hold_ps,
                               {"node": node})

            occ = int(hold_ps * self.pp_occ_fraction)
            rest = hold_ps - occ
            if not self.model_occupancy:
                core = ((None, hold_ps, seg),)
            elif rest <= 0:
                core = ((self.pp, hold_ps, seg),)
            else:
                core = ((HOP, 0, None), (self.pp, occ, None),
                        (None, rest, None), (HOP, 0, seg))
            if self.observed:
                core = ((CALL, span, None),) + core
            stages = self._pp_plans[key] = core
        return stages

    def snapshot(self) -> dict:
        return {
            "stats": self.stats.snapshot(),
            "pp": self.pp.snapshot(),
            "dram": self.dram.snapshot(),
            "directory": self.directory.snapshot(),
        }
