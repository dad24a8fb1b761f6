"""The interconnect fabric with per-link router contention.

Each directed hypercube link owns a :class:`~repro.engine.resources.Resource`
modelling its router output port.  A message occupies each port along its
path for a duration proportional to its flit count, then incurs the wire /
router latency per hop.  The generic NUMA memory-system model asks for
``model_contention=False``, in which case messages only pay latency --
"it does not model contention in the network or the routers"
(Section 2.2) -- which is precisely what the Figure 7 experiment probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.stats import CounterSet
from repro.engine import Engine, Resource, Steps
from repro.engine.resources import CALL, FINISH, HOP
from repro.network.topology import Hypercube
from repro.obs import hooks as obs_hooks

#: A message's first deferral (its start), as in a child process.
_DEFER = (HOP, 0, None)


@dataclass(frozen=True)
class NetworkParams:
    """Timing of the interconnect."""

    hop_ps: int             #: wire + router pipeline latency per hop
    router_occ_ps: int      #: port occupancy of a header flit
    flit_occ_ps: int        #: extra occupancy per additional flit

    def occupancy_ps(self, flits: int) -> int:
        return self.router_occ_ps + self.flit_occ_ps * max(0, flits - 1)


class Network:
    """Hypercube fabric; ``send_stages`` is one message as plan stages."""

    def __init__(self, env: Engine, n_nodes: int, params: NetworkParams,
                 model_contention: bool = True):
        self.env = env
        self.cube = Hypercube(n_nodes)
        self.params = params
        self.model_contention = model_contention
        self.stats = CounterSet("network")
        self._links: Dict[Tuple[int, int], Resource] = {}
        self._messages: Dict[tuple, tuple] = {}
        if model_contention:
            for link in self.cube.links():
                self._links[link] = Resource(
                    env, f"link{link[0]}->{link[1]}"
                )

    def send_stages(self, src: int, dst: int, flits: int = 1,
                    seg: Optional[str] = None) -> tuple:
        """The plan stages of one message, as a transaction's plan embeds
        them (:class:`repro.engine.Steps`); *seg* names the segment the
        whole delivery is charged to.

        Per hop the message occupies the link's router port (a plain
        delay without contention modelling), then pays the wire latency.
        The stages schedule what a process yielding a delivery event
        did: the message counters at send time, one deferred start, the
        hops, one deferred firing -- where the probe's ``net_msg`` runs,
        right before whoever waits on delivery.  The transaction's record
        rides to each router port on the route, so per-hop queueing is
        captured as wait (wire/occupancy time stays service); see
        :mod:`repro.obs.txn`.
        """
        message = self._messages.get((src, dst, flits))
        if message is None:
            message = self._messages[(src, dst, flits)] = self._message(
                src, dst, flits)
        sent, route, delivered = message
        return (sent, _DEFER) + route + ((HOP, 0, seg), delivered)

    def _message(self, src: int, dst: int, flits: int) -> tuple:
        """``(sent, route, delivered)``: the stages :meth:`send_stages`
        puts around its deferrals, built once per distinct message."""
        hops = self.cube.route(src, dst) if src != dst else ()
        counters = self.stats._counters

        def sent(walk):
            counters["messages"] += 1.0
            counters["flits"] += flits
            if hops:
                counters["hops"] += len(hops)
                probe = obs_hooks.active
                if probe is not None:
                    walk.note = (probe, walk.env.now)

        def delivered(walk):
            note = walk.note
            if note is not None:
                walk.note = None
                probe, start = note
                now = walk.env.now
                probe.net_msg(src, dst, flits, hops, start, now - start)

        occupancy = self.params.occupancy_ps(flits)
        wire = (None, self.params.hop_ps, None)
        route = ()
        for link in hops:
            port = self._links[link] if self.model_contention else None
            route += ((port, occupancy, None), wire)
        return (CALL, sent, None), route, (CALL, delivered, None)

    def send(self, src: int, dst: int, flits: int = 1, txn=None):
        """One message (:meth:`send_stages`) as an event of its own,
        firing one deferral after delivery.  The model never calls it (a
        transaction's plan embeds the stages); ``benchmarks/e2e/trace.py``
        names it as a boundary."""
        return Steps(self.env, self.send_stages(src, dst, flits) + (FINISH,),
                     txn)

    def link_stats(self):
        """Per-link resource stats (contention analysis)."""
        return {link: res.stats for link, res in self._links.items()}

    # -- checkpoint contract ---------------------------------------------

    def ckpt_state(self) -> dict:
        """Aggregate message counters plus every link port's state.

        Links are keyed ``"src->dst"``; iteration order is the topology's
        link enumeration, identical across machines of the same shape.
        """
        return {
            "stats": self.stats.ckpt_state(),
            "links": [[f"{src}->{dst}", res.ckpt_state()]
                      for (src, dst), res in self._links.items()],
        }

    def ckpt_restore(self, state: dict) -> None:
        links = dict(state["links"])
        if set(links) != {f"{s}->{d}" for (s, d) in self._links}:
            raise ValueError(
                f"network: checkpoint has {len(links)} links, "
                f"this fabric has {len(self._links)} (topology mismatch)"
            )
        self.stats.ckpt_restore(state["stats"])
        for (src, dst), res in self._links.items():
            res.ckpt_restore(links[f"{src}->{dst}"])
