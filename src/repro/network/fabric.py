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
from repro.engine import Engine, Resource
from repro.engine.resources import CALL, HOP
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
        self.model_contention = model_contention
        self.stats = CounterSet("network")
        self._links: Dict[Tuple[int, int], Resource] = {}
        if model_contention:
            for link in self.cube.links():
                self._links[link] = Resource(
                    env, f"link{link[0]}->{link[1]}"
                )
        #: Whether message stages carry the probe's ``net_msg`` (see
        #: :meth:`send_stages`); the memory system sets it with its own.
        self.observed = obs_hooks.active is not None
        self.reconfigure(params)

    def reconfigure(self, params: NetworkParams) -> None:
        """Time every message by *params* from now on; message stages
        built before are dropped."""
        self.params = params
        self._messages: Dict[tuple, tuple] = {}

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
        right before whoever waits on delivery.  That is a ``CALL`` stage
        behind the message, and only :attr:`observed` stages have it
        (and a ``sent`` that reads the probe): it schedules nothing, so
        a plan without it walks the same calendar.  The transaction's
        record rides to each router port on the route, so per-hop
        queueing is captured as wait (wire/occupancy time stays
        service); see :mod:`repro.obs.txn`.
        """
        message = self._messages.get((src, dst, flits))
        if message is None:
            message = self._messages[(src, dst, flits)] = self._message(
                src, dst, flits)
        sent, route, delivered = message
        return (sent, _DEFER) + route + ((HOP, 0, seg),) + delivered

    #: The fabric's name in the end-to-end benchmark's tracer
    #: (``benchmarks/e2e/trace.py``'s ``BOUNDARIES``), the only row of its
    #: ``network`` layer; it goes with that row.
    send = send_stages

    def _message(self, src: int, dst: int, flits: int) -> tuple:
        """``(sent, route, delivered)``: the stages :meth:`send_stages`
        puts around its deferrals, built once per distinct message;
        *delivered* is empty unless :attr:`observed`."""
        hops = self.cube.route(src, dst) if src != dst else ()
        counters = self.stats._counters
        observed = self.observed

        def sent(walk):
            counters["messages"] += 1.0
            counters["flits"] += flits
            if hops:
                counters["hops"] += len(hops)
                if observed:
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
        return ((CALL, sent, None), route,
                ((CALL, delivered, None),) if observed else ())

    def link_stats(self):
        """Per-link resource stats (contention analysis)."""
        return {link: res.stats for link, res in self._links.items()}

    def snapshot(self) -> dict:
        """Aggregate message counters plus every link port's state, keyed
        ``"src->dst"`` in the topology's link order."""
        return {
            "stats": self.stats.snapshot(),
            "links": [[f"{src}->{dst}", res.snapshot()]
                      for (src, dst), res in self._links.items()],
        }
