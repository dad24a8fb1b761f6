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
from typing import Dict, Tuple

from repro.common.stats import CounterSet
from repro.engine import Engine, Resource, Steps
from repro.network.topology import Hypercube
from repro.obs import hooks as obs_hooks


@dataclass(frozen=True)
class NetworkParams:
    """Timing of the interconnect."""

    hop_ps: int             #: wire + router pipeline latency per hop
    router_occ_ps: int      #: port occupancy of a header flit
    flit_occ_ps: int        #: extra occupancy per additional flit

    def occupancy_ps(self, flits: int) -> int:
        return self.router_occ_ps + self.flit_occ_ps * max(0, flits - 1)


class Network:
    """Hypercube fabric; ``send`` returns an event firing on delivery."""

    def __init__(self, env: Engine, n_nodes: int, params: NetworkParams,
                 model_contention: bool = True):
        self.env = env
        self.cube = Hypercube(n_nodes)
        self.params = params
        self.model_contention = model_contention
        self.stats = CounterSet("network")
        self._links: Dict[Tuple[int, int], Resource] = {}
        if model_contention:
            for link in self.cube.links():
                self._links[link] = Resource(
                    env, f"link{link[0]}->{link[1]}"
                )

    def send(self, src: int, dst: int, flits: int = 1, txn=None):
        """Transmit a message; the returned event fires at delivery time.

        Per hop the message occupies the link's router port (a plain
        delay without contention modelling), then pays the wire latency.
        *txn* threads the requesting transaction's record down to each
        router port on the route, so per-hop queueing is captured as
        wait (wire/occupancy time stays service); see
        :mod:`repro.obs.txn`.
        """
        self.stats.add("messages")
        self.stats.add("flits", flits)
        hops = self.cube.route(src, dst) if src != dst else ()
        if hops:
            self.stats.add("hops", len(hops))
        occupancy = self.params.occupancy_ps(flits)
        steps = []
        for link in hops:
            port = self._links[link] if self.model_contention else None
            steps += [(port, occupancy), (None, self.params.hop_ps)]
        done = Steps(self.env, steps, txn)
        probe = obs_hooks.active
        if probe is not None and hops:
            # First waiter: runs right before whoever waits on delivery.
            start = self.env.now
            done.add_waiter(lambda ev: probe.net_msg(
                src, dst, flits, hops, start, ev.value - start))
        return done

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
