"""Synchronisation primitives shared by the simulated processors.

Barriers and locks are modelled at the machine level (their memory traffic
is not separately simulated; the paper's applications synchronise rarely
relative to their memory traffic).  Arrival/acquire times use each core's
local clock, so imbalance between processors -- the amplifier behind the
Radix conflict story -- is captured.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import SimulationError
from repro.engine import Engine, Event, Resource
from repro.obs import hooks as obs_hooks


class SyncDomain:
    """Barriers + locks for one machine run."""

    def __init__(self, env: Engine, n_cpus: int):
        self.env = env
        self.n_cpus = n_cpus
        self._barriers: Dict[int, List] = {}   # bid -> [arrived, event]
        self._locks: Dict[int, Resource] = {}

    def barrier_arrive(self, bid: int, node: int) -> Event:
        """Register arrival; the returned event fires when all have arrived.

        Each barrier id must be used exactly once per CPU.
        """
        state = self._barriers.get(bid)
        if state is None:
            state = [0, self.env.event()]
            self._barriers[bid] = state
        state[0] += 1
        if state[0] > self.n_cpus:
            raise SimulationError(f"barrier {bid}: more arrivals than CPUs")
        probe = obs_hooks.active
        if probe is not None:
            probe.span(self.env.now, obs_hooks.SYNC, "barrier_arrive", 0,
                       {"cpu": node, "bid": bid, "arrived": state[0]})
        if state[0] == self.n_cpus:
            state[1].succeed(self.env.now)
            del self._barriers[bid]
            if probe is not None:
                probe.span(self.env.now, obs_hooks.SYNC,
                           "barrier_release", 0, {"bid": bid})
        return state[1]

    def lock_acquire(self, lid: int) -> Event:
        lock = self._locks.get(lid)
        if lock is None:
            lock = Resource(self.env, f"lock{lid}")
            self._locks[lid] = lock
        return lock.acquire()

    def lock_release(self, lid: int) -> None:
        lock = self._locks.get(lid)
        if lock is None:
            raise SimulationError(f"release of never-acquired lock {lid}")
        lock.release()

    def open_barriers(self) -> int:
        """Barriers some CPU is still waiting on (deadlock diagnostics)."""
        return len(self._barriers)
