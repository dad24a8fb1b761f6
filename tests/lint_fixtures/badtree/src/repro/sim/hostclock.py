"""Seeded host-clock hazards: D5 reads and a D3 host-bracket call."""

import time
from time import perf_counter_ns

from repro.obs import hooks as obs_hooks


class HostClocked:
    def wall(self):
        return time.perf_counter()                      # D5: direct read

    def wall_ns(self):
        return perf_counter_ns()                        # D5: aliased read

    def profile_bad(self, t0):
        obs_hooks.active.host_commit("dispatch", t0)    # D3: call via module

    def profile_disciplined(self, t0):
        probe = obs_hooks.active                        # sanctioned shape:
        if probe is not None:                           # must NOT fire
            probe.host_commit("dispatch", t0)
