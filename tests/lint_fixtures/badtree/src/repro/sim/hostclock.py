"""Seeded host-clock hazards: D5 reads and a D3 call through the module."""

import time
from time import perf_counter_ns

from repro.obs import hooks as obs_hooks


class HostClocked:
    def wall(self):
        return time.perf_counter()                      # D5: direct read

    def wall_ns(self):
        return perf_counter_ns()                        # D5: aliased read

    def report_bad(self, waited_ps):
        obs_hooks.active.drain(waited_ps)               # D3: call via module

    def report_disciplined(self, waited_ps):
        probe = obs_hooks.active                        # sanctioned shape:
        if probe is not None:                           # must NOT fire
            probe.drain(waited_ps)
