"""Seeded determinism hazards: one of each D rule."""

import os
import time

from repro.obs import hooks as obs_hooks

#: Module-level set: iterating it bare is a D1 hazard.
PENDING = set()

#: Order-insensitive consumers of a set: must NOT fire.
PENDING_FROZEN = frozenset(p for p in PENDING)
PENDING_COUNT = sum(1 for p in PENDING)


class HazardSoup:
    def __init__(self):
        self.sharers = set()
        self.nodes = []

    def invalidate(self, node):
        return [s for s in self.sharers if s != node]   # D1: attr iteration

    def invalidate_sorted(self, node):
        # sorted wrapper: must NOT fire.
        return sorted(s for s in self.sharers if s != node)

    def drain(self):
        for item in PENDING:                            # D1: module-set loop
            self.nodes.append(item)

    def stamp(self):
        started = time.time()                           # D2: wall clock
        lane = os.environ.get("REPRO_LANE")             # D2: ambient config
        return started, lane

    def trace(self, when):
        obs_hooks.active.span(when, "memsys", "txn")    # D3: call via module

    def trace_disciplined(self, when):
        probe = obs_hooks.active                        # sanctioned shape:
        if probe is not None:                           # must NOT fire
            probe.span(when, "memsys", "txn")

    def ranked(self):
        return sorted(self.nodes, key=id)               # D4: id() ordering

    def lane_table(self):
        return os.environ                               # D2: bare read, no call

    def stamp_aliased(self):
        import time as t
        return t.monotonic()                            # D2: aliased module
