"""RunRequest: the pickleable unit of work of the experiment farm.

Every simulation the study performs -- a figure bar, a speedup-curve
point, a microbenchmark probe -- is one ``(configuration, workload,
n_cpus, placement, seed)`` tuple (the machine scale is the workload's).
:class:`RunRequest` reifies that tuple so it can cross a process boundary
(``multiprocessing`` fan-out), be content-addressed (the on-disk result
cache), and be replayed deterministically (per-request seeding of the
global RNGs before the run, so stray nondeterminism cannot leak in from
pool scheduling).
"""

from __future__ import annotations

import random
from dataclasses import KW_ONLY, dataclass
from functools import cached_property

import numpy as np

from repro.common.canonical import canonicalize, code_fingerprint, stable_hash
from repro.common.rng import DEFAULT_SEED
from repro.sim.configs import SimulatorConfig
from repro.sim.results import RunResult
from repro.vm.allocators import Placement


@dataclass
class RunRequest:
    """One simulation to perform: config + workload + shape + seed."""

    config: SimulatorConfig
    workload: object
    n_cpus: int = 1
    _: KW_ONLY
    placement: str = Placement.FIRST_TOUCH
    seed: int = DEFAULT_SEED

    def describe(self) -> str:
        return (f"{self.workload.name}@{self.config.name}"
                f"/P{self.n_cpus}/{self.workload.scale.name}")

    # -- identity ---------------------------------------------------------

    def payload(self) -> dict:
        """The canonical identity of this request (code-version-free)."""
        return {
            "config": canonicalize(self.config),
            "workload": canonicalize(self.workload),
            "n_cpus": self.n_cpus,
            "placement": self.placement,
            "seed": self.seed,
        }

    @cached_property
    def identity(self) -> str:
        """The digest of :meth:`payload`, canonicalised once per request:
        nothing changes a request after it is built.  The metrics ledger
        keys its records by it (one request, one series, across code
        versions)."""
        return stable_hash(self.payload())

    def cache_key(self) -> str:
        """Content address of the result this request would produce.

        Folds in the package source fingerprint (stale entries die with
        the code).  Nothing else: a result is a pure function of its
        request, observed or not -- recorders keep what they see.
        """
        return stable_hash({
            "code": code_fingerprint(),
            "request": self.identity,
        })

    def request_seed(self) -> int:
        """Deterministic per-request seed, independent of code version."""
        return int(self.identity[:16], 16)

    # -- execution --------------------------------------------------------

    def machine(self):
        """A cold :class:`~repro.sim.machine.Machine` for this request.

        The one way a request becomes a machine -- a straight run, a
        bisection, a timed or snapshotted run all start here.  The global RNGs are seeded from the request identity
        first; the simulator itself only uses
        :func:`repro.common.rng.derive_rng` streams, so this is a
        belt-and-braces guarantee that results do not depend on which
        pool worker (or batch position) ran them.
        """
        from repro.sim.machine import Machine

        seed = self.request_seed()
        random.seed(seed)
        np.random.seed(seed % 2**32)
        return Machine(self.config, self.n_cpus, self.workload.scale,
                       self.placement)

    def execute(self) -> RunResult:
        """Run the simulation (in this process) and return its result."""
        return self.machine().run(self.workload)
