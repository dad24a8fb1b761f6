"""The experiment farm: parallel, cached execution of simulation batches.

The paper's methodology is repetition: every figure re-runs the same
simulator lineup (``figure_lineup``) over the same workloads, the tuning
loop replays the same microbenchmarks round after round, and regenerating
EXPERIMENTS.md repeats all of it.  The farm turns that repetition from a
cost into a cache:

* **fan-out** -- a batch of :class:`~repro.sim.request.RunRequest` runs
  across a process pool (``jobs`` workers).  Requests are pickleable and
  self-seeding, and results are collected **in request order**, so a
  parallel batch is bit-identical to the serial loop.  A worker that
  dies fails the batch with a :class:`SimulationError` naming the
  requests whose results never came back; nothing is retried.
* **content-addressed result cache** -- each request's result is stored
  on disk under a stable hash of its canonicalized configuration,
  workload, scale, CPU count, placement, seed and the package source
  fingerprint (:mod:`repro.common.canonical`).  A second run of any
  experiment -- or a later figure re-running an earlier figure's lineup
  -- replays results instead of re-simulating.  Because every simulation
  is a pure function of its request (all randomness flows through
  ``derive_rng``), cached replay preserves the serial semantics exactly.
* **accounting** -- per-request wall time and hit/miss counters flow into
  a :class:`~repro.common.stats.StatsRegistry` (counter set ``farm``);
  host time stays off the simulated-time trace timeline.  Given a
  :class:`~repro.obs.metrics.MetricsWriter` (``Farm(metrics=...)``),
  every request additionally appends one record to the metrics ledger
  (cycles, percent error, attribution, cache outcome) -- the history
  ``python -m repro.obs watch`` checks for drift.

Install a farm ambiently with :meth:`Farm.activate` (the harness CLI does
this for ``--jobs`` / ``--no-cache``); the validation and microbenchmark
layers dispatch through :mod:`repro.sim.farm_hooks` and never import this
module.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.common.canonical import code_fingerprint
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.stats import StatsRegistry
from repro.common.store import JsonStore, default_dir
from repro.sim import farm_hooks
from repro.sim.request import RunRequest
from repro.sim.results import RunResult

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro/farm``."""
    return default_dir(CACHE_DIR_ENV, "farm")


class ResultCache(JsonStore):
    """Content-addressed on-disk store of serialized :class:`RunResult`.

    A :class:`~repro.common.store.JsonStore` keyed by the request's
    content address.  Concurrent farms -- including pool workers of the
    same farm -- can share one cache directory; a torn or corrupt entry
    reads as a miss, never as wrong data.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        super().__init__(root if root is not None else default_cache_dir())

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result under *key*, or None (miss/corrupt entry)."""
        data = self.read(key)
        try:
            return None if data is None else RunResult.from_dict(data["result"])
        except (KeyError, TypeError, ValueError, AttributeError,
                ConfigurationError):
            return None

    def put(self, key: str, result: RunResult,
            request: Optional[RunRequest] = None) -> None:
        """Store *result* under *key*, best effort: a cache that cannot
        be written costs a later miss, not this run."""
        try:
            self.write(key, {
                "key": key,
                "code": code_fingerprint(),
                "request": None if request is None else request.describe(),
                "result": result.to_dict(),
            })
        except OSError:
            pass


def _execute_request(request: RunRequest) -> Tuple[RunResult, float]:
    """Pool worker body: run one request, report its wall time.

    Module-level so it pickles; the request seeds the worker's global
    RNGs itself (see :meth:`RunRequest.machine`).
    """
    start = time.perf_counter()
    result = request.execute()
    return result, time.perf_counter() - start


def _fan_out(requests: List[RunRequest],
             jobs: int) -> List[Tuple[RunResult, float]]:
    """Run *requests* over *jobs* worker processes, results in order."""
    outcomes, lost = [], []
    with ProcessPoolExecutor(jobs) as pool:
        futures = [pool.submit(_execute_request, r) for r in requests]
        for request, future in zip(requests, futures):
            try:
                outcomes.append(future.result())
            except BrokenProcessPool:
                lost.append(request.describe())
    if lost:
        raise SimulationError(
            f"a farm worker died; {len(lost)} of {len(requests)} results "
            f"did not return: {', '.join(lost)}")
    return outcomes


class Farm:
    """A batch runner: worker pool + result cache + accounting."""

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 registry: Optional[StatsRegistry] = None, metrics=None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        #: Optional :class:`~repro.obs.metrics.MetricsWriter`: one ledger
        #: record per request this farm resolves.
        self.metrics = metrics
        self.registry = registry if registry is not None else StatsRegistry()
        self.counters = self.registry.counter_set("farm")

    # -- counters ---------------------------------------------------------

    @property
    def hits(self) -> int:
        return int(self.counters.get("cache.hits"))

    @property
    def misses(self) -> int:
        return int(self.counters.get("cache.misses"))

    def summary(self) -> str:
        c = self.counters
        return (
            f"farm: {int(c.get('requests'))} requests, "
            f"{self.hits} cache hits, {int(c.get('executed'))} executed "
            f"(jobs={self.jobs}, cache={'on' if self.cache else 'off'}), "
            f"simulation wall {c.get('wall_ms') / 1000.0:.1f}s"
        )

    def _observe(self, request: RunRequest, result: RunResult, wall_s: float,
                 outcome: str, key: str) -> None:
        """Tell the ledger, if there is one, about one resolution."""
        if self.metrics is not None:
            self.metrics.observe(request, result, wall_s, outcome, key=key)

    # -- execution --------------------------------------------------------

    def map(self, requests: Sequence[RunRequest]) -> List[RunResult]:
        """Execute a batch, in order; identical to the serial loop.

        Cache hits resolve immediately; distinct requests with identical
        content addresses (e.g. a lineup containing the same config
        twice) simulate once; the remaining misses fan out across the
        pool.  The returned list lines up index-for-index with
        *requests*.
        """
        requests = list(requests)
        results: List[Optional[RunResult]] = [None] * len(requests)
        pending: List[Tuple[str, RunRequest]] = []
        shared: dict = {}            # key -> indices awaiting that result
        for i, request in enumerate(requests):
            self.counters.add("requests")
            key = request.cache_key()
            if self.cache is not None:
                hit = self.cache.get(key)
                if hit is not None:
                    self.counters.add("cache.hits")
                    self._observe(request, hit, 0.0, "hit", key)
                    results[i] = hit
                    continue
                self.counters.add("cache.misses")
            waiters = shared.setdefault(key, [])
            waiters.append(i)
            if len(waiters) == 1:
                pending.append((key, request))

        if pending:
            todo = [request for _key, request in pending]
            if self.jobs > 1 and len(todo) > 1:
                outcomes = _fan_out(todo, min(self.jobs, len(todo)))
                self.counters.add("batches.parallel")
            else:
                outcomes = [_execute_request(request) for request in todo]
                self.counters.add("batches.serial")
            for (key, request), (result, wall_s) in zip(pending, outcomes):
                self.counters.add("executed")
                self.counters.add("wall_ms", wall_s * 1000.0)
                self._observe(request, result, wall_s, "run", key)
                if self.cache is not None:
                    self.cache.put(key, result, request)
                for i in shared[key]:
                    results[i] = result
        return results  # type: ignore[return-value]

    def run(self, request: RunRequest) -> RunResult:
        """Execute one request (cache-aware, always in-process)."""
        return self.map([request])[0]

    def activate(self):
        """Install this farm ambiently (see :mod:`repro.sim.farm_hooks`)."""
        return farm_hooks.farming(self)
