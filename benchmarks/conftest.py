"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures exactly
once (``pedantic`` with a single round: these are experiment replays, not
microbenchmarks of Python code) and prints the rendered table/figure so a
``pytest benchmarks/ --benchmark-only -s`` run reproduces the paper's
evaluation section end to end.

The replays can route through the experiment farm:

* ``--farm-jobs N`` fans each experiment's simulation batches across an
  N-worker pool and enables the content-addressed result cache, so a
  second benchmark run replays instead of re-simulating;
* ``--farm-no-cache`` keeps the pool but disables the cache (honest
  timings on every run);
* ``--farm-cache-dir PATH`` overrides the cache location (default:
  ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/farm``).

By default (no ``--farm-jobs``) benchmarks run the historical serial
path, so published timings stay comparable.

Benchmarks that measure the *simulator's* speed (engine hot path, farm
cache, checkpoints) additionally fold their headline numbers into the
committed BENCH perf ledger (``benchmarks/BENCH_<name>.json``, the
frozen schema of :mod:`repro.obs.metrics`) via :func:`emit_bench`, which is
what ``python -m repro.obs perf --baseline ...`` diffs against.
"""

from pathlib import Path

import pytest

from repro.common.config import REPRO_SCALE
from repro.harness import Farm, ResultCache, run_experiment
from repro.obs.metrics import merge_bench

#: Where the committed BENCH_<name>.json perf-ledger files live.
BENCH_DIR = Path(__file__).resolve().parent


def emit_bench(bench, records):
    """Merge *records* into the committed ``BENCH_<bench>.json`` ledger.

    :func:`repro.obs.metrics.merge_bench` replaces same-case records and
    keeps the rest, so each benchmark updates only its own cases and
    reruns stay idempotent.
    """
    path = BENCH_DIR / f"BENCH_{bench}.json"
    merge_bench(path, bench, records)
    print(f"bench ledger: updated {len(records)} case(s) in {path.name}")
    return path


def pytest_addoption(parser):
    group = parser.getgroup("farm")
    group.addoption("--farm-jobs", type=int, default=0, metavar="N",
                    help="run experiments through an N-worker farm "
                         "with the result cache enabled")
    group.addoption("--farm-no-cache", action="store_true",
                    help="with --farm-jobs: disable the result cache")
    group.addoption("--farm-cache-dir", default=None, metavar="PATH",
                    help="with --farm-jobs: result cache directory")


@pytest.fixture
def farm(request):
    """The farm configured by --farm-* options, or None (serial path)."""
    jobs = request.config.getoption("--farm-jobs")
    if not jobs:
        return None
    cache = None
    if not request.config.getoption("--farm-no-cache"):
        cache = ResultCache(request.config.getoption("--farm-cache-dir"))
    return Farm(jobs=jobs, cache=cache)


@pytest.fixture
def experiment(benchmark, farm):
    """Run one registered experiment under pytest-benchmark."""

    def _run_one(exp_id):
        if farm is None:
            return run_experiment(exp_id, REPRO_SCALE)
        with farm.activate():
            return run_experiment(exp_id, REPRO_SCALE)

    def run(exp_id, min_ok_fraction=0.5):
        result = benchmark.pedantic(
            lambda: _run_one(exp_id),
            rounds=1, iterations=1,
        )
        print()
        print(result.format())
        if farm is not None:
            print(farm.summary())
        if result.findings:
            ok = sum(1 for f in result.findings if f.ok)
            assert ok >= min_ok_fraction * len(result.findings), (
                f"{exp_id}: only {ok}/{len(result.findings)} shape checks hold"
            )
        return result

    return run
