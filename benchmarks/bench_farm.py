"""Farm benchmark: cold-vs-warm cache replay of a full experiment.

The acceptance bar for the farm is that a second run of an experiment
completes at least :data:`MIN_CACHE_SPEEDUP` x faster by replaying the
content-addressed result cache -- with *identical* findings.  This bench
demonstrates it on ``fig6`` (the speedup-curve study, 15 simulations) at
tiny scale; ``benchmarks/logs/farm_demo.log`` shows the same effect for
``python -m repro.harness all --jobs 4`` at repro scale.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_farm.py -m slow -s
"""

import time

import pytest

from conftest import emit_bench
from repro.common.config import TINY_SCALE
from repro.harness import Farm, ResultCache, run_experiment
from repro.obs.metrics import BenchRecord, make_case

#: Required warm-over-cold speedup from cached replay (acceptance: >= 3x).
MIN_CACHE_SPEEDUP = 3.0

BENCH_EXPERIMENT = "fig6"


@pytest.mark.slow
def test_farm_cache_speedup(tmp_path):
    cache = ResultCache(tmp_path / "cache")

    def timed_run():
        farm = Farm(jobs=2, cache=cache)
        start = time.perf_counter()
        with farm.activate():
            result = run_experiment(BENCH_EXPERIMENT, TINY_SCALE)
        return result, time.perf_counter() - start, farm

    cold, cold_s, cold_farm = timed_run()
    warm, warm_s, warm_farm = timed_run()

    speedup = cold_s / warm_s
    print(f"\n{BENCH_EXPERIMENT}@tiny cold {cold_s:.2f}s "
          f"({cold_farm.summary()})")
    print(f"{BENCH_EXPERIMENT}@tiny warm {warm_s:.2f}s "
          f"({warm_farm.summary()}): {speedup:.1f}x")

    # Identical findings, every simulation replayed from cache.
    assert warm.rendered == cold.rendered
    assert ([f.to_dict() for f in warm.findings]
            == [f.to_dict() for f in cold.findings])
    assert warm_farm.hits == int(warm_farm.counters.get("requests"))
    assert int(warm_farm.counters.get("executed")) == 0
    emit_bench("farm", [
        BenchRecord(bench="farm",
                    case=make_case(BENCH_EXPERIMENT, "farm-jobs2", 2,
                                   "tiny", "cold"),
                    wall_s=cold_s),
        BenchRecord(bench="farm",
                    case=make_case(BENCH_EXPERIMENT, "farm-jobs2", 2,
                                   "tiny", "warm"),
                    wall_s=warm_s, speedup=speedup),
    ])
    assert speedup >= MIN_CACHE_SPEEDUP, (
        f"warm cache run only {speedup:.1f}x faster "
        f"(need >= {MIN_CACHE_SPEEDUP}x)")
