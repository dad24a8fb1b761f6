"""Engine hot-path benchmark: simulator throughput on the paper's workloads.

The four SPLASH-2 stand-ins on the ``simos-mipsy-150`` (fig2) and
``hardware`` (table1) configurations at repro scale, one CPU: best-of-N
wall time and engine events/sec per case, folded into the committed perf
ledger ``benchmarks/BENCH_engine_hotpath.json`` -- the baseline
``python -m repro.obs perf --baseline`` diffs against.  The ledger is
the record; the only assertion is that repeats of one case are
bit-identical.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_hotpath.py -m slow -s
"""

from __future__ import annotations

import time

import pytest

from conftest import emit_bench
from repro.common.config import get_scale
from repro.obs.metrics import make_case, run_record
from repro.sim.configs import get_config
from repro.sim.machine import Machine
from repro.workloads import make_app

#: fig2 simulates the applications on scaled Mipsy; table1 is the FLASH
#: hardware configuration itself.
APP_CONFIGS = ("simos-mipsy-150", "hardware")
APPS = ("fft", "radix", "lu", "ocean")


def _best_of(app, config, scale, repeats):
    """Best-of-*repeats* timed runs; returns ``(seconds, result, events)``.

    Single lu/fft runs vary by ~30% on a loaded host, so the minimum is
    the stable statistic.  The engine's event count feeds the ledger's
    events/sec metric.
    """
    best = None
    for _ in range(repeats):
        workload = make_app(app, scale)
        machine = Machine(config, 1, scale)
        start = time.perf_counter()
        result = machine.run(workload)
        elapsed = time.perf_counter() - start
        if best is not None:
            assert result.to_dict() == best[1].to_dict(), (
                f"{app}@{config.name}: repeated run diverged")
        if best is None or elapsed < best[0]:
            best = (elapsed, result, machine.env.events_processed)
    return best


@pytest.mark.slow
def test_application_throughput():
    scale = get_scale("repro")
    print()
    records = []
    for config_name in APP_CONFIGS:
        config = get_config(config_name)
        for app in APPS:
            seconds, result, events = _best_of(app, config, scale, repeats=3)
            print(f"{app:5s} @ {config_name:15s} {seconds * 1e3:7.1f} ms  "
                  f"{events / seconds:9,.0f} events/s")
            records.append(run_record(
                "engine_hotpath",
                make_case(app, config_name, 1, scale.name, "ref"),
                seconds, result=result, events=events))
    emit_bench("engine_hotpath", records)


@pytest.mark.slow
def test_perf_smoke_baseline():
    """Seed the tiny-fft case the tier-1 perf smoke gates against.

    ``scripts/run_tier1_matrix.sh`` runs ``python -m repro.obs perf fft
    --config simos-mipsy-150 --scale tiny --baseline
    benchmarks/BENCH_engine_hotpath.json``; the diff matches records by
    case string, so this test must emit exactly that case.
    """
    scale = get_scale("tiny")
    config = get_config("simos-mipsy-150")
    seconds, result, events = _best_of("fft", config, scale, repeats=2)
    emit_bench("engine_hotpath", [run_record(
        "engine_hotpath",
        make_case("fft", config.name, 1, scale.name, "ref"),
        seconds, result=result, events=events)])


if __name__ == "__main__":
    test_application_throughput()
    test_perf_smoke_baseline()
