"""Engine hot-path benchmark: simulator throughput on the paper's workloads.

The four SPLASH-2 stand-ins on the ``simos-mipsy-150`` (fig2) and
``hardware`` (table1) configurations at repro scale, one CPU: best-of-N
wall time and engine events/sec per case, folded into the committed perf
ledger ``benchmarks/BENCH_engine_hotpath.json`` -- the baseline
``python -m repro.obs perf --baseline`` diffs against -- plus the engine
primitives on their own (``timeout``, ``use`` free and queued,
``pp_busy``, a two-hop ``send``).  The ledger is the record; the
assertions are that repeats of one case are bit-identical and that an
application case still processes exactly the committed record's
``events`` over the same ``sim_ps`` (the calendar may get cheaper, never
different); ``speedup`` is the committed wall time over the new one.
Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_hotpath.py -m slow -s
"""

from __future__ import annotations

import time

import pytest

from conftest import BENCH_DIR, emit_bench
from repro.common.config import get_scale
from repro.engine import Engine, Resource
from repro.network.fabric import Network, NetworkParams
from repro.obs.metrics import make_case, read_bench, run_record
from repro.proto.magic import MagicController
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


def _committed():
    """case -> the ledger's record of it, as committed (before this run)."""
    return {r.case: r
            for r in read_bench(BENCH_DIR / "BENCH_engine_hotpath.json")}


def _app_record(app, config, scale, repeats, committed):
    """One application case, checked against and compared with the
    committed record of the same case (when there is one)."""
    seconds, result, events = _best_of(app, config, scale, repeats)
    case = make_case(app, config.name, 1, scale.name, "ref")
    committed = committed.get(case)
    speedup = None
    if committed is not None:
        assert (events, result.total_ps) == (committed.events,
                                             committed.sim_ps), (
            f"{case}: the calendar changed -- {events} events over "
            f"{result.total_ps} ps, committed {committed.events} over "
            f"{committed.sim_ps}")
        speedup = committed.wall_s / seconds
    print(f"{case:36s} {seconds * 1e3:7.1f} ms  "
          f"{events / seconds:9,.0f} events/s"
          + ("" if speedup is None else f"  {speedup:.2f}x committed"))
    return run_record("engine_hotpath", case, seconds, result=result,
                      events=events, speedup=speedup)


@pytest.mark.slow
def test_application_throughput():
    scale = get_scale("repro")
    committed = _committed()
    print()
    emit_bench("engine_hotpath", [
        _app_record(app, get_config(config_name), scale, 3, committed)
        for config_name in APP_CONFIGS for app in APPS])


@pytest.mark.slow
def test_perf_smoke_baseline():
    """Seed the tiny-fft case the tier-1 perf smoke gates against.

    ``scripts/run_tier1_matrix.sh`` runs ``python -m repro.obs perf fft
    --config simos-mipsy-150 --scale tiny --baseline
    benchmarks/BENCH_engine_hotpath.json``; the diff matches records by
    case string, so this test must emit exactly that case.
    """
    emit_bench("engine_hotpath", [_app_record(
        "fft", get_config("simos-mipsy-150"), get_scale("tiny"), 2,
        _committed())])


#: Engine primitives: name -> (waiting processes, context factory, the
#: wait one operation yields).  One process means the unit is always
#: free; four keep a capacity-1 resource queued.
PRIMITIVES = {
    "timeout": (1, lambda env: None, lambda env, ctx: env.timeout(100)),
    "use-free": (1, lambda env: Resource(env, "r"),
                 lambda env, res: res.use(100)),
    "use-queued": (4, lambda env: Resource(env, "r"),
                   lambda env, res: res.use(100)),
    "pp_busy": (1, lambda env: MagicController(env, 0),
                lambda env, magic: magic.pp_busy(1000)),
    "send-2hop": (1, lambda env: Network(env, 4, NetworkParams(50, 20, 10)),
                  lambda env, net: net.send(0, 3, 2)),
}
PRIMITIVE_OPS = 20_000


def _primitive_run(name):
    """``(seconds, events, now)`` of :data:`PRIMITIVE_OPS` operations."""
    n_procs, make_ctx, wait = PRIMITIVES[name]
    env = Engine()
    ctx = make_ctx(env)

    def proc():
        for _ in range(PRIMITIVE_OPS // n_procs):
            yield wait(env, ctx)

    for _ in range(n_procs):
        env.process(proc())
    start = time.perf_counter()
    env.run()
    return time.perf_counter() - start, env.events_processed, env.now


@pytest.mark.slow
def test_primitive_throughput():
    """What one wait costs, per primitive: best of five, as events/s."""
    print()
    records = []
    for name in PRIMITIVES:
        runs = [_primitive_run(name) for _ in range(5)]
        assert len({run[1:] for run in runs}) == 1, f"{name}: runs diverged"
        seconds, events, _now = min(runs)
        print(f"{name:11s} {seconds / PRIMITIVE_OPS * 1e6:6.2f} us/op  "
              f"{events / seconds:9,.0f} events/s")
        records.append(run_record(
            "engine_hotpath", make_case(name, "engine", 1, "primitive", "ref"),
            seconds, events=events))
    emit_bench("engine_hotpath", records)


if __name__ == "__main__":
    test_application_throughput()
    test_perf_smoke_baseline()
    test_primitive_throughput()
