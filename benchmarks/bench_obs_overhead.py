"""Observer-off vs. tracer-on overhead of the observability subsystem.

Two measurements on a small Ocean run (the reference run of the
observability acceptance gate):

* **disabled path** -- the instrumented simulator with nothing installed.
  Every site is one load of the probe slot (``repro.obs.hooks.active``,
  or the engine's own ``tracer`` attribute) plus an ``is not None``
  test; we time that guard directly and project its share of the run
  from the number of guarded probe calls one run reaches, counted by a
  recorder that subscribes to every event.  The projection must stay
  under 5% of the reference run time.
* **enabled path** -- the same run with a tracer installed.  Tracing is
  allowed to cost real time (it records one span per stall/transaction)
  but must stay within a small constant factor of the baseline.

The headline numbers fold into the committed BENCH perf ledger
(``benchmarks/BENCH_obs_overhead.json``) via ``conftest.emit_bench``.

Runs under pytest (``pytest benchmarks/bench_obs_overhead.py -s``; marked
``slow``) or directly (``python benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import time

import pytest

from repro.common.config import get_scale
from repro.obs import hooks as obs_hooks
from repro.obs.metrics import BenchRecord, make_case
from repro.obs.trace import TraceRecorder
from repro.sim.configs import get_config
from repro.sim.machine import run_workload
from repro.workloads import make_app

#: Enabled run may cost at most this factor over the disabled run.
MAX_ENABLED_RATIO = 4.0
#: Projected disabled-guard overhead must stay under this share of a run.
MAX_DISABLED_OVERHEAD = 0.05


class GuardCounter(obs_hooks.Recorder):
    """Subscribes to every probe event, per-calendar-event ones included.

    Each delivery is one guarded call reached, and no site tests its
    local more often than it delivers (the engine's one site delivers
    one event per calendar event behind one test), so the count is an
    upper bound on the guards a disabled run executes."""

    engine_events = True

    def __init__(self):
        self.guards = 0

    def _count(self, *_args):
        self.guards += 1


for _event in obs_hooks.EVENTS:
    setattr(GuardCounter, _event, GuardCounter._count)


def _reference_run(*recorders):
    scale = get_scale("tiny")
    config = get_config("simos-mipsy-150-tuned")
    workload = make_app("ocean", scale)
    start = time.perf_counter()
    if recorders:
        with obs_hooks.observing(*recorders):
            run_workload(config, workload, 2)
    else:
        run_workload(config, workload, 2)
    return time.perf_counter() - start


def _time_guard(iterations: int = 1_000_000) -> float:
    """Seconds per disabled-path guard (module load + is-not-None test)."""
    start = time.perf_counter()
    hits = 0
    for _ in range(iterations):
        if obs_hooks.active is not None:  # the disabled fast path
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits == 0
    return elapsed / iterations


def measure():
    assert obs_hooks.active is None, "benchmark requires nothing observing"
    t_off = min(_reference_run() for _ in range(3))
    tracer = TraceRecorder(capacity=4096)
    t_on = min(
        _reference_run(TraceRecorder(capacity=4096)),
        _reference_run(tracer),
    )
    guard_s = _time_guard()
    counter = GuardCounter()
    _reference_run(counter)
    return {
        "t_off_s": t_off,
        "t_on_s": t_on,
        "ratio": t_on / t_off,
        "guard_ns": guard_s * 1e9,
        "spans": tracer.recorded,
        "guards": counter.guards,
        "disabled_overhead_fraction": counter.guards * guard_s / t_off,
    }


def _emit_ledger(m) -> None:
    """Fold the headline numbers into BENCH_obs_overhead.json."""
    from conftest import emit_bench

    config, scale = "simos-mipsy-150-tuned", "tiny"
    emit_bench("obs_overhead", [
        BenchRecord(bench="obs_overhead",
                    case=make_case("ocean", config, 2, scale, "obs-off"),
                    wall_s=m["t_off_s"]),
        BenchRecord(bench="obs_overhead",
                    case=make_case("ocean", config, 2, scale, "obs-on"),
                    wall_s=m["t_on_s"]),
        # The disabled-guard microbenchmark: wall clock of the
        # 1M-iteration loop, throughput in guards/second.
        BenchRecord(bench="obs_overhead",
                    case=make_case("guards", "probe-slot", 1, scale,
                                   "disabled-guard"),
                    wall_s=m["guard_ns"] * 1e-9 * 1_000_000,
                    events=1_000_000,
                    events_per_sec=(1e9 / m["guard_ns"]
                                    if m["guard_ns"] else None)),
    ])


@pytest.mark.slow
def test_obs_overhead():
    m = measure()
    print()
    print(f"observer off: {m['t_off_s'] * 1e3:8.1f} ms")
    print(f"tracer on   : {m['t_on_s'] * 1e3:8.1f} ms  ({m['ratio']:.2f}x, "
          f"{m['spans']} spans)")
    print(f"guard cost  : {m['guard_ns']:8.1f} ns "
          f"({m['guards']} guards/run -> projected disabled overhead "
          f"{100 * m['disabled_overhead_fraction']:.2f}%)")
    _emit_ledger(m)
    assert m["disabled_overhead_fraction"] <= MAX_DISABLED_OVERHEAD, (
        "disabled probe guards exceed the 5% budget on the reference run"
    )
    assert m["ratio"] <= MAX_ENABLED_RATIO, (
        f"enabled tracing costs {m['ratio']:.2f}x, "
        f"budget is {MAX_ENABLED_RATIO}x"
    )


if __name__ == "__main__":
    test_obs_overhead()
