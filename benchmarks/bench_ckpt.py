"""Checkpoint benchmark: save/restore cost and warm-start speedup.

Two quantities gate ``repro.ckpt``:

* **Capture and restore overhead** -- saving a mid-run checkpoint costs
  one replay-to-the-stop-point plus a state walk, and restoring by
  injection must be much cheaper than re-simulating the skipped prefix.
  This bench times both and reports the serialized checkpoint size.
* **Warm-start speedup** -- :func:`repro.ckpt.warm_run` on the TLB
  microbench must beat a cold run by at least
  :data:`MIN_WARM_SPEEDUP` x once the initialization checkpoint is
  cached, with an identical :class:`RunResult`.

Numbers from a representative run live in
``benchmarks/logs/bench_ckpt.log``.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_ckpt.py -m slow -s
"""

import json
import time

import pytest

from conftest import emit_bench
from repro import ckpt
from repro.common.config import REPRO_SCALE, TINY_SCALE
from repro.obs.metrics import BenchRecord, make_case
from repro.sim import RunRequest, simos_mipsy
from repro.workloads import TlbTimer, make_app

#: Required warm-over-cold speedup once the init checkpoint is cached.
#: The TLB microbench's init prefix (the warm-and-place pass) is only
#: ~1/9 of its events but a larger share of its wall clock -- every
#: access in it faults pages, fills caches and runs the placement
#: protocol, while the measured passes pay the TLB refill alone.
MIN_WARM_SPEEDUP = 1.2


@pytest.mark.slow
def test_checkpoint_cost_and_size():
    """Save/restore latency and on-disk size for a mid-run checkpoint."""
    request = RunRequest(simos_mipsy(150), make_app("fft", TINY_SCALE),
                         1, TINY_SCALE)
    straight = request.execute()

    start = time.perf_counter()
    checkpoint = ckpt.save(request, at_ps=straight.total_ps // 2,
                           mode=ckpt.MODE_QUIESCE)
    save_s = time.perf_counter() - start
    size_kb = len(json.dumps(checkpoint.to_dict())) / 1024

    start = time.perf_counter()
    machine = ckpt.restore(checkpoint, method="inject")
    inject_s = time.perf_counter() - start

    start = time.perf_counter()
    ckpt.restore(checkpoint, method="replay")
    replay_s = time.perf_counter() - start

    skipped = checkpoint.stop["events_processed"]
    print(f"\nfft@tiny mid-run checkpoint: {skipped} events captured, "
          f"{size_kb:.0f} KiB serialized")
    print(f"  save (run-to-gate + walk): {save_s:.2f}s")
    print(f"  restore by injection:      {inject_s:.3f}s")
    print(f"  restore by replay+verify:  {replay_s:.2f}s")

    assert machine.env.events_processed == skipped
    emit_bench("ckpt", [
        BenchRecord(bench="ckpt",
                    case=make_case("fft", "simos-mipsy-150", 1, "tiny",
                                   "ckpt-save"),
                    wall_s=save_s, events=skipped),
        BenchRecord(bench="ckpt",
                    case=make_case("fft", "simos-mipsy-150", 1, "tiny",
                                   "ckpt-inject"),
                    wall_s=inject_s),
        BenchRecord(bench="ckpt",
                    case=make_case("fft", "simos-mipsy-150", 1, "tiny",
                                   "ckpt-replay"),
                    wall_s=replay_s, events=skipped),
    ])
    # Injection must not pay for the skipped prefix the way replay does.
    assert inject_s < replay_s, (
        f"injection ({inject_s:.3f}s) should beat replay ({replay_s:.3f}s)")


#: Timing repeats: one TLB-microbench run takes ~10 ms, so single-shot
#: wall clocks are noise; totals over REPEATS runs are stable.
REPEATS = 20


@pytest.mark.slow
def test_warm_start_speedup(tmp_path):
    """warm_run on the TLB microbench: cached init, identical result."""
    request = RunRequest(simos_mipsy(150), TlbTimer(REPRO_SCALE),
                         1, REPRO_SCALE)

    start = time.perf_counter()
    cold = request.execute()
    for _ in range(REPEATS - 1):
        request.execute()
    cold_s = time.perf_counter() - start

    store = ckpt.CheckpointStore(tmp_path / "ckpt")
    # First warm_run pays for the capture and seeds the store.
    start = time.perf_counter()
    seeded = ckpt.warm_run(request, at_ps=1, store=store)
    seed_s = time.perf_counter() - start
    checkpoint = next(iter([store.get(k.stem) for k in
                            (tmp_path / "ckpt").rglob("*.json")]))

    start = time.perf_counter()
    warm = ckpt.warm_run(request, at_ps=1, store=store)
    for _ in range(REPEATS - 1):
        ckpt.warm_run(request, at_ps=1, store=store)
    warm_s = time.perf_counter() - start

    speedup = cold_s / warm_s
    skipped = checkpoint.stop["events_processed"]
    print(f"\ntlb-refill@repro cold x{REPEATS}:    {cold_s:.2f}s")
    print(f"tlb-refill@repro seeding run: {seed_s:.3f}s "
          f"(captures {skipped} init events)")
    print(f"tlb-refill@repro warm x{REPEATS}:    {warm_s:.2f}s  "
          f"({speedup:.1f}x, each run skips {skipped} events)")

    assert seeded.to_dict() == cold.to_dict()
    assert warm.to_dict() == cold.to_dict()
    assert len(store) == 1
    # The skip itself is exact, not statistical: every warm start begins
    # past the captured init events.
    assert skipped > 0
    machine = ckpt.restore(checkpoint, method="inject")
    assert machine.env.events_processed == skipped
    emit_bench("ckpt", [
        BenchRecord(bench="ckpt",
                    case=make_case("tlb-refill", "simos-mipsy-150", 1,
                                   "repro", f"cold-x{REPEATS}"),
                    wall_s=cold_s),
        BenchRecord(bench="ckpt",
                    case=make_case("tlb-refill", "simos-mipsy-150", 1,
                                   "repro", f"warm-x{REPEATS}"),
                    wall_s=warm_s, speedup=speedup),
    ])
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm start only {speedup:.1f}x faster "
        f"(need >= {MIN_WARM_SPEEDUP}x)")
