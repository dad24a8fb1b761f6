"""Checkpoint benchmark: save/restore cost.

One quantity gates ``repro.ckpt``: **capture and restore overhead** --
saving a mid-run checkpoint costs one replay-to-the-stop-point plus a
state walk, and restoring by injection must be much cheaper than
re-simulating the skipped prefix.  This bench times both and reports the
serialized checkpoint size.

Numbers from a representative run live in
``benchmarks/logs/bench_ckpt.log``.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_ckpt.py -m slow -s
"""

import json
import time

import pytest

from conftest import emit_bench
from repro import ckpt
from repro.common.config import TINY_SCALE
from repro.obs.metrics import BenchRecord, make_case
from repro.sim import RunRequest, simos_mipsy
from repro.workloads import make_app


@pytest.mark.slow
def test_checkpoint_cost_and_size():
    """Save/restore latency and on-disk size for a mid-run checkpoint."""
    request = RunRequest(simos_mipsy(150), make_app("fft", TINY_SCALE), 1)
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

