"""Ablation: out-of-order window/width sensitivity of the MXS model.

The paper configures MXS "as close to an R10000 as possible" but notes
that resource constraints were added only for this study.  This bench
sweeps issue width on FFT to show the dataflow scheduler responds
sensibly: narrower machines are slower, and the effect saturates once
width exceeds the workload's ILP.
"""

from dataclasses import replace

from repro.sim import simos_mxs
from repro.sim.machine import run_workload
from repro.obs.doc import Para, Table, render_text
from repro.workloads import make_app


def _sweep():
    rows = []
    times = []
    for width in (1, 2, 4, 8):
        base = simos_mxs(tuned=True)
        config = base.derive(f"-w{width}",
                             core=replace(base.core, width=width))
        result = run_workload(config, make_app("fft"), 1)
        rows.append([str(width), f"{result.parallel_ns / 1e6:.2f}"])
        times.append(result.parallel_ps)
    return rows, times


def test_window_ablation(benchmark):
    rows, times = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print()
    print(render_text([Para("FFT on MXS vs issue width"),
                       Table("nn", ["width", "parallel ms"], rows)]))
    assert times[0] > times[2]          # 1-wide slower than 4-wide
    assert times[3] >= 0.75 * times[2]  # diminishing returns past the ILP
