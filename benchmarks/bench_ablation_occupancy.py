"""Ablation: how much of the Figure 7 story is controller occupancy?

Sweeps the MAGIC protocol-processor occupancy fraction (0 = the NUMA
simplification, 0.55 = FlashLite's default, 1.0 = handlers fully
serialise) on the unplaced-Radix hotspot at 16 CPUs.  Predicted hotspot
throughput must degrade monotonically as more of each handler's latency
occupies the controller -- the design choice behind splitting handler
latency from occupancy (DESIGN.md).
"""

from dataclasses import replace

from repro.sim import simos_mipsy
from repro.sim.machine import run_workload
from repro.obs.doc import Para, Table, render_text
from repro.vm.allocators import Placement
from repro.workloads import make_app


def _sweep():
    base = simos_mipsy(225, tuned=True)
    rows = []
    times = []
    for fraction in (0.0, 0.55, 1.0):
        params = replace(base.memsys, pp_occ_fraction=fraction,
                         name=f"fl-occ{fraction}")
        config = base.derive(f"-occ{fraction}", memsys=params)
        result = run_workload(config, make_app("radix"), 16,
                              placement=Placement.NODE0)
        rows.append([f"{fraction:.2f}", f"{result.parallel_ns / 1e6:.2f}"])
        times.append(result.parallel_ps)
    return rows, times


def test_occupancy_ablation(benchmark):
    rows, times = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print()
    print(render_text([
        Para("unplaced Radix @16 CPUs vs protocol-processor occupancy "
             "fraction"),
        Table("nn", ["occ fraction", "parallel ms"], rows)]))
    assert times[0] < times[1] < times[2]
