"""Ablation: page-frame allocation policy (the Section 3.1.2 root cause).

Runs Ocean on the gold-standard machine under the three allocators at one
and four processors.  IRIX-style coloring and the random ablation stay
flat; Solo's sequential policy blows up the uniprocessor run only --
demonstrating that the Ocean misprediction is purely an allocation-policy
artefact, not a workload property.
"""

import dataclasses

from repro.sim import simos_mipsy
from repro.sim.machine import run_workload
from repro.obs.doc import Para, Table, render_text
from repro.workloads import OceanWorkload


def _with_allocator(kind):
    base = simos_mipsy(225, tuned=True)
    os_model = dataclasses.replace(base.os_model, allocator_kind=kind,
                                   name=f"os+{kind}")
    return dataclasses.replace(base, name=f"{base.name}+{kind}",
                               os_model=os_model)


def _sweep():
    rows = []
    times = {}
    for n_cpus in (1, 4):
        for kind in ("irix", "solo", "random"):
            result = run_workload(_with_allocator(kind), OceanWorkload(),
                                  n_cpus)
            times[(kind, n_cpus)] = result.parallel_ps
            rows.append([kind, str(n_cpus), f"{result.parallel_ns / 1e6:.2f}"])
    return rows, times


def test_allocator_ablation(benchmark):
    rows, times = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print()
    print(render_text([
        Para("Ocean vs page allocator (Mipsy core, as in Solo)"),
        Table("tnn", ["allocator", "CPUs", "parallel ms"], rows)]))
    # The pathology is uniprocessor-only and Solo-only.
    assert times[("solo", 1)] > 1.1 * times[("irix", 1)]
    assert times[("solo", 4)] < 1.15 * times[("irix", 4)]
