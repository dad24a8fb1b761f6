"""Memory-system-model sensitivity (Section 3.3, Figure 7).

The experiment: disable Radix-Sort's data placement so every page lands on
node 0, creating a memory hotspot, then ask each memory-system model to
predict the 8- and 16-processor speedup.  FlashLite (occupancy + network
contention) predicts the hardware's poor speedup closely; the generic NUMA
model -- correct latencies, no controller occupancy -- still sees *that*
the speedup is poor but overpredicts it by tens of percent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.obs.doc import Para, Table, render_text
from repro.sim.configs import SimulatorConfig
from repro.sim.request import RunRequest
from repro.validation.trends import SpeedupStudy, speedup_study
from repro.vm.allocators import Placement


@dataclass
class HotspotStudy:
    """Figure 7: unplaced-radix speedups per memory-system model."""

    study: SpeedupStudy
    reference: str

    def format(self) -> str:
        counts = [p for p in sorted(self.study.curves[0].times_ps) if p > 1]
        return render_text([
            Para("unplaced Radix-Sort speedup (memory hotspot at node 0)"),
            Table("t" + "n" * len(counts), ["config", *map(str, counts)],
                  [[curve.config + (" (reference)" if curve.config
                                    == self.reference else ""),
                    *(f"{curve.at(p):.2f}" for p in counts)]
                   for curve in self.study.curves])])


def hotspot_study(
    configs: Sequence[SimulatorConfig],
    workload,
    reference_name: str,
    cpu_counts: Sequence[int] = (1, 8, 16),
) -> HotspotStudy:
    """Run the unplaced-workload sweep (placement forced to node 0)."""
    study = speedup_study(configs, workload, cpu_counts,
                          placement=Placement.NODE0)
    return HotspotStudy(study=study, reference=reference_name)


def evidence(
    config: SimulatorConfig,
    workload,
    n_cpus: int = 8,
    *,
    placement: str = Placement.FIRST_TOUCH,
    kinds: Sequence[str] = ("topo", "txn"),
    top_k: Optional[int] = None,
) -> Dict[str, dict]:
    """Attribution payloads from one observed run, keyed by *kinds*.

    ``"topo"`` is spatial evidence *that* a hotspot exists: the
    HotspotReport payload (``kind: "topo"``) -- under node-0 placement
    the traffic matrix collapses onto one home column; the dashboard
    renders it in "Where in the machine".  ``"txn"`` is latency anatomy,
    *what each transaction spent its latency on*: the TxnReport payload
    (``kind: "txn"``), per-kind histograms (p50/p90/p99) plus the
    slowest-*top_k* critical paths, segments summing exactly to
    end-to-end latency; rendered in "Where does latency come from".
    Attach either dict as a Finding/ExperimentResult attribution.

    Runs outside the experiment farm on purpose: recorder state is a
    side effect of simulation that a cached RunResult cannot replay.
    """
    from repro.obs import hooks as obs_hooks
    from repro.obs import txn as obs_txn
    from repro.obs.hotspot import build_report
    from repro.obs.topo import TopoRecorder

    reports = {
        "topo": (TopoRecorder, build_report),
        "txn": (obs_txn.TxnRecorder,
                lambda rec, run: obs_txn.build_report(rec, run, top_k=top_k)),
    }
    recorders = {kind: reports[kind][0]() for kind in kinds}
    request = RunRequest(config, workload, n_cpus, placement=placement)
    with obs_hooks.observing(*recorders.values()):
        result = request.execute()
    return {kind: reports[kind][1](rec, result).to_dict()
            for kind, rec in recorders.items()}
