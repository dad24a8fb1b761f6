"""Simulator-vs-reference comparison runs (Figures 1-4).

``compare_simulators`` runs a set of simulator configurations and a set of
workloads against the gold-standard configuration at a fixed processor
count and reports relative execution times -- one call per comparison
figure.  Each workload's gold run is one request of the figure's batch,
shared by its seven simulator columns.

The whole matrix (references + simulator runs) is expressed as one
:class:`~repro.sim.request.RunRequest` batch and dispatched through
:mod:`repro.sim.farm_hooks`: serial and identical to the historical loop
when no farm is active, fanned out and cached when one is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.obs.doc import Para, Table, render_text
from repro.sim import farm_hooks
from repro.sim.configs import SimulatorConfig, hardware_config
from repro.sim.request import RunRequest
from repro.validation.metrics import relative_time
from repro.vm.allocators import Placement


@dataclass
class ComparisonRow:
    """One bar of a comparison figure.  *Why* the bar sits where it does
    is :func:`repro.obs.diff.diff_runs` of the two requests."""

    workload: str
    config: str
    n_cpus: int
    sim_ps: int
    reference_ps: int

    @property
    def relative(self) -> float:
        return relative_time(self.sim_ps, self.reference_ps)


@dataclass
class ComparisonTable:
    """All bars of one figure, with formatting helpers."""

    title: str
    rows: List[ComparisonRow] = field(default_factory=list)

    def relative_of(self, workload: str, config: str) -> float:
        for row in self.rows:
            if row.workload == workload and row.config == config:
                return row.relative
        raise KeyError((workload, config))

    def by_workload(self) -> Dict[str, List[ComparisonRow]]:
        out: Dict[str, List[ComparisonRow]] = {}
        for row in self.rows:
            out.setdefault(row.workload, []).append(row)
        return out

    def format(self) -> str:
        configs = list(dict.fromkeys(row.config for row in self.rows))
        rows = []
        for workload, by_workload in self.by_workload().items():
            relative = {r.config: f"{r.relative:.2f}" for r in by_workload}
            rows.append([workload, *(relative.get(c, "") for c in configs)])
        return render_text([Para(self.title), Table(
            "t" + "n" * len(configs), ["workload", *configs], rows)])


def compare_simulators(
    configs: Sequence[SimulatorConfig],
    workloads: Sequence,
    n_cpus: int = 1,
    *,
    title: str = "",
    placement: str = Placement.FIRST_TOUCH,
) -> ComparisonTable:
    """Run the matrix and return relative execution times."""
    reference = hardware_config()
    table = ComparisonTable(title or f"relative execution time, P={n_cpus}")
    # One batch for the whole figure: each workload's reference run, then
    # its simulator bars, dispatched together.
    outcomes = iter(farm_hooks.dispatch([
        RunRequest(config, workload, n_cpus, placement=placement)
        for workload in workloads for config in (reference, *configs)]))
    for workload in workloads:
        ref = next(outcomes)
        for config in configs:
            sim = next(outcomes)
            table.rows.append(ComparisonRow(
                workload=workload.name,
                config=config.name,
                n_cpus=n_cpus,
                sim_ps=sim.parallel_ps,
                reference_ps=ref.parallel_ps,
            ))
    return table
