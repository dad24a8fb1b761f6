"""Speedup / trend studies (Section 3.2, Figures 5-7).

``speedup_study`` runs one workload across processor counts on several
simulator configurations and reports each platform's *self-relative*
speedup (T(1)/T(P) measured on that same platform) -- exactly how the
paper evaluates trend prediction: a simulator may be wrong in absolute
time yet still predict the speedup curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.obs.doc import Para, Table, render_text
from repro.sim import farm_hooks
from repro.sim.configs import SimulatorConfig
from repro.sim.request import RunRequest
from repro.validation.metrics import speedup, trend_agreement
from repro.vm.allocators import Placement

DEFAULT_CPU_COUNTS = (1, 2, 4, 8, 16)


@dataclass
class SpeedupCurve:
    """One platform's speedup curve for one workload."""

    config: str
    workload: str
    times_ps: Dict[int, int] = field(default_factory=dict)

    @property
    def speedups(self) -> Dict[int, float]:
        return speedup(self.times_ps)

    def at(self, n_cpus: int) -> float:
        return self.speedups[n_cpus]


@dataclass
class SpeedupStudy:
    """All curves of one trend figure."""

    workload: str
    curves: List[SpeedupCurve] = field(default_factory=list)

    def curve_of(self, config: str) -> SpeedupCurve:
        for curve in self.curves:
            if curve.config == config:
                return curve
        raise KeyError(config)

    def trend_errors(self, reference: str) -> Dict[str, float]:
        """Trend-agreement error of every curve vs *reference*."""
        ref = self.curve_of(reference).speedups
        return {
            curve.config: trend_agreement(curve.speedups, ref)
            for curve in self.curves if curve.config != reference
        }

    def format(self) -> str:
        counts = sorted(self.curves[0].times_ps)
        return render_text([
            Para(f"speedup study: {self.workload}"),
            Table("t" + "n" * len(counts), ["config", *map(str, counts)],
                  [[curve.config, *(f"{curve.speedups[p]:.2f}"
                                    for p in counts)]
                   for curve in self.curves])])


def speedup_study(
    configs: Sequence[SimulatorConfig],
    workload,
    cpu_counts: Sequence[int] = DEFAULT_CPU_COUNTS,
    *,
    placement: str = Placement.FIRST_TOUCH,
) -> SpeedupStudy:
    """Run *workload* at each CPU count on each configuration.

    The full (configuration x CPU count) grid is one farm batch; with no
    farm active it executes serially in grid order, as it always did.
    """
    study = SpeedupStudy(workload=workload.name)
    study.curves.extend(SpeedupCurve(config=config.name,
                                     workload=workload.name)
                        for config in configs)
    grid = [(curve, config, n_cpus)
            for curve, config in zip(study.curves, configs)
            for n_cpus in cpu_counts]
    outcomes = farm_hooks.dispatch([
        RunRequest(config, workload, n_cpus, placement=placement)
        for _curve, config, n_cpus in grid
    ])
    for (curve, _config, n_cpus), result in zip(grid, outcomes):
        curve.times_ps[n_cpus] = result.parallel_ps
    return study
