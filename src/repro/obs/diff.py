"""Differential error attribution: *where* did the cycle error come from.

The paper never stops at "the simulator is 30% fast"; it decomposes the
FLASH-vs-simulator gap into named causes -- no TLB model, missing L2
interface occupancy, synchronisation imbalance -- and re-checks the
decomposition after every tuning step.  This module automates that
decomposition for the reproduction: given a *reference* request (normally
the ``hardware`` configuration) and a *candidate* request (Solo,
SimOS-Mipsy, SimOS-MXS) of the same workload, :func:`diff_runs` runs each
under its own fresh tracer, folds each tracer into a
:class:`~repro.obs.profile.RunBreakdown`, and produces an
:class:`AttributionDiff` -- a signed per-category waterfall explaining the
total machine-cycle gap.

The accounting is conservative by construction:

* the **gap** is ground truth, computed from the runs' own engine end
  times (``n_cpus * total_ps``), never from the trace;
* the **explained** part is the per-category delta between the two
  breakdowns (whose per-CPU categories sum to each CPU's traced lifetime
  exactly);
* whatever the traces do not cover -- start skew, post-barrier idle at
  the end of a CPU's life -- lands in an explicit **residual** row.  The
  residual is reported, never silently folded into a category.

``python -m repro.obs diff <workload> --ref hardware --cand solo`` prints
the resulting table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.errors import AttributionError
from repro.obs.doc import Details, Para, Table, bar, render_text
from repro.obs.hooks import observing
from repro.obs.profile import CATEGORIES, RunBreakdown, build_breakdown
from repro.obs.record import Record, records
from repro.obs.trace import TraceRecorder

#: Label of the explicit not-attributed row in tables and payloads.
RESIDUAL = "residual"


@dataclass
class CategoryDelta(Record):
    """One category's contribution to the reference-vs-candidate gap."""

    category: str
    ref_ps: float
    cand_ps: float

    @property
    def delta_ps(self) -> float:
        """Signed contribution: positive = the candidate spends more here."""
        return self.cand_ps - self.ref_ps


def diff_breakdowns(ref: RunBreakdown, cand: RunBreakdown,
                    ) -> Tuple[List[CategoryDelta],
                               Dict[int, List[CategoryDelta]]]:
    """Per-category deltas between two breakdowns: (overall, per-CPU).

    CPUs are paired by id; a CPU present in only one run contributes its
    whole time on one side of the delta (the other side reads zero).
    """
    ref_overall = ref.overall()
    cand_overall = cand.overall()
    overall = [
        CategoryDelta(cat,
                      ref_overall.parts_ps.get(cat, 0.0),
                      cand_overall.parts_ps.get(cat, 0.0))
        for cat in CATEGORIES
    ]
    cpus = sorted({row.cpu for row in ref.per_cpu}
                  | {row.cpu for row in cand.per_cpu})
    per_cpu: Dict[int, List[CategoryDelta]] = {}
    for cpu in cpus:
        r = ref.cpu(cpu)
        c = cand.cpu(cpu)
        r_parts = r.parts_ps if r is not None else {}
        c_parts = c.parts_ps if c is not None else {}
        per_cpu[cpu] = [
            CategoryDelta(cat, r_parts.get(cat, 0.0), c_parts.get(cat, 0.0))
            for cat in CATEGORIES
        ]
    return overall, per_cpu


@dataclass
class AttributionDiff(Record):
    """The paper's "where did the error come from" table, as data.

    All times are machine time (summed across CPUs) in picoseconds.  The
    identity that holds by construction::

        gap_ps == explained_ps + residual_ps

    where ``gap_ps`` comes from the runs' engine clocks and
    ``explained_ps`` from the traced breakdowns.
    """

    workload: str
    ref_config: str
    cand_config: str
    n_cpus: int
    scale_name: str
    ref_machine_ps: int            #: n_cpus * total_ps of the reference run
    cand_machine_ps: int
    ref_parallel_ps: int           #: the paper's headline timing metric
    cand_parallel_ps: int
    overall: List[CategoryDelta] = field(default_factory=list)
    per_cpu: Dict[int, List[CategoryDelta]] = field(default_factory=dict)

    def __post_init__(self):
        self.overall = records(CategoryDelta, self.overall)
        self.per_cpu = {int(cpu): records(CategoryDelta, deltas)
                        for cpu, deltas in self.per_cpu.items()}

    # -- derived accounting ------------------------------------------------

    @property
    def gap_ps(self) -> float:
        """Total machine-cycle error of the candidate (ground truth)."""
        return float(self.cand_machine_ps - self.ref_machine_ps)

    @property
    def explained_ps(self) -> float:
        """The part of the gap the named categories account for."""
        return sum(d.delta_ps for d in self.overall)

    @property
    def residual_ps(self) -> float:
        """Gap the traces leave unattributed (start skew, end idle)."""
        return self.gap_ps - self.explained_ps

    @property
    def explained_fraction(self) -> float:
        """|explained| share of the |gap|; 1.0 when the gap is zero."""
        if self.gap_ps == 0:
            return 1.0
        return 1.0 - abs(self.residual_ps) / abs(self.gap_ps)

    @property
    def percent_error(self) -> float:
        """Signed % error of the candidate's parallel-section prediction."""
        from repro.validation.metrics import percent_error

        return percent_error(self.cand_parallel_ps, self.ref_parallel_ps)

    def share(self, delta_ps: float) -> float:
        """*delta_ps* as a signed fraction of the total gap (0 if no gap)."""
        if self.gap_ps == 0:
            return 0.0
        return delta_ps / abs(self.gap_ps)

    def fractions(self) -> Dict[str, float]:
        """Signed per-category share of the gap, residual included.

        This is the compact payload the metrics ledger and
        :class:`~repro.harness.findings.Finding` attributions carry.
        """
        out = {d.category: self.share(d.delta_ps) for d in self.overall}
        out[RESIDUAL] = self.share(self.residual_ps)
        return out

    # -- rendering ---------------------------------------------------------

    def blocks(self, width: int = 24) -> list:
        """The attribution table as :mod:`repro.obs.doc` blocks: one
        signed bar (*width* glyphs at the largest delta) per category,
        the explicit residual row, then per-CPU deltas."""
        peak = max([abs(d.delta_ps) for d in self.overall]
                   + [abs(self.residual_ps), 1.0])

        def row(category, ref, cand, delta_ps):
            return [category, ref, cand, f"{delta_ps / 1e9:+.3f}",
                    f"{100 * self.share(delta_ps):+.1f}%",
                    bar(delta_ps, peak, width)]

        out = [
            Para(f"{self.workload}: `{self.cand_config}` vs "
                 f"`{self.ref_config}` (P={self.n_cpus}, "
                 f"scale={self.scale_name})"),
            Para(f"parallel time: reference {self.ref_parallel_ps / 1e9:.3f}"
                 f" ms, candidate {self.cand_parallel_ps / 1e9:.3f} ms "
                 f"({self.percent_error:+.1f}% error)"),
            Para(f"machine-time gap {self.gap_ps / 1e9:+.3f} ms, "
                 f"{100 * self.explained_fraction:.1f}% attributed "
                 f"(residual {self.residual_ps / 1e9:+.3f} ms)"),
            Table("tnnnnt", ["category", "ref_ms", "cand_ms", "delta_ms",
                             "share", "waterfall"],
                  [row(d.category, f"{d.ref_ps / 1e9:.3f}",
                       f"{d.cand_ps / 1e9:.3f}", d.delta_ps)
                   for d in self.overall]
                  + [row(RESIDUAL, "", "", self.residual_ps)]),
        ]
        if len(self.per_cpu) > 1:
            out.append(Details("per-CPU delta_ms by category:", [Table(
                "n" * (1 + len(CATEGORIES)), ["cpu", *CATEGORIES],
                [[cpu, *(f"{d.delta_ps / 1e9:+.3f}" for d in deltas)]
                 for cpu, deltas in sorted(self.per_cpu.items())])]))
        return out

    def format_waterfall(self, width: int = 24) -> str:
        return render_text(self.blocks(width))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON snapshot: CPU ids become sorted string keys."""
        data = super().to_dict()
        data["per_cpu"] = {str(cpu): deltas for cpu, deltas
                           in sorted(data["per_cpu"].items())}
        return data


def diff_runs(ref, cand) -> AttributionDiff:
    """Run two :class:`~repro.sim.request.RunRequest`\\ s, each under its
    own fresh tracer, and attribute the cycle gap between them.

    Both must simulate the same workload at the same CPU count; anything
    else is an :class:`~repro.common.errors.AttributionError`, raised
    before either runs.  The runs execute here, never through the farm:
    a cached result cannot feed a tracer.
    """
    if ref.workload.name != cand.workload.name:
        raise AttributionError(
            f"cannot attribute across workloads: reference runs "
            f"{ref.workload.name!r}, candidate {cand.workload.name!r}"
        )
    if ref.n_cpus != cand.n_cpus:
        raise AttributionError(
            f"cannot attribute across CPU counts: reference P={ref.n_cpus}, "
            f"candidate P={cand.n_cpus}"
        )
    (ref_run, ref_parts), (cand_run, cand_parts) = map(_traced, (ref, cand))
    overall, per_cpu = diff_breakdowns(ref_parts, cand_parts)
    return AttributionDiff(
        workload=ref_run.workload_name,
        ref_config=ref_run.config_name,
        cand_config=cand_run.config_name,
        n_cpus=ref_run.n_cpus,
        scale_name=ref_run.scale_name,
        ref_machine_ps=ref_run.n_cpus * ref_run.total_ps,
        cand_machine_ps=cand_run.n_cpus * cand_run.total_ps,
        ref_parallel_ps=ref_run.parallel_ps,
        cand_parallel_ps=cand_run.parallel_ps,
        overall=overall,
        per_cpu=per_cpu,
    )


def _traced(request):
    """*request*'s result and the breakdown of a tracer that saw only it."""
    tracer = TraceRecorder()
    with observing(tracer):
        result = request.execute()
    return result, build_breakdown(tracer)
