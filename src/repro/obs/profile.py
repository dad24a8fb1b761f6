"""Cycle attribution: fold recorded spans into a per-CPU breakdown.

The paper explains simulator error by asking *where the cycles went* --
TLB refill, memory stall, synchronisation imbalance -- and this module
answers the same question for a run of the reproduction.  It reads the
recorder's per-``(cpu, category, name)`` aggregates (exact even after ring
wraparound) and produces, per CPU::

    busy X% | tlb Y% | mem Z% | sync W% | os V%

``busy`` is the residual: total CPU time minus every attributed stall.
Fractions therefore sum to exactly 1.0 by construction; if attributed
stalls oversubscribe the total (overlapped stalls in the out-of-order
models can), they are scaled down proportionally and ``busy`` clamps at 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import hooks
from repro.obs.doc import Table, render_text
from repro.obs.record import Record, records

#: Column order of the breakdown table; "busy" is the residual bucket.
CATEGORIES = ("busy",) + hooks.ATTRIBUTED

#: The span every core records at the end of its trace; its duration is
#: that CPU's total time and the denominator of every fraction.
TOTAL_SPAN = (hooks.CPU, "total")


@dataclass
class CpuBreakdown(Record):
    """Attribution of one CPU's run time, in picoseconds per category."""

    cpu: int
    total_ps: int
    parts_ps: Dict[str, float] = field(default_factory=dict)

    def fraction(self, category: str) -> float:
        if self.total_ps <= 0:
            return 1.0 if category == "busy" else 0.0
        return self.parts_ps.get(category, 0.0) / self.total_ps

    def fractions(self) -> Dict[str, float]:
        return {cat: self.fraction(cat) for cat in CATEGORIES}


@dataclass
class RunBreakdown(Record):
    """Per-CPU cycle attribution for one run."""

    per_cpu: List[CpuBreakdown]

    def __post_init__(self):
        self.per_cpu = records(CpuBreakdown, self.per_cpu)

    def cpu(self, n: int) -> Optional[CpuBreakdown]:
        for row in self.per_cpu:
            if row.cpu == n:
                return row
        return None

    def overall(self) -> CpuBreakdown:
        """All CPUs folded together, weighted by each CPU's cycles.

        Sums the per-category picoseconds *and* the per-CPU totals before
        dividing, so a CPU that ran twice as long contributes twice the
        weight to every overall fraction.  This is deliberately not the
        mean of the per-CPU fractions: with uneven per-CPU runtimes
        (imbalanced workloads, a serial section on CPU 0) the unweighted
        mean would let a briefly-running CPU's TLB-heavy profile swamp the
        machine-wide picture.  E.g. CPU 0 at 1000 ps with 50% tlb and
        CPU 1 at 3000 ps with none is 12.5% tlb overall (500/4000), not
        the 25% a fraction average would claim.
        """
        total = sum(row.total_ps for row in self.per_cpu)
        parts: Dict[str, float] = {cat: 0.0 for cat in CATEGORIES}
        for row in self.per_cpu:
            for cat, ps in row.parts_ps.items():
                parts[cat] = parts.get(cat, 0.0) + ps
        return CpuBreakdown(cpu=-1, total_ps=total, parts_ps=parts)

    def format_table(self) -> str:
        """The human-readable attribution table the CLI prints."""
        rows = list(self.per_cpu)
        if len(rows) > 1:
            rows.append(self.overall())
        return render_text([Table(
            "n" * (2 + len(CATEGORIES)),
            ["cpu", "total_ms", *(f"{cat}%" for cat in CATEGORIES)],
            [["ALL" if row.cpu < 0 else row.cpu, f"{row.total_ps / 1e9:.3f}",
              *(f"{100.0 * row.fraction(cat):.1f}" for cat in CATEGORIES)]
             for row in rows])])


def build_breakdown(recorder) -> RunBreakdown:
    """Fold *recorder*'s aggregates into a :class:`RunBreakdown`.

    Any category in :data:`repro.obs.hooks.ATTRIBUTED` whose span carries a
    CPU id counts against that CPU's total; the remainder is "busy".
    """
    agg = recorder.aggregates()
    totals: Dict[int, int] = {}
    stalls: Dict[int, Dict[str, float]] = {}
    for (cpu, category, name), (_count, dur_ps) in agg.items():
        if cpu is None:
            continue
        if (category, name) == TOTAL_SPAN:
            totals[cpu] = totals.get(cpu, 0) + dur_ps
        elif category in hooks.ATTRIBUTED and dur_ps > 0:
            per_cat = stalls.setdefault(cpu, {})
            per_cat[category] = per_cat.get(category, 0.0) + dur_ps

    per_cpu = []
    for cpu in sorted(totals):
        total = totals[cpu]
        parts = dict(stalls.get(cpu, {}))
        attributed = sum(parts.values())
        if attributed > total > 0:
            # Overlapped stalls (OOO cores) can oversubscribe wall time;
            # scale them into the budget so the table still sums to 100%.
            scale = total / attributed
            parts = {cat: ps * scale for cat, ps in parts.items()}
            attributed = total
        parts["busy"] = max(0.0, total - attributed)
        per_cpu.append(CpuBreakdown(cpu=cpu, total_ps=total, parts_ps=parts))
    return RunBreakdown(per_cpu=per_cpu)
