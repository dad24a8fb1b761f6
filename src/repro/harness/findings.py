"""Findings: structured paper-vs-measured records.

Every experiment reduces its raw data to a list of :class:`Finding` rows
-- what the paper reports, what this reproduction measures, and whether
the *shape* (direction / ordering / rough magnitude) holds.  Each result
is described once, as :meth:`ExperimentResult.blocks`; the stdout report,
EXPERIMENTS.md and the dashboard's per-experiment sections all render
that list (DESIGN.md "Report documents").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.obs.doc import (
    Heading,
    Para,
    Table,
    render_markdown,
    render_text,
    status,
)
from repro.obs.record import Record, records


@dataclass
class Finding(Record):
    """One paper-vs-measured comparison.

    ``attribution`` is an optional *why* payload: a JSON-serialisable dict
    explaining where the measured error came from (an
    :meth:`~repro.obs.diff.AttributionDiff.to_dict` waterfall, a
    :class:`~repro.validation.tuning.TuningReport` payload recording what
    the calibration changed, ...).
    """

    name: str
    paper: str
    measured: str
    ok: bool
    note: str = ""
    attribution: Optional[dict] = None


@dataclass
class ExperimentResult(Record):
    """Everything one experiment produced."""

    exp_id: str
    title: str
    rendered: str
    findings: List[Finding] = field(default_factory=list)
    wall_seconds: float = 0.0
    scale_name: str = ""
    #: Farm accounting for this experiment (0/0 when no farm was active):
    #: simulations replayed from the result cache vs actually executed.
    farm_hits: int = 0
    farm_runs: int = 0
    #: Optional experiment-level *why* payload (same contract as
    #: :attr:`Finding.attribution`): e.g. the calibration deltas behind a
    #: tuning experiment.
    attribution: Optional[dict] = None

    def __post_init__(self) -> None:
        self.findings = records(Finding, self.findings)

    @property
    def all_ok(self) -> bool:
        return all(f.ok for f in self.findings)

    def blocks(self, level: int = 2) -> list:
        """The one description of this result: a level-*level* heading,
        the scale/runtime line, the rendered table or figure verbatim and
        the findings table."""
        farm = (f", {self.farm_hits} cached / {self.farm_runs} simulated"
                if self.farm_hits or self.farm_runs else "")
        out = [Heading(f"{self.exp_id}: {self.title}", level),
               Para(f"scale=`{self.scale_name}`, runtime "
                    f"{self.wall_seconds:.1f}s{farm}"),
               Para(self.rendered, pre=True)]
        if self.findings:
            out += [Para("paper vs measured:"), Table(
                "tttt", ["check", "paper", "measured", "shape holds"],
                [[f.name, f.paper,
                  f.measured + (f" ({f.note})" if f.note else ""),
                  "yes" if f.ok else "**no**"] for f in self.findings])]
        return out

    def format(self) -> str:
        return render_text(self.blocks())

    def to_markdown(self) -> str:
        return render_markdown(self.blocks())


def tally(results: Sequence[ExperimentResult]) -> Tuple[int, int]:
    """(checks that hold, checks) across *results*."""
    return (sum(f.ok for r in results for f in r.findings),
            sum(len(r.findings) for r in results))


def summary_table(results: Sequence[ExperimentResult]) -> Table:
    """One row per experiment: how many of its checks hold."""
    rows = []
    for r in results:
        n_ok, n = tally([r])
        rows.append([f"`{r.exp_id}` {r.title}", f"{n_ok}/{n}",
                     status(n_ok == n, "ok" if n_ok == n
                            else f"{n - n_ok} off")])
    return Table("tnt", ["experiment", "checks", "status"], rows)
