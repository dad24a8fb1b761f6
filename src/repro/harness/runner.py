"""Run experiments and regenerate EXPERIMENTS.md."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common.config import MachineScale, REPRO_SCALE
from repro.harness.experiments import run_experiment
from repro.harness.findings import ExperimentResult, summary_table, tally
from repro.obs.doc import Heading, Para, render_markdown, render_text

#: The order EXPERIMENTS.md presents the study in.
DEFAULT_ORDER = (
    "table1", "table2", "tlb_microbench", "table3", "tuning_loop",
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    "tlb_blocking", "instr_latency", "bugs",
)

_PREAMBLE = """Generated by ``python -m repro.harness all --markdown`` (see
``repro.harness.runner``).  Every table and figure of *FLASH vs.
(Simulated) FLASH* (ASPLOS 2000) is regenerated at the documented
reproduction scale; each section records what the paper reports, what this
reproduction measures, and whether the *shape* of the result (direction,
ordering, rough magnitude) holds.  Absolute agreement with the dead
hardware is not the goal (DESIGN.md, reproduction gate)."""


def run_all(scale: MachineScale = REPRO_SCALE) -> List[ExperimentResult]:
    """Run every experiment in :data:`DEFAULT_ORDER`, printing each as it
    finishes.  An activated farm (see :mod:`repro.sim.farm_hooks`) fans
    the simulation batches out and replays cached results."""
    results = []
    for exp_id in DEFAULT_ORDER:
        result = run_experiment(exp_id, scale)
        results.append(result)
        print(result.format())
        print()
    return results


def summarize(results: Sequence[ExperimentResult]) -> str:
    ok, total = tally(results)
    return render_text([Para("summary of paper-vs-measured checks:"),
                        summary_table(results), Para(f"total: {ok}/{total}")])


def write_experiments_md(results: Sequence[ExperimentResult],
                         path: str = "EXPERIMENTS.md") -> None:
    ok, total = tally(results)
    blocks = [Heading("EXPERIMENTS -- paper vs. measured", 1),
              Para(_PREAMBLE), Para(f"**{ok}/{total} shape checks hold.**")]
    for result in results:
        blocks += result.blocks()
    with open(path, "w") as fh:
        fh.write(render_markdown(blocks) + "\n")


def write_dashboard(results: Sequence[ExperimentResult], out_dir: str,
                    ledger_path: Optional[str] = None,
                    bench_dir: Optional[str] = None):
    """Render the validation dashboard into *out_dir*; returns the paths.

    When *ledger_path* points at an existing metrics ledger its records
    feed the trend sparklines; otherwise that section is omitted.  The
    committed BENCH perf ledgers (``BENCH_*.jsonl``) under *bench_dir*
    (default: the repository's ``benchmarks/`` directory) feed the "How
    fast is the simulator" section; a checkout without them omits it.
    """
    from pathlib import Path

    from repro.obs.metrics import BenchRecord, read_ledger
    from repro.validation.dashboard import render_dashboard

    records = read_ledger(ledger_path) if ledger_path else []
    if bench_dir is None:
        bench_dir = Path(__file__).resolve().parents[3] / "benchmarks"
    benches = []
    for path in sorted(Path(bench_dir).glob("BENCH_*.jsonl")):
        benches.extend(read_ledger(path, BenchRecord))
    return render_dashboard(results, out_dir, records,
                            bench_records=benches)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; the implementation lives in
    :mod:`repro.harness.cli` (imported lazily: cli imports this module)."""
    from repro.harness.cli import main as cli_main

    return cli_main(argv)
