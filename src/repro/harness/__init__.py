"""Experiment harness: one registered experiment per paper table/figure.

The command line is :mod:`repro.harness.cli` (``python -m repro.harness``);
importing the package does not load it.
"""

from repro.harness.experiments import experiment_ids, run_experiment
from repro.harness.farm import Farm, ResultCache, default_cache_dir
from repro.harness.findings import ExperimentResult, Finding
from repro.harness.runner import (
    DEFAULT_ORDER,
    run_all,
    summarize,
    write_experiments_md,
)

__all__ = [
    "experiment_ids",
    "run_experiment",
    "Farm",
    "ResultCache",
    "default_cache_dir",
    "ExperimentResult",
    "Finding",
    "DEFAULT_ORDER",
    "run_all",
    "summarize",
    "write_experiments_md",
]
