#!/bin/sh
# Tier-1 gate: lint, txn smoke, the full test suite, perf smoke; then a
# report-only size table.
#
# CI should run this instead of a single bare pytest; locally it is the
# pre-merge check for any change touching the model hot loops.
#
# Usage: scripts/run_tier1_matrix.sh [extra pytest args...]

set -eu
cd "$(dirname "$0")/.."

# Invariant gate first: a tree that breaks a static contract fails
# (exit 1, one block per violation) before any simulation time is spent.
echo "=== lint gate: python -m repro.lint ==="
PYTHONPATH=src python -m repro.lint

# Txn smoke (hard gate): one traced tiny run must record transactions,
# observe remote-dirty misses, and account every picosecond (residual 0).
# Cheap, and it exercises the whole anatomy pipeline -- hooks, segment
# cuts, wait attribution, histogram fold -- before the suite runs.
echo "=== txn smoke: python -m repro.obs txn fft --check ==="
PYTHONPATH=src python -m repro.obs txn fft --config hardware \
    --scale tiny --cpus 4 --check > /dev/null

echo "=== tier-1 ==="
PYTHONPATH=src python -m pytest -x -q "$@"

# Perf smoke (report-only): one timed tiny run judged against its case's
# history in the committed BENCH ledger.  A regression prints its report
# but does not fail the gate -- wall clocks on shared CI boxes are too
# noisy for a hard gate; drop --report-only in a dedicated perf lane to
# enforce it.
echo "=== perf smoke: python -m repro.obs perf fft (report-only) ==="
PYTHONPATH=src python -m repro.obs perf fft --config simos-mipsy-150 \
    --scale tiny --baseline benchmarks/BENCH_engine_hotpath.jsonl \
    --report-only

echo "=== tier-1 gate passed ==="

# Size budget (report-only): the counts the ROADMAP north star and item
# 6 track -- the tooling that observes the model vs. the model it
# observes, the machine assembly (`sim`) that is neither (so code moved
# into it reads as a move, not a cut), the ambient slots, and the dict
# codecs written by hand (a payload kind that spells its fields out
# again shows up here), the machine-assembly files that reach into the
# tooling (the probe slot needs two), the configuration fields a run
# is spelled in (one decision, one field), the trace item kinds and
# core classes the model runs (each one some workload or configuration
# uses), the counter bumps the model pays a call for (it bumps its
# counter dicts in place), and the modules every run imports before its
# first event (tooling no run uses stays out of `import repro`) -- so a
# change can quote them.
lines() { find "$@" -name '*.py' -exec cat {} + | wc -l; }
echo "=== size budget (wc -l and a slot count, report-only) ==="
printf '%-54s %6d\n' \
    "model (cpu memsys isa engine mem vm proto network os)" \
    "$(lines src/repro/cpu src/repro/memsys src/repro/isa src/repro/engine \
             src/repro/mem src/repro/vm src/repro/proto src/repro/network \
             src/repro/os)" \
    "sim (machine assembly; neither model nor tooling)" \
    "$(lines src/repro/sim)" \
    "tooling (obs lint)" \
    "$(lines src/repro/obs src/repro/lint)" \
    "  obs" "$(lines src/repro/obs)" \
    "  lint" "$(lines src/repro/lint)" \
    "validation/dashboard.py" \
    "$(lines src/repro/validation/dashboard.py)" \
    "hand-written codecs (def to_dict|from_dict, obs)" \
    "$(grep -rc --include='*.py' 'def to_dict\|def from_dict' \
            src/repro/obs | awk -F: '{n += $NF} END {print n}')" \
    "hand-written codecs elsewhere in src (harness, sim)" \
    "$(grep -rc --include='*.py' --exclude-dir=obs \
            'def to_dict\|def from_dict' src/repro \
        | awk -F: '{n += $NF} END {print n}')" \
    "files under src/repro/sim importing repro.obs" \
    "$(grep -rl --include='*.py' '^ *\(from\|import\) repro\.obs' \
            src/repro/sim | wc -l)" \
    "counter bumps through a call in the model (stats.add()" \
    "$(grep -rc --include='*.py' 'stats\.add(' src/repro/cpu \
            src/repro/memsys src/repro/isa src/repro/engine src/repro/mem \
            src/repro/vm src/repro/proto src/repro/network src/repro/os \
        | awk -F: '{n += $NF} END {print n}')" \
    "ambient slots (len(repro.lint.rules.AMBIENT_SLOTS))" \
    "$(PYTHONPATH=src python -c \
        'from repro.lint.rules import AMBIENT_SLOTS; print(len(AMBIENT_SLOTS))')" \
    "config fields (run request + the recipe it carries)" \
    "$(PYTHONPATH=src python -c '
import dataclasses
from repro.cpu.base import CoreParams
from repro.memsys.params import DsmParams
from repro.network.fabric import NetworkParams
from repro.os.base import OsModel
from repro.sim.configs import SimulatorConfig
from repro.sim.request import RunRequest
print(sum(len(dataclasses.fields(cls)) for cls in (
    SimulatorConfig, CoreParams, DsmParams, NetworkParams, OsModel,
    RunRequest)))')"
printf '%-54s %6s\n' "trace item kinds / core classes" \
    "$(PYTHONPATH=src python -c '
import typing
from repro.cpu import _CORE_CLASSES
from repro.isa.trace import TraceItem
print(f"{len(typing.get_args(TraceItem))}/{len(_CORE_CLASSES)}")')"
printf '%-54s %6s\n' "modules \`import repro\` loads (\`repro.*\` / all)" \
    "$(PYTHONPATH=src python -c '
import sys
import repro
names = [name for name in sys.modules if name.split(".")[0] == "repro"]
print(f"{len(names)}/{len(sys.modules)}")')"
# The probe-only stages (MAGIC's span, the fabric's delivery report) are
# in a run's plans only when a probe is installed: distinct CALL stages
# the memory system built, without a probe / under one.
printf '%-54s %6s\n' "CALL stages in plan tables, tiny fft P=4 (unobs/obs)" \
    "$(PYTHONPATH=src python -c '
from repro.common.config import TINY_SCALE
from repro.engine.resources import CALL
from repro.obs.hooks import observing
from repro.obs.trace import TraceRecorder
from repro.sim import hardware_config
from repro.sim.machine import Machine
from repro.workloads import make_app
def calls(observe):
    machine = Machine(hardware_config(), 4, TINY_SCALE)
    workload = make_app("fft", TINY_SCALE)
    if observe:
        with observing(TraceRecorder()):
            machine.run(workload)
    else:
        machine.run(workload)
    return sum(stage[0] is CALL for stage in machine.memsys._stages)
print(f"{calls(False)}/{calls(True)}")')"
# Options a user can pass (positionals included, --help not), summed over
# each CLI's subcommands by argparse introspection.
printf '%-54s %6s\n' "CLI options (repro.obs/repro.harness)" \
    "$(PYTHONPATH=src python -c '
import argparse, importlib
def count(parser):
    return sum(sum(map(count, a.choices.values()))
               if isinstance(a, argparse._SubParsersAction)
               else not isinstance(a, argparse._HelpAction)
               for a in parser._actions)
print("/".join(str(count(importlib.import_module(f"repro.{cli}.cli")
                         .build_parser()))
               for cli in ("obs", "harness")))')"
