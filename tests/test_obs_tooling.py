"""The observability tooling gates, run as part of the suite.

* the hot-path guard and import-ban rules (L1/L2 in ``repro.lint``)
  must pass against the current tree and must actually detect
  violations -- both unguarded tracer calls and metrics-ledger imports
  in the models;
* the overhead benchmark must import and expose its budgets (the timed
  run itself lives in ``benchmarks/bench_obs_overhead.py``, marked slow);
* a run loads no tooling: ``import repro`` and the model's probe import
  stay clear of the recorders, reports, ledgers and CLIs, checked in a
  fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.engine import repo_root, run_lint
from repro.lint.rules import RULES_BY_ID

REPO = Path(__file__).resolve().parent.parent


def lint_tree(tmp_path, files, rules):
    """Run the registry subset over a throwaway src tree."""
    for rel, body in files.items():
        path = tmp_path / "src" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
    return run_lint(tmp_path, rules=rules)


class TestHotPathLint:
    def test_current_tree_is_clean(self):
        report = run_lint(repo_root(), rules=["L1", "L2"])
        assert report.ok, report.format()

    def test_detects_unguarded_call(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/engine/kernel.py":
                "def step(self):\n"
                "    self.tracer.span(0, 'engine', 'cb')\n",
        }, rules=["L1"])
        assert [v.line for v in report.violations] == [2]

    def test_accepts_guarded_call(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/engine/kernel.py":
                "def step(self):\n"
                "    tracer = self.tracer\n"
                "    if tracer is not None:\n"
                "        tracer.span(0, 'engine',\n"
                "                    'cb')\n",
        }, rules=["L1"])
        assert report.ok

    def test_engine_kernel_is_covered(self):
        assert "repro.engine.kernel" in RULES_BY_ID["L1"].HOT_PATH_MODULES

    def test_model_directories_are_covered(self):
        bans = {name: set(ban.packages)
                for ban in RULES_BY_ID["L2"].bans for name in ban.names}
        assert bans["repro.obs.metrics"] == {
            "repro.cpu", "repro.mem", "repro.engine"}

    def test_detects_metrics_import_in_models(self, tmp_path):
        for line in ("from repro.obs import metrics",
                     "from repro.obs.metrics import MetricsWriter",
                     "import repro.obs.metrics",
                     "from repro.obs import metrics as _m"):
            report = lint_tree(tmp_path, {"repro/mem/model.py": f"{line}\n"},
                               rules=["L2"])
            assert not report.ok, line

    def test_accepts_hooks_import_in_models(self, tmp_path):
        # Only the ledger is banned; the guarded tracer hook is the
        # sanctioned channel.
        report = lint_tree(tmp_path, {
            "repro/mem/model.py":
                "from repro.obs import hooks\n"
                "from repro.obs.hooks import ATTRIBUTED\n",
        }, rules=["L2"])
        assert report.ok

    def test_topo_ban_covers_spatial_model_directories(self):
        # The spatial recorder's hook sites live in memsys/ and network/
        # too, so the topo import ban is wider than the metrics one.
        bans = {name: set(ban.packages)
                for ban in RULES_BY_ID["L2"].bans for name in ban.names}
        assert bans["repro.obs.topo"] == {
            "repro.cpu", "repro.mem", "repro.engine", "repro.memsys",
            "repro.network"}
        assert bans["repro.obs.metrics"] <= bans["repro.obs.topo"]

    def test_detects_topo_import_in_models(self, tmp_path):
        for line in ("from repro.obs import topo",
                     "from repro.obs.topo import TopoRecorder",
                     "import repro.obs.topo",
                     "from repro.obs import topo as obs_topo"):
            report = lint_tree(tmp_path,
                               {"repro/memsys/model.py": f"{line}\n"},
                               rules=["L2"])
            assert not report.ok, line

    def test_accepts_topo_slot_use_in_models(self, tmp_path):
        # The sanctioned channel: read the probe slot behind a guard.
        report = lint_tree(tmp_path, {
            "repro/memsys/model.py":
                "from repro.obs import hooks as obs_hooks\n"
                "def count(home):\n"
                "    probe = obs_hooks.active\n"
                "    if probe is not None:\n"
                "        probe.mem_access(0, 0, 0, 'read', 0, 0, None)\n",
        }, rules=["L2"])
        assert report.ok


class TestOverheadBench:
    def test_budgets_exposed(self):
        sys.path.insert(0, str(REPO / "benchmarks"))
        try:
            import bench_obs_overhead as bench
        finally:
            sys.path.pop(0)
        assert bench.MAX_DISABLED_OVERHEAD <= 0.05
        assert bench.MAX_ENABLED_RATIO >= 1.0
        # The timed test is opt-in via the slow marker.
        assert any(m.name == "slow"
                   for m in bench.test_obs_overhead.pytestmark)


#: What no simulation runs: ``import repro`` must load none of these.
TOOLING = (
    *(f"repro.obs.{name}" for name in (
        "trace", "topo", "hotspot", "profile", "export", "diff", "metrics",
        "txn", "bisect", "cli")),
    "repro.harness.cli",
    "repro.validation.dashboard",
    "repro.lint",
    "concurrent.futures.process",
)


def run_fresh(*argv):
    """Run a fresh interpreter over the source tree."""
    done = subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def modules_loaded_by(statement):
    """Every module name in ``sys.modules`` after *statement*."""
    return set(json.loads(run_fresh(
        "-c", f"{statement}; import json, sys; "
              "print(json.dumps(sorted(sys.modules)))")))


class TestImportHygiene:
    def test_import_repro_loads_no_tooling(self):
        loaded = modules_loaded_by("import repro")
        assert "repro.sim.machine" in loaded
        assert sorted(loaded.intersection(TOOLING)) == []

    def test_the_probe_loads_no_other_obs_module(self):
        # ``repro``'s own ``__init__`` (the public API) is left out, so
        # what loads is the probe and the package it lives in: the model's
        # ``from repro.obs import hooks`` must not reach the recorders and
        # ledgers lint rule L2 bans from model packages.
        loaded = modules_loaded_by(
            "import sys, types; "
            "pkg = types.ModuleType('repro'); "
            f"pkg.__path__ = [{str(REPO / 'src' / 'repro')!r}]; "
            "sys.modules['repro'] = pkg; "
            "import repro.obs.hooks")
        assert sorted(m for m in loaded if m.startswith("repro.")) == [
            "repro.obs", "repro.obs.hooks"]

    @pytest.mark.parametrize("package", ["repro.harness", "repro.obs"])
    def test_command_lines_still_start(self, package):
        assert "usage:" in run_fresh("-m", package, "--help")
