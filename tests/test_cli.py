"""CLI entry-point tests (cheap experiments only)."""

import pytest

from repro.harness.cli import main


def test_single_experiment(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "paper vs measured" in out


def test_scale_flag(capsys):
    assert main(["table2", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "scale=tiny" in out


def test_markdown_flag(tmp_path, capsys):
    target = tmp_path / "one.md"
    assert main(["table1", "--markdown", str(target)]) == 0
    assert target.exists()
    assert "## table1" in target.read_text()


def test_unknown_experiment_exits_2_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fig42"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'fig42'" in err
    assert "usage:" in err


def test_unknown_scale_exits_2_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--scale", "galactic"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown scale 'galactic'" in err
    assert "usage:" in err


@pytest.mark.parametrize("entry,argv", [
    ("repro.harness.cli", ["frobnicate"]),
    ("repro.obs.cli", ["frobnicate"]),
    # The retired checkpoint store's option, on the bisect that outlived
    # it.
    ("repro.obs.cli", ["bisect", "fft", "--cand", "mxs", "--at-ps", "5",
                       "--checkpoint-dir", "ckpt"]),
    ("repro.lint.cli", ["--rule", "Z9"]),
    # A retired flag (lint L5's runtime knob) is unknown input like any
    # other.
    ("repro.lint.cli", ["--no-runtime"]),
    # So are the report codec and the tree/allowlist selectors.
    ("repro.lint.cli", ["--json"]),
    ("repro.lint.cli", ["--root", "."]),
    ("repro.lint.cli", ["--allowlist", "lint_allow.toml"]),
    # And the obs options that could not change a byte of output.
    ("repro.obs.cli", ["diff", "fft", "--cand", "solo", "--capacity", "8"]),
    ("repro.obs.cli", ["hotspot", "fft", "--samples", "8"]),
    ("repro.obs.cli", ["hotspot", "fft", "--sample-interval-ps", "1000"]),
])
def test_every_cli_exits_2_with_usage_on_unknown_input(entry, argv,
                                                       capsys):
    # The shared contract: a bad subcommand/selector is a usage error
    # (exit 2, message on stderr), never a traceback.
    import importlib
    cli_main = importlib.import_module(entry).main
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err or "invalid choice" in err


@pytest.mark.parametrize("argv,message", [
    (["--config", "nope"], "unknown simulator configuration 'nope'"),
    (["--scale", "huge"], "unknown scale 'huge'"),
    (["--cpus", "3"], "n_cpus must be a power of two"),
])
def test_obs_bad_run_exits_2_with_message(argv, message, capsys):
    # A run the model refuses is one line on stderr, not a traceback.
    from repro.obs.cli import main as obs_main
    assert obs_main(["trace", "fft", "--scale", "tiny", *argv]) == 2
    assert f"repro.obs: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


def test_cache_dir_with_missing_parent_rejected(tmp_path, capsys):
    bad = tmp_path / "no" / "such" / "cache"
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--cache-dir", str(bad)])
    assert exc.value.code == 2
    assert "--cache-dir parent directory does not exist" in \
        capsys.readouterr().err


def test_cache_dir_itself_may_be_new(tmp_path, capsys):
    # Only the *parent* must exist: the cache creates its own directory.
    fresh = tmp_path / "cache"
    assert main(["table1", "--scale", "tiny",
                 "--cache-dir", str(fresh)]) == 0


def test_dashboard_flag_emits_both_files_and_ledger(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fig2", "--scale", "tiny", "--no-cache",
                 "--dashboard", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert (out / "dashboard.html").exists()
    assert (out / "dashboard.md").exists()
    assert "dashboard.html" in stdout
    # Every farm-dispatched run landed in the default ledger location.
    from repro.obs.metrics import read_ledger
    records = read_ledger(out / "ledger.jsonl")
    assert records and all(r.scale == "tiny" for r in records)
    md = (out / "dashboard.md").read_text()
    assert "shape checks hold" in md and "## Ledger trends" in md


def test_ledger_flag_without_dashboard(tmp_path, capsys):
    ledger = tmp_path / "runs.jsonl"
    assert main(["tlb_microbench", "--scale", "tiny", "--no-cache",
                 "--ledger", str(ledger)]) == 0
    from repro.obs.metrics import read_ledger
    assert read_ledger(ledger)
