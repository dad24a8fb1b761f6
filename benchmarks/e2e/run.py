#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: four workloads, measured outside-in.

    python benchmarks/e2e/run.py                       # everything, ~2.5 min
    python benchmarks/e2e/run.py --workload splash_p1 --seed 2 --passes 3
    python benchmarks/e2e/run.py --compare A.json B.json
    python benchmarks/e2e/run.py --repeat-check --json out.json

and, as ``BENCHMARK.json`` runs it,

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

which measures one workload for about S seconds and prints one JSON object
as its last line.  Each workload runs in a child process of its own (see
``workloads.py``), one at a time.  README.md explains every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
import metrics as catalogue  # noqa: E402

SCHEMA = 1
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import repro; "
                 "print(time.perf_counter() - t)")
#: Fresh interpreters that only time ``import repro``; with the worker's
#: own import that makes four samples behind ``setup_s``.
IMPORT_PROBES = 3


def child_env() -> Dict[str, str]:
    """The user default: this checkout's sources, no fast-path override."""
    env = dict(os.environ)
    env.pop("REPRO_FASTPATH", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    return env


def environment(opts) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None      # the pipeline's checkout is not a repository
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    load = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    if load > 0.5 * nproc:
        print(f"warning: 1-minute load average {load:.2f} exceeds half of "
              f"{nproc} cores; timings will be noisy", file=sys.stderr)
    return {"git_commit": commit, "nproc": nproc,
            "python": platform.python_version(), "numpy": numpy_version,
            "seed": opts.seed, "passes": opts.passes, "seconds": opts.seconds,
            "quick": opts.quick, "loadavg_1m_at_start": load}


# ---------------------------------------------------------------------------
# Running workloads
# ---------------------------------------------------------------------------

def import_probe_s(env) -> List[float]:
    """Raw seconds ``import repro`` takes in fresh interpreters."""
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"cannot import repro from {SRC}:\n{done.stderr}")
        samples.append(float(done.stdout.strip()))
    return samples


def run_workload(name: str, opts, e2e: bool, layers: bool,
                 work: Path) -> dict:
    """One workload in a child process; its result dict."""
    env = child_env()
    out_path = work / f"{name}.json"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
           "--seed", str(opts.seed), "--workdir", str(work),
           "--out", str(out_path)]
    if opts.passes is not None:
        cmd += ["--passes", str(opts.passes)]
    if opts.seconds is not None:
        cmd += ["--seconds", str(opts.seconds)]
    if opts.quick:
        cmd.append("--quick")
    if not e2e:
        cmd.append("--no-e2e")
    if not layers:
        cmd.append("--no-layers")
    probes = import_probe_s(env) if e2e and not opts.quick else []
    done = subprocess.run(cmd, env=env)
    if done.returncode != 0:
        raise SystemExit(f"worker for {name} exited {done.returncode}")
    result = json.loads(out_path.read_text())
    if "setup_s" in result.get("end_to_end", {}):
        # Median import (the probes and the worker's own) on top of the
        # worker's median per-pass set-up.  An import is too short to be
        # bracketed by host-speed samples of its own (they are as noisy
        # as it is); the run's median factor scales it instead.
        samples = result["samples"]
        samples["import_raw_s"] = probes + [result["import_raw_s"]]
        import_s = (statistics.median(samples["import_raw_s"])
                    * statistics.median(samples["host_speed"]))
        result["end_to_end"]["setup_s"]["value"] += import_s
        samples["setup_s"] = [import_s + s for s in samples["setup_pass_s"]]
    return result


def run_set(opts, names: List[str], e2e: bool = True,
            layers: bool = True) -> dict:
    env = environment(opts)
    workloads = {}
    # Inside the checkout (the pipeline allows writes nowhere else) and
    # private to this invocation.
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as work:
        for name in names:
            print(f"== {name}: {catalogue.WORKLOADS[name]}", flush=True)
            workloads[name] = run_workload(name, opts, e2e, layers,
                                           Path(work))
            print_workload(name, workloads[name])
    return {"schema": SCHEMA, "env": env, "workloads": workloads}


def write_results(results: dict, path: Path) -> None:
    """Results to *path*; raw spans split off into ``<stem>.trace.json``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    traces = {}
    for name, workload in results["workloads"].items():
        reports = workload.get("trace")
        if reports:
            traces[name] = {label: dict(report)
                            for label, report in reports.items()}
            for report in reports.values():
                report.pop("raw_spans", None)
    path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    if traces:
        trace_path = path.with_name(path.stem + ".trace.json")
        trace_path.write_text(json.dumps(traces) + "\n")
        print(f"wrote {path} and {trace_path}")
    else:
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{int(value)}"


def print_workload(name: str, result: dict) -> None:
    for section in ("end_to_end", "per_layer"):
        for metric, cell in result.get(section, {}).items():
            print(f"  {name:15s} {metric:32s} {_fmt(cell['value']):>14s} "
                  f"{cell['unit']:9s} n={cell['n']}")
    trace = result.get("trace", {}).get("default")
    if trace:
        # Shares of the program's own time: the host-speed samples taken
        # inside the traced pass are the benchmark's, not a layer's.
        layers = dict(trace["layers"])
        sampling = layers.pop("calibration", {"self_s": 0.0})["self_s"]
        wall = trace["wall_s"] - sampling
        shares = ", ".join(
            f"{layer} {agg['self_s'] / wall:.1%}"
            for layer, agg in sorted(layers.items(),
                                     key=lambda kv: -kv[1]["self_s"]))
        print(f"  {name:15s} traced-pass shares: {shares}")
        if trace["missing_boundaries"]:
            print(f"  {name:15s} missing boundaries: "
                  f"{', '.join(trace['missing_boundaries'])}")
    samples = result.get("samples", {})
    if samples.get("host_speed"):
        print(f"  {name:15s} host speed x{statistics.median(samples['host_speed']):.2f} "
              f"of reference (timings are scaled by it; raw wall_s median "
              f"{statistics.median(samples['wall_raw_s']):.4g} s)")
    print(f"  {name:15s} runs attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for failure in result["failures"]:
        print(f"  {name:15s} FAILED {failure}")


def contract_line(result: dict, trace: bool) -> str:
    """The one JSON object ``BENCHMARK.json``'s driver reads."""
    if trace:
        names = [m.name for m in catalogue.PER_LAYER]
        cells = result.get("per_layer", {})
    else:
        names = catalogue.CONTRACT_END_TO_END
        cells = result.get("end_to_end", {})
    # The contract wants a number for every metric on every workload; a
    # layer this workload (or this checkout) does not have did no work: 0.
    metrics = {name: {"value": cells[name]["value"] or 0,
                      "unit": cells[name]["unit"]} for name in names}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# ---------------------------------------------------------------------------
# Comparing two result files
# ---------------------------------------------------------------------------

def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(metric: catalogue.EndToEnd, a: float, b: float,
            samples_a: List[float], samples_b: List[float]):
    """``(word, worsening as a share of a, beyond the bound either way)``.

    *word* is ``worse``/``same``/``better``, or ``unresolved`` when either
    file's run-to-run spread exceeds the bound and the samples overlap.
    """
    worse_by = catalogue.worsening(metric, a, b)
    share = worse_by / abs(a) if a else float(worse_by != 0)
    allowed = catalogue.allowed_worsening(metric, a)
    if max(spread(samples_a), spread(samples_b)) > metric.bound:
        sign = 1 if metric.better == "lower" else -1
        if max(sign * v for v in samples_b) < min(sign * v for v in samples_a):
            word = "better"
        else:
            word = "unresolved"
    elif worse_by > allowed:
        word = "worse"
    else:
        word = "better" if -worse_by > allowed else "same"
    return word, share, abs(worse_by) > allowed


def compare(a: dict, b: dict, symmetric: bool = False) -> int:
    """Print B against A; non-zero when B is worse.  *symmetric* is the
    same-commit repeat check: any disagreement beyond a bound, and any
    exact count or digest that differs, fails."""
    bad = 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name}: missing from the second file")
            bad += 1
            continue
        for metric in catalogue.END_TO_END:
            ca = wa.get("end_to_end", {}).get(metric.name)
            cb = wb.get("end_to_end", {}).get(metric.name)
            if not ca or not cb or ca["value"] is None or cb["value"] is None:
                continue
            word, share, beyond = verdict(
                metric, ca["value"], cb["value"],
                wa.get("samples", {}).get(metric.name, []),
                wb.get("samples", {}).get(metric.name, []))
            bad += beyond if symmetric else word == "worse"
            print(f"{name:15s} {metric.name:24s} {_fmt(ca['value']):>12s} -> "
                  f"{_fmt(cb['value']):>12s} {metric.unit:9s} "
                  f"{share:+7.1%} worse (bound {metric.bound:.0%})  {word}")
        differing = diff_exact(name, wa, wb)
        if symmetric:
            bad += differing
    return 1 if bad else 0


def diff_exact(name: str, wa: dict, wb: dict) -> int:
    """Print every exact count and digest that differs; how many did."""
    differing = 0
    for spec in catalogue.PER_LAYER:
        if not spec.exact:
            continue
        va = wa.get("per_layer", {}).get(spec.name, {}).get("value")
        vb = wb.get("per_layer", {}).get(spec.name, {}).get("value")
        if va != vb:
            differing += 1
            print(f"{name:15s} count  {spec.name:32s} {_fmt(va)} != {_fmt(vb)}")
    da, db = wa.get("digests", {}), wb.get("digests", {})
    for label in sorted(set(da) | set(db)):
        if da.get(label) != db.get(label):
            differing += 1
            print(f"{name:15s} digest {label:32s} "
                  f"{str(da.get(label))[:12]} != {str(db.get(label))[:12]}")
    if not differing:
        print(f"{name:15s} exact counts and {len(da)} digests identical")
    return differing


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(catalogue.WORKLOADS),
                        help="one workload (default: all four, in order)")
    parser.add_argument("--seed", type=int, default=1,
                        help="radix keys and resident-loop addresses")
    parser.add_argument("--passes", type=int, default=None,
                        help="untraced passes per workload (default 3/3/5/3)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure one workload for about this long "
                             f"(never fewer than {catalogue.MIN_PASSES} "
                             "passes) and print the contract JSON line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: per-layer only; "
                             "default: both")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: tiny scale, 1 pass, < 20 s")
    parser.add_argument("--json", metavar="OUT", type=Path,
                        default=OUT_DIR / "results.json",
                        help="results file (raw spans go to OUT's "
                             ".trace.json sibling)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        type=Path, help="print B against A and exit")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the whole set twice; fail if the two "
                             "disagree beyond the bounds")
    opts = parser.parse_args(argv)
    if opts.seconds is not None and opts.workload is None:
        parser.error("--seconds measures one workload: give --workload")
    if opts.passes is not None and opts.passes < 1:
        parser.error("--passes must be at least 1")
    return opts


def main(argv=None) -> int:
    opts = parse_args(argv)
    if opts.compare:
        a, b = (json.loads(path.read_text()) for path in opts.compare)
        return compare(a, b)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    names = [opts.workload] if opts.workload else list(catalogue.WORKLOADS)
    e2e, layers = opts.trace != 1, opts.trace != 0
    results = run_set(opts, names, e2e, layers)
    write_results(results, opts.json)
    status = int(any(w["failed"] for w in results["workloads"].values()))
    if opts.repeat_check:
        again = run_set(opts, names, e2e, layers)
        write_results(again, opts.json.with_name(
            opts.json.stem + ".repeat.json"))
        status |= int(any(w["failed"] for w in again["workloads"].values()))
        status |= compare(results, again, symmetric=True)
        print("repeat check:", "FAILED" if status else "ok")
    if opts.seconds is not None:
        print(contract_line(results["workloads"][opts.workload],
                            trace=opts.trace == 1))
    return status


if __name__ == "__main__":
    sys.exit(main())
