"""``python -m repro.obs``: trace, attribute, locate, bisect, time, and
watch.

Seven subcommands::

    # run one workload under the tracer (the historical surface; the
    # subcommand word is optional -- a bare workload name still works)
    python -m repro.obs trace fft --config simos-mipsy-150-tuned \\
        --cpus 4 --trace out.json --breakdown

    # the paper's "where did the error come from" table: run a reference
    # and a candidate, diff their cycle-attribution breakdowns
    python -m repro.obs diff fft --ref hardware --cand solo

    # the spatial axis: run one workload under the topo recorder and
    # print the NUMA traffic matrix, top-K hot regions, and queue heat
    python -m repro.obs hotspot ocean --config hardware

    # the per-transaction axis: run one workload under the txn recorder
    # and print each kind's latency percentiles plus the slowest-K
    # transactions' segment anatomy (queue wait vs. service vs. wire)
    python -m repro.obs txn fft --config hardware

    # the first event where two configurations' timelines part: run the
    # reference to a gate at --at-ps, fork, replay both rest-of-runs
    # (exit 1 when they diverge, 0 when identical)
    python -m repro.obs bisect fft --ref hardware --cand mxs \
        --scale tiny --cpus 2 --at-ps 1600000000

    # the host-time axis: time one unobserved run (wall, events,
    # events/s); optionally judge it against its case's history in a
    # committed BENCH ledger and gate.  Where the time goes:
    # python3 benchmarks/e2e/run.py
    python -m repro.obs perf fft --config simos-mipsy-150 --scale tiny \\
        --baseline benchmarks/BENCH_engine_hotpath.jsonl

    # CI gate: diff the newest metrics-ledger records against history,
    # exit nonzero on accuracy/performance drift beyond threshold
    python -m repro.obs watch --ledger out/ledger.jsonl

Every configuration option accepts full configuration names
(``solo-mipsy-225-tuned``) or the study's shorthand (``solo``, ``mipsy``,
``mxs`` -- the 150 MHz tuned variants).  Every run-style subcommand
simulates fresh, in this process: what a recorder collects is a side
effect of the run, which no result cache could replay.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.common.config import get_scale
from repro.common.errors import ReproError
from repro.obs import hooks
from repro.obs import topo as obs_topo
from repro.obs import txn as obs_txn
from repro.obs.bisect import bisect_divergence
from repro.obs.diff import diff_runs
from repro.obs.export import flame_summary, write_chrome_trace
from repro.obs.hotspot import build_report
from repro.obs.metrics import (
    PERF_THRESHOLD,
    TIME_THRESHOLD,
    BenchRecord,
    append_records,
    detect_drift,
    diff_bench,
    make_case,
    run_record,
    scan_ledger,
)
from repro.obs.trace import TraceRecorder
from repro.sim.configs import CONFIG_ALIASES, get_config
from repro.sim.request import RunRequest
from repro.workloads import APP_NAMES, make_app

DEFAULT_CONFIG = "simos-mipsy-150-tuned"

#: Where the harness writes the ledger unless told otherwise.
DEFAULT_LEDGER = "out/ledger.jsonl"

def shorthand_help(text: str) -> str:
    return (f"{text} (full name, or shorthand: "
            f"{', '.join(sorted(CONFIG_ALIASES))})")


def add_run_args(sub: argparse.ArgumentParser, default_cpus: int,
                 config_default: Optional[str] = None,
                 ref_cand: bool = False) -> None:
    """The workload/config/scale argument block every run-style subcommand
    shares.  ``config_default`` adds a ``--config`` option; ``ref_cand``
    adds the diff-style ``--ref``/``--cand`` pair instead.  All three
    accept full configuration names or the study shorthand, resolved by
    :func:`~repro.sim.configs.get_config`.
    """
    sub.add_argument("workload", choices=APP_NAMES,
                     help="application to run")
    if config_default is not None:
        sub.add_argument("--config", default=config_default,
                         help=shorthand_help(
                             "simulator configuration "
                             f"(default: {config_default})"))
    if ref_cand:
        sub.add_argument("--ref", default="hardware",
                         help=shorthand_help(
                             "reference configuration (default: hardware)"))
        sub.add_argument("--cand", required=True,
                         help=shorthand_help("candidate configuration"))
    sub.add_argument("--cpus", type=int, default=default_cpus,
                     help="number of CPUs (power of two; "
                          f"default {default_cpus})")
    sub.add_argument("--scale", default="repro",
                     help="machine scale (paper, repro, tiny)")
    sub.add_argument("--untuned-inputs", action="store_true",
                     help="use the pre-fix application inputs")


def build_request(args: argparse.Namespace, config_name: str) -> RunRequest:
    """The run a parsed :func:`add_run_args` block describes, under the
    configuration *config_name* (full name or shorthand)."""
    scale = get_scale(args.scale)
    workload = make_app(args.workload, scale,
                        tuned_inputs=not args.untuned_inputs)
    return RunRequest(get_config(config_name), workload, args.cpus)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"\nwrote {path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description="trace workloads, attribute simulator error, watch "
                    "the metrics ledger",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser(
        "trace", help="run one workload under the tracer")
    add_run_args(trace, default_cpus=4, config_default=DEFAULT_CONFIG)
    trace.add_argument("--capacity", type=int, default=65536,
                       help="trace ring capacity in spans (default 65536)")
    trace.add_argument("--trace", metavar="PATH", default=None,
                       help="write Chrome trace-event JSON (Perfetto) here")
    trace.add_argument("--breakdown", action="store_true",
                       help="print the per-CPU cycle-attribution table")
    trace.add_argument("--flame", action="store_true",
                       help="print a flamegraph-style span summary")
    trace.add_argument("--obs-stats", action="store_true",
                       help="print the aggregate observability counters")
    trace.set_defaults(func=cmd_trace)

    diff = sub.add_parser(
        "diff", help="attribute the cycle gap between two configurations")
    add_run_args(diff, default_cpus=1, ref_cand=True)
    diff.add_argument("--json", metavar="PATH", default=None,
                      help="also write the AttributionDiff payload here")
    diff.set_defaults(func=cmd_diff)

    hotspot = sub.add_parser(
        "hotspot",
        help="locate traffic: NUMA matrix, hot regions, queue heat")
    add_run_args(hotspot, default_cpus=4, config_default="hardware")
    hotspot.add_argument("--region", choices=obs_topo.REGIONS,
                         default=obs_topo.LINE,
                         help="address-region granularity (default: line)")
    hotspot.add_argument("--top", type=int, default=10,
                         help="hot regions to print (default 10)")
    hotspot.add_argument("--json", metavar="PATH", default=None,
                         help="also write the HotspotReport payload here")
    hotspot.set_defaults(func=cmd_hotspot)

    txn = sub.add_parser(
        "txn",
        help="follow transactions end-to-end: per-kind latency "
             "percentiles, slowest-K segment anatomy")
    add_run_args(txn, default_cpus=4, config_default="hardware")
    txn.add_argument("--top", type=int, default=obs_txn.DEFAULT_TOP_K,
                     help="slowest transactions to print "
                          f"(default {obs_txn.DEFAULT_TOP_K})")
    txn.add_argument("--json", metavar="PATH", default=None,
                     help="also write the TxnReport payload here")
    txn.add_argument("--check", action="store_true",
                     help="CI smoke: exit 1 unless remote-dirty "
                          "transactions were observed and every residual "
                          "is zero")
    txn.set_defaults(func=cmd_txn)

    bisect = sub.add_parser(
        "bisect",
        help="find the first divergent event between two configurations")
    add_run_args(bisect, default_cpus=1, ref_cand=True)
    bisect.add_argument("--at-ps", type=int, required=True,
                        help="gate time in picoseconds: the reference "
                             "runs to it, then both sides replay the rest")
    bisect.add_argument("--json", metavar="PATH", default=None,
                        help="also write the DivergenceReport payload here")
    bisect.set_defaults(func=cmd_bisect)

    perf = sub.add_parser(
        "perf",
        help="time one run: wall, events/s, perf gate")
    add_run_args(perf, default_cpus=1, config_default=DEFAULT_CONFIG)
    perf.add_argument("--json", metavar="PATH", default=None,
                      help="append this run's BenchRecord to a BENCH "
                           "ledger here (after judging it)")
    perf.add_argument("--baseline", metavar="PATH", default=None,
                      help="BENCH ledger to judge against (every earlier "
                           "same-case record; exit 1 on regression beyond "
                           "thresholds)")
    perf.add_argument("--time-threshold", type=float,
                      default=PERF_THRESHOLD,
                      help="relative events/sec drop that counts as a "
                           f"regression (default {PERF_THRESHOLD:g})")
    perf.add_argument("--report-only", action="store_true",
                      help="print the gate verdict but always exit 0")
    perf.set_defaults(func=cmd_perf)

    watch = sub.add_parser(
        "watch", help="flag accuracy/perf drift in the metrics ledger")
    watch.add_argument("--ledger", metavar="PATH", default=DEFAULT_LEDGER,
                       help=f"ledger path (default: {DEFAULT_LEDGER})")
    watch.add_argument("--time-threshold", type=float, default=TIME_THRESHOLD,
                       help="relative parallel-time change that counts as "
                            f"drift (default {TIME_THRESHOLD:g})")
    watch.set_defaults(func=cmd_watch)
    return parser


def cmd_trace(args: argparse.Namespace) -> int:
    recorder = TraceRecorder(args.capacity)
    with hooks.observing(recorder):
        result = build_request(args, args.config).execute()

    print(result.describe())
    print(f"traced {recorder.recorded} spans "
          f"({recorder.dropped} dropped by the ring)")
    if args.breakdown and result.breakdown is not None:
        print()
        print("cycle attribution (% of each CPU's time):")
        print(result.breakdown.format_table())
    if args.flame:
        print()
        print(flame_summary(recorder))
    if args.obs_stats:
        print()
        for key, value in recorder.as_counter_set().items():
            print(f"  {key} = {value:g}")
    if args.trace:
        write_chrome_trace(recorder, args.trace)
        print(f"\nwrote {args.trace} (load it at https://ui.perfetto.dev)")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    runs = []
    for config_name in (args.ref, args.cand):
        # One fresh recorder per run: breakdowns must not blend.
        with hooks.observing(TraceRecorder()):
            runs.append(build_request(args, config_name).execute())
    diff = diff_runs(runs[0], runs[1])
    print(diff.format_waterfall())
    if args.json:
        _write_json(args.json, diff.to_dict())
    return 0


def cmd_hotspot(args: argparse.Namespace) -> int:
    recorder = obs_topo.TopoRecorder(region=args.region)
    with hooks.observing(recorder):
        result = build_request(args, args.config).execute()
    report = build_report(recorder, result, top_k=args.top)
    print(result.describe())
    print()
    print(report.format(top_k=args.top))
    if args.json:
        _write_json(args.json, report.to_dict())
    return 0


def cmd_txn(args: argparse.Namespace) -> int:
    recorder = obs_txn.TxnRecorder(top_k=max(1, args.top))
    with hooks.observing(recorder):
        result = build_request(args, args.config).execute()
    report = obs_txn.build_report(recorder, result, top_k=args.top)
    print(result.describe())
    print()
    print(report.format(top=args.top))
    if args.json:
        _write_json(args.json, report.to_dict())
    if args.check:
        remote_dirty = report.count_for(
            lambda key: "remote_dirty" in key or "dirty_remote" in key)
        problems = []
        if report.total_txns == 0:
            problems.append("no transactions recorded")
        if remote_dirty == 0:
            problems.append("no remote-dirty transactions observed")
        if report.residual_txns:
            problems.append(
                f"{report.residual_txns} transactions with nonzero "
                f"residual ({report.residual_ps} ps total)")
        if problems:
            print("\ntxn check FAILED: " + "; ".join(problems))
            return 1
        print(f"\ntxn check ok: {report.total_txns} transactions, "
              f"{remote_dirty} remote-dirty, residual 0")
    return 0


def cmd_bisect(args: argparse.Namespace) -> int:
    ref, cand = (build_request(args, name) for name in (args.ref, args.cand))
    report = bisect_divergence(ref.config, cand.config, ref.workload,
                               n_cpus=ref.n_cpus, at_ps=args.at_ps)
    print(report.format())
    if args.json:
        _write_json(args.json, report.to_dict())
    return 0 if report.identical else 1


def cmd_perf(args: argparse.Namespace) -> int:
    if args.baseline and not Path(args.baseline).exists():
        raise ReproError(f"no BENCH ledger at {args.baseline} to judge "
                         "against")
    request = build_request(args, args.config)
    # Not request.execute(): the event count lives on the machine's engine.
    machine = request.machine()
    start = time.perf_counter()
    result = machine.run(request.workload)
    wall_s = time.perf_counter() - start
    events = machine.env.events_processed
    case = make_case(args.workload, request.config.name, args.cpus,
                     request.workload.scale.name, "ref")
    record = run_record("obs_perf", case, wall_s, result=result,
                        events=events)

    print(result.describe())
    per_sec = f"{events / wall_s:,.0f} events/s" if wall_s > 0 else "n/a"
    print(f"host: {wall_s:.3f} s wall, {events:,} events ({per_sec})")

    status = 0
    if args.baseline:
        history, problems = scan_ledger(args.baseline, BenchRecord)
        report = diff_bench(history, [record],
                            time_threshold=args.time_threshold)
        report.skipped = len(problems)
        print()
        print(report.format())
        if not report.ok and not args.report_only:
            status = 1
    if args.json:
        append_records(args.json, [record])
        print(f"\nappended to {args.json}")
    print("\nwhere the host time goes, layer by layer: "
          "python3 benchmarks/e2e/run.py")
    return status


def cmd_watch(args: argparse.Namespace) -> int:
    records, problems = scan_ledger(args.ledger)
    if not records and not problems:
        print(f"watch: no ledger records at {args.ledger} "
              f"(run the harness with --ledger, or --dashboard)")
        return 0
    report = detect_drift(records, time_threshold=args.time_threshold)
    report.skipped = len(problems)
    print(report.format())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] in APP_NAMES:
        # Historical surface: `python -m repro.obs fft --breakdown`.
        argv = ["trace"] + argv
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro.obs: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
