"""``python -m repro.ckpt``: save, restore, inspect, and bisect.

Four subcommands::

    # run fft to t=2us under the Mipsy config and checkpoint there
    python -m repro.ckpt save fft --config mipsy --cpus 1 --scale tiny \\
        --at-ps 2000000 --mode quiesce

    # inspect a stored checkpoint (by key prefix or file path)
    python -m repro.ckpt info 3fa9c1

    # reconstruct the machine, verify it, and finish the run
    python -m repro.ckpt restore 3fa9c1 --run

    # where do two configurations first diverge after a shared state?
    python -m repro.ckpt bisect fft --config-a mipsy --config-b mxs \\
        --at-ps 2000000

Configuration options accept full names or the study shorthand, exactly
like ``python -m repro.obs`` (``solo``, ``mipsy``, ``mxs``).  The store
location follows ``--checkpoint-dir``, then ``$REPRO_CKPT_DIR``, then
``~/.cache/repro/ckpt``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.ckpt import bisect as ckpt_bisect
from repro.ckpt import checkpoint as ckpt
from repro.ckpt import store as ckpt_store
from repro.common.errors import CheckpointError, ReproError
from repro.common.store import check_dir_arg
from repro.obs.cli import add_run_args, build_request, shorthand_help


def _add_store_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--checkpoint-dir", metavar="PATH", default=None,
                     help="checkpoint store directory "
                          f"(default {ckpt_store.default_ckpt_dir()})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.ckpt",
        description="checkpoint, restore, and bisect simulated machines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    save = sub.add_parser("save", help="run to a stop point and checkpoint")
    add_run_args(save, default_cpus=1,
                 config_default="simos-mipsy-150-tuned")
    save.add_argument("--at-ps", type=int, default=None,
                      help="simulated stop time in picoseconds")
    save.add_argument("--events", type=int, default=None,
                      help="stop after this many engine events "
                           "(replay mode only)")
    save.add_argument("--mode", choices=ckpt.MODES, default=ckpt.MODE_REPLAY,
                      help="replay: pause anywhere; quiesce: park every "
                           "core at --at-ps so the state is injectable")
    _add_store_arg(save)
    save.set_defaults(func=cmd_save)

    info = sub.add_parser("info", help="describe a stored checkpoint")
    info.add_argument("checkpoint", help="store key (prefix ok) or file path")
    info.add_argument("--json", action="store_true",
                      help="dump manifest/stop/digests as JSON")
    _add_store_arg(info)
    info.set_defaults(func=cmd_info)

    restore = sub.add_parser(
        "restore", help="reconstruct and verify a checkpointed machine")
    restore.add_argument("checkpoint",
                         help="store key (prefix ok) or file path")
    restore.add_argument("--method", choices=("inject", "replay"),
                         default=None,
                         help="inject (quiescent checkpoints) or replay "
                              "(default: inject when possible)")
    restore.add_argument("--run", action="store_true",
                         help="also finish the run and print its result")
    _add_store_arg(restore)
    restore.set_defaults(func=cmd_restore)

    bis = sub.add_parser(
        "bisect",
        help="find the first divergent event between two configurations")
    add_run_args(bis, default_cpus=1)
    bis.add_argument("--config-a", required=True,
                     help=shorthand_help("baseline configuration "
                                         "(seeds the shared checkpoint)"))
    bis.add_argument("--config-b", required=True,
                     help=shorthand_help("comparison configuration"))
    bis.add_argument("--at-ps", type=int, required=True,
                     help="shared-checkpoint gate time in picoseconds")
    bis.add_argument("--json", metavar="PATH", default=None,
                     help="also write the report payload here")
    bis.set_defaults(func=cmd_bisect)
    return parser


def validate_args(parser: argparse.ArgumentParser,
                  args: argparse.Namespace) -> None:
    """Reject nonsensical combinations before any simulation starts."""
    check_dir_arg(parser, "--checkpoint-dir",
                  getattr(args, "checkpoint_dir", None))
    if getattr(args, "cpus", 1) < 1:
        parser.error(f"--cpus must be >= 1, got {args.cpus}")


def _store(args: argparse.Namespace) -> ckpt_store.CheckpointStore:
    return ckpt_store.CheckpointStore(args.checkpoint_dir)


def _resolve_checkpoint(args: argparse.Namespace) -> ckpt.Checkpoint:
    """A checkpoint by file path, full key, or unambiguous key prefix."""
    ref = args.checkpoint
    if os.path.exists(ref):
        return ckpt_store.load_file(ref)
    store = _store(args)
    found = store.get(ref)
    if found is not None:
        return found
    matches = ([] if not store.root.exists() else
               sorted(store.root.glob(f"{ref[:2]}/{ref}*.json"))
               if len(ref) >= 2 else [])
    if len(matches) == 1:
        return ckpt_store.load_file(matches[0])
    if len(matches) > 1:
        raise CheckpointError(
            f"checkpoint prefix {ref!r} is ambiguous "
            f"({len(matches)} matches in {store.root})")
    raise CheckpointError(
        f"no checkpoint {ref!r} in {store.root} "
        "(and no such file exists)")


def cmd_save(args: argparse.Namespace) -> int:
    request = build_request(args, args.config)
    checkpoint = ckpt.save(request, at_ps=args.at_ps,
                           max_events=args.events, mode=args.mode)
    path = _store(args).put(checkpoint)
    print(checkpoint.describe())
    print(f"  stored: {path}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    checkpoint = _resolve_checkpoint(args)
    if args.json:
        payload = checkpoint.to_dict()
        del payload["state"]          # voluminous; digests cover it
        del payload["request_pickle"]
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    print(checkpoint.describe())
    blockers = ckpt.injection_blockers(checkpoint.state)
    if blockers:
        print("  not injectable:")
        for blocker in blockers:
            print(f"    - {blocker}")
    return 0


def cmd_restore(args: argparse.Namespace) -> int:
    checkpoint = _resolve_checkpoint(args)
    method = args.method or checkpoint.restore_method
    machine = ckpt.restore(checkpoint, method=method)
    how = ("injected" if method == "inject"
           else "replayed and verified against digests")
    print(f"restored {checkpoint.key[:16]} at t={machine.env.now} ps "
          f"({how})")
    if args.run:
        machine.advance()
        result = machine.finish()
        print(result.describe())
    return 0


def cmd_bisect(args: argparse.Namespace) -> int:
    a, b = (build_request(args, name) for name in (args.config_a,
                                                   args.config_b))
    report = ckpt_bisect.bisect_divergence(
        a.config, b.config, a.workload, n_cpus=a.n_cpus, at_ps=args.at_ps)
    print(report.format())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"\nwrote {args.json}")
    return 0 if report.identical else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    validate_args(parser, args)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro.ckpt: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
