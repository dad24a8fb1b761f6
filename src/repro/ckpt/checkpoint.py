"""Checkpoint capture, verification, and restore.

A checkpoint is the complete state of a :class:`~repro.sim.machine.Machine`
at one simulated instant, composed from every component's
``ckpt_state()`` view plus enough metadata to rebuild the machine in
another process: the pickled :class:`~repro.sim.request.RunRequest`, the
package source fingerprint, and the stop specification.

Two capture modes exist because CPython cannot serialize the generator
frames at the heart of the engine:

* **replay** (the default) pauses :meth:`Machine.advance` at a clean
  between-events boundary (``max_ps`` / ``max_events``) and captures.
  Restore rebuilds the machine from the request, re-runs it to the same
  boundary -- bit-identical because every run is a pure function of its
  request -- and then *verifies* the replayed state against the stored
  per-component digests before handing the machine back.  Works at any
  instant; costs a replay of the prefix.
* **quiesce** installs a :class:`~repro.common.gate.CheckpointGate` so
  every core parks at a trace-item boundary and the event calendar drains
  completely.  The resulting state has no live coroutine anywhere, so
  restore can *inject* it into a fresh machine
  (:meth:`Machine.begin_resumed`) without replaying -- the warm-start fast
  path used by :func:`repro.ckpt.store.warm_run`.

Whether a captured state is injectable is decided structurally from the
state itself (:func:`injection_blockers`): empty calendar, no MSHR
transactions, no unfired write-buffer entries, no occupied window miss
slots, no open barriers, no held locks, no busy directory lines or
resources.
"""

from __future__ import annotations

import base64
import pickle
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.common import gate as ckpt_gate
from repro.common.canonical import code_fingerprint, stable_hash
from repro.common.errors import CheckpointError
from repro.obs import hooks as obs_hooks
from repro.sim.machine import Machine
from repro.sim.request import RunRequest
from repro.sim.results import RunResult

#: Checkpoint file schema version; bump on incompatible layout changes.
SCHEMA_VERSION = 1

MODE_REPLAY = "replay"
MODE_QUIESCE = "quiesce"
MODES = (MODE_REPLAY, MODE_QUIESCE)

#: Restore strategies.
METHOD_REPLAY = "replay"
METHOD_INJECT = "inject"


@dataclass
class Checkpoint:
    """One captured machine state plus everything needed to restore it."""

    schema: int                 #: file format version (SCHEMA_VERSION)
    code: str                   #: package source fingerprint at capture
    key: str                    #: content address (request + stop spec)
    manifest: Dict[str, Any]    #: human-readable identity (names, shape)
    stop: Dict[str, Any]        #: where the run was paused, and how
    injectable: bool            #: may be injected (vs. replay-restored)
    request_blob: str           #: base64 pickle of the RunRequest
    state: Dict[str, Any]       #: Machine.ckpt_state() output
    digests: Dict[str, str]     #: per-component stable hashes of *state*
    digest: str                 #: stable hash of the whole state

    def request(self) -> RunRequest:
        """Unpickle the embedded run request.

        Callers must have checked :attr:`code` against the current
        :func:`code_fingerprint` first (:func:`restore` does); unpickling
        against drifted source raises confusing low-level errors.
        """
        return pickle.loads(base64.b64decode(self.request_blob))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "code": self.code,
            "key": self.key,
            "manifest": self.manifest,
            "stop": self.stop,
            "injectable": self.injectable,
            "request_pickle": self.request_blob,
            "state": self.state,
            "digests": self.digests,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Checkpoint":
        try:
            schema = data["schema"]
            if schema != SCHEMA_VERSION:
                raise CheckpointError(
                    f"checkpoint schema v{schema} is not supported "
                    f"(this build reads v{SCHEMA_VERSION})"
                )
            return cls(
                schema=schema,
                code=data["code"],
                key=data["key"],
                manifest=data["manifest"],
                stop=data["stop"],
                injectable=data["injectable"],
                request_blob=data["request_pickle"],
                state=data["state"],
                digests=data["digests"],
                digest=data["digest"],
            )
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                f"malformed checkpoint payload: missing {exc!r}"
            ) from None

    def describe(self) -> str:
        stop = self.stop
        mode = stop["mode"]
        lines = [
            f"checkpoint {self.key[:16]}  ({mode}, "
            f"{'injectable' if self.injectable else 'replay-only'})",
            f"  run:    {self.manifest['request']}",
            f"  stop:   t={stop['now_ps']} ps after "
            f"{stop['events_processed']} events"
            + (f" (gate at {stop['at_ps']} ps)"
               if stop.get("at_ps") is not None else ""),
            f"  code:   {self.code[:16]}",
            f"  digest: {self.digest[:16]}",
        ]
        return "\n".join(lines)


# -- identity -------------------------------------------------------------


def checkpoint_key(request: RunRequest, mode: str,
                   at_ps: Optional[int] = None,
                   max_events: Optional[int] = None) -> str:
    """Content address of the checkpoint *request* would produce.

    Folds in the package source fingerprint -- like the farm's result
    cache, stale checkpoints die with the code -- plus the stop
    specification, so the same request checkpointed at two instants gets
    two addresses.
    """
    return stable_hash({
        "code": code_fingerprint(),
        "request": request.payload(),
        "stop": {"mode": mode, "at_ps": at_ps, "events": max_events},
    })


def _component_digests(state: Dict[str, Any]) -> Dict[str, str]:
    return {name: stable_hash(part) for name, part in state.items()}


# -- injectability --------------------------------------------------------


def _resource_busy(res: Dict[str, Any]) -> bool:
    return bool(res["in_use"] or res["queue"]
                or res["busy_since"] is not None)


def injection_blockers(state: Dict[str, Any]) -> List[str]:
    """Why *state* cannot be injected into a fresh machine (empty = can).

    Decided structurally from the captured state alone, mirroring the
    checks every component's ``ckpt_restore`` enforces -- so a state this
    function clears will inject without raising.
    """
    blockers: List[str] = []
    engine = state["engine"]
    if engine["heap"]:
        blockers.append(f"{len(engine['heap'])} events on the calendar")
    if engine["pending_dispatch"]:
        blockers.append(f"{engine['pending_dispatch']} pending dispatches")
    for i, iface in enumerate(state["ifaces"]):
        if iface["mshr"]:
            blockers.append(
                f"iface{i}: {len(iface['mshr'])} MSHR transactions")
        unfired = sum(1 for fired in iface["write_buffer"]["pending"]
                      if not fired)
        if unfired:
            blockers.append(
                f"iface{i}: {unfired} unfired write-buffer entries")
    for i, core in enumerate(state["cores"]):
        if core.get("inflight"):
            blockers.append(
                f"cpu{i}: {len(core['inflight'])} occupied miss slots")
    sync = state["sync"]
    if sync["barriers"]:
        blockers.append(f"{len(sync['barriers'])} open barriers")
    for lid, lock in sync["locks"]:
        if _resource_busy(lock):
            blockers.append(f"lock{lid} held")
    memsys = state["memsys"]
    for key, link in memsys["net"]["links"]:
        if _resource_busy(link):
            blockers.append(f"network link {key} busy")
    for n, magic in enumerate(memsys["magic"]):
        if _resource_busy(magic["pp"]):
            blockers.append(f"node{n}: protocol processor busy")
        if _resource_busy(magic["dram"]):
            blockers.append(f"node{n}: DRAM bank busy")
        busy = sum(1 for _line, entry in magic["directory"]["entries"]
                   if entry["busy"])
        if busy:
            blockers.append(f"node{n}: {busy} busy directory lines")
    return blockers


# -- capture --------------------------------------------------------------


def fresh_machine(request: RunRequest) -> Machine:
    """A cold machine for *request*, with the global RNGs seeded first.

    Mirrors :meth:`RunRequest.execute` so a checkpoint run and a straight
    run see identical randomness.
    """
    seed = request.request_seed()
    random.seed(seed)
    np.random.seed(seed % 2**32)
    return Machine(request.config, request.n_cpus,
                   request.effective_scale(), request.placement)


def _capture(machine: Machine, request: RunRequest, stop: Dict[str, Any],
             key: str) -> Checkpoint:
    state = machine.ckpt_state()
    digests = _component_digests(state)
    blockers = injection_blockers(state)
    scale = request.effective_scale()
    manifest = {
        "request": request.describe(),
        "config": request.config.name,
        "workload": request.workload.name,
        "n_cpus": request.n_cpus,
        "scale": scale.name,
        "placement": request.placement,
        "seed": request.seed,
    }
    return Checkpoint(
        schema=SCHEMA_VERSION,
        code=code_fingerprint(),
        key=key,
        manifest=manifest,
        stop=stop,
        injectable=not blockers,
        request_blob=base64.b64encode(pickle.dumps(request)).decode("ascii"),
        state=state,
        digests=digests,
        digest=stable_hash(state),
    )


def save(request: RunRequest, at_ps: Optional[int] = None,
         max_events: Optional[int] = None,
         mode: str = MODE_REPLAY) -> Checkpoint:
    """Run *request* up to a stop point and capture a checkpoint.

    ``mode=MODE_REPLAY`` pauses the engine loop at the first event past
    ``at_ps`` (or after ``max_events`` events) -- any instant works, and
    restore replays to it.  ``mode=MODE_QUIESCE`` requires ``at_ps`` and
    parks every core at the gate so the state is injectable; it raises if
    the machine fails to quiesce there (e.g. a window core with occupied
    miss slots, or a core holding a lock across the stop line) -- fall
    back to replay mode in that case.
    """
    if mode not in MODES:
        raise CheckpointError(f"unknown checkpoint mode {mode!r}")
    obs_hooks.require_ckpt_tolerant("checkpoint capture", CheckpointError)
    machine = fresh_machine(request)
    key = checkpoint_key(request, mode, at_ps, max_events)
    if mode == MODE_QUIESCE:
        if at_ps is None:
            raise CheckpointError("quiesce mode needs a gate time (at_ps)")
        gate = ckpt_gate.CheckpointGate(at_ps)
        with ckpt_gate.holding(gate):
            machine.begin(request.workload)
            completed = machine.advance_until_blocked()
    else:
        if at_ps is None and max_events is None:
            raise CheckpointError(
                "replay mode needs a stop point (at_ps or max_events)")
        machine.begin(request.workload)
        completed = machine.advance(max_ps=at_ps, max_events=max_events)
    if completed:
        raise CheckpointError(
            f"{request.describe()} completed at t={machine.env.now} ps "
            "before reaching the stop point; checkpoint not captured"
        )
    stop = {
        "mode": mode,
        "at_ps": at_ps,
        "events": max_events,
        "now_ps": int(machine.env.now),
        "events_processed": int(machine.env.events_processed),
    }
    checkpoint = _capture(machine, request, stop, key)
    if mode == MODE_QUIESCE and not checkpoint.injectable:
        blockers = injection_blockers(checkpoint.state)
        raise CheckpointError(
            f"machine failed to quiesce at t={at_ps} ps: "
            + "; ".join(blockers)
            + " (capture with mode='replay' instead)"
        )
    return checkpoint


# -- restore --------------------------------------------------------------


def check_code(checkpoint: Checkpoint) -> None:
    """Reject a checkpoint written by different simulator source."""
    current = code_fingerprint()
    if checkpoint.code != current:
        raise CheckpointError(
            f"checkpoint {checkpoint.key[:16]} was written by simulator "
            f"source {checkpoint.code[:16]}, but this build is "
            f"{current[:16]}; replaying it would silently produce a "
            "different machine.  Re-save the checkpoint with the current "
            "code (repro.ckpt save), or pass verify_code=False if you "
            "only want to inspect it."
        )


def _replay_to_stop(machine: Machine, request: RunRequest,
                    stop: Dict[str, Any]):
    """Re-run to the stop point; returns (completed, gate-or-None).

    For a quiesce stop the gate's holds are left unfired so the caller can
    verify digests against the exact captured state (releasing first would
    enqueue dispatches and perturb the engine's view); release the gate
    after verification to let the parked cores continue.
    """
    if stop["mode"] == MODE_QUIESCE:
        gate = ckpt_gate.CheckpointGate(stop["at_ps"])
        with ckpt_gate.holding(gate):
            machine.begin(request.workload)
            completed = machine.advance_until_blocked()
        return completed, gate
    machine.begin(request.workload)
    completed = machine.advance(max_ps=stop["at_ps"], max_events=stop["events"])
    return completed, None


def _verify_state(machine: Machine, checkpoint: Checkpoint) -> None:
    digests = _component_digests(machine.ckpt_state())
    mismatched = sorted(
        name for name, expect in checkpoint.digests.items()
        if digests.get(name) != expect
    )
    if mismatched:
        raise CheckpointError(
            "replayed state diverged from checkpoint "
            f"{checkpoint.key[:16]} in: {', '.join(mismatched)} "
            "(nondeterministic run, or a stale checkpoint)"
        )


def restore(checkpoint: Checkpoint, method: Optional[str] = None,
            verify_code: bool = True, verify_state: bool = True) -> Machine:
    """Reconstruct the checkpointed machine, ready to ``advance()``.

    ``method=METHOD_INJECT`` plants the state into a fresh machine without
    replaying (quiescent checkpoints only); ``method=METHOD_REPLAY``
    re-runs the request to the stop point and verifies every component
    digest against the checkpoint.  Default: inject when the checkpoint
    allows it, replay otherwise.
    """
    if verify_code:
        check_code(checkpoint)
    obs_hooks.require_ckpt_tolerant("checkpoint restore", CheckpointError)
    if method is None:
        method = METHOD_INJECT if checkpoint.injectable else METHOD_REPLAY
    request = checkpoint.request()
    machine = fresh_machine(request)
    if method == METHOD_INJECT:
        if not checkpoint.injectable:
            raise CheckpointError(
                f"checkpoint {checkpoint.key[:16]} is not injectable: "
                + "; ".join(injection_blockers(checkpoint.state))
            )
        machine.begin_resumed(request.workload, checkpoint.state)
        return machine
    if method != METHOD_REPLAY:
        raise CheckpointError(f"unknown restore method {method!r}")
    completed, gate = _replay_to_stop(machine, request, checkpoint.stop)
    if completed:
        raise CheckpointError(
            "replay completed before reaching the checkpoint's stop point "
            "(nondeterministic run, or a stale checkpoint)"
        )
    if verify_state:
        _verify_state(machine, checkpoint)
    if gate is not None:
        gate.release()
    return machine


def resume(checkpoint: Checkpoint, method: Optional[str] = None) -> RunResult:
    """Restore and run the checkpointed workload to completion."""
    machine = restore(checkpoint, method=method)
    machine.advance()
    return machine.finish()
