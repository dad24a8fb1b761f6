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
* **quiesce** starts the machine with a :class:`CheckpointGate` so every
  core parks at a trace-item boundary and the event calendar drains
  completely.  The resulting state has no live coroutine anywhere, so
  restore can *inject* it into a fresh machine
  (``Machine.begin(workload, state=...)``) without replaying.

Whether a captured state is injectable is decided once, from the state
itself, by :func:`repro.sim.machine.injection_blockers` -- the same
judgment :meth:`Machine.ckpt_restore` runs on every injection: empty
calendar, no MSHR transactions, no unfired write-buffer entries, no
occupied window miss slots, no open barriers, no held locks, no busy
directory lines or resources.
"""

from __future__ import annotations

import base64
import math
import pickle
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple

from repro.common.canonical import code_fingerprint, stable_hash
from repro.common.errors import CheckpointError
from repro.obs import hooks as obs_hooks
from repro.sim.machine import Machine, injection_blockers
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


class CheckpointGate:
    """A stop line at an absolute simulated time, for quiescent capture.

    ``Machine.begin(workload, gate=...)`` hands the gate to every core;
    between trace items a core whose local clock has reached
    :attr:`at_ps` parks on :meth:`hold`.  Once every live core is held
    and the event calendar drains, the machine is quiescent.  The model
    only ever touches ``at_ps`` and ``hold``.
    """

    def __init__(self, at_ps: int):
        if at_ps < 0:
            raise ValueError(f"gate time must be >= 0, got {at_ps}")
        self.at_ps = at_ps
        #: node -> hold event, filled in as cores arrive.
        self.held: Dict[int, object] = {}

    def hold(self, node: int, env) -> object:
        """Register *node* as stopped at the gate; returns the hold event."""
        event = env.event()
        self.held[node] = event
        return event

    def release(self) -> None:
        """Resume the stopped cores and open the gate for good: the cores
        keep their gate for the rest of the run, and a released one must
        never park them again."""
        self.at_ps = math.inf
        held, self.held = self.held, {}
        for event in held.values():
            event.succeed(None)


@dataclass
class Checkpoint:
    """One captured machine state plus everything needed to restore it."""

    schema: int                 #: file format version (SCHEMA_VERSION)
    code: str                   #: package source fingerprint at capture
    key: str                    #: content address (request + stop spec)
    manifest: Dict[str, Any]    #: human-readable identity (names, shape)
    stop: Dict[str, Any]        #: where the run was paused, and how
    injectable: bool            #: may be injected (vs. replay-restored)
    request_pickle: str         #: base64 pickle of the RunRequest
    state: Dict[str, Any]       #: Machine.ckpt_state() output
    digests: Dict[str, str]     #: per-component stable hashes of *state*
    digest: str                 #: stable hash of the whole state

    def request(self) -> RunRequest:
        """Unpickle the embedded run request.

        Callers must have checked :attr:`code` against the current
        :func:`code_fingerprint` first (:func:`restore` does); unpickling
        against drifted source raises confusing low-level errors.
        """
        return pickle.loads(base64.b64decode(self.request_pickle))

    @property
    def restore_method(self) -> str:
        """How :func:`restore` rebuilds this checkpoint unless told
        otherwise: by injection when the state allows it, else replay."""
        return METHOD_INJECT if self.injectable else METHOD_REPLAY

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Checkpoint":
        try:
            if data["schema"] != SCHEMA_VERSION:
                raise CheckpointError(
                    f"checkpoint schema v{data['schema']} is not supported "
                    f"(this build reads v{SCHEMA_VERSION})"
                )
            return cls(**{f.name: data[f.name] for f in fields(cls)})
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


# -- capture --------------------------------------------------------------


def _capture(machine: Machine, request: RunRequest, stop: Dict[str, Any],
             key: str) -> Checkpoint:
    state = machine.ckpt_state()
    digests = _component_digests(state)
    blockers = injection_blockers(state)
    manifest = {
        "request": request.describe(),
        "config": request.config.name,
        "workload": request.workload.name,
        "n_cpus": request.n_cpus,
        "scale": request.workload.scale.name,
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
        request_pickle=base64.b64encode(
            pickle.dumps(request)).decode("ascii"),
        state=state,
        digests=digests,
        digest=stable_hash(state),
    )


def _run_to_stop(request: RunRequest, mode: str, at_ps: Optional[int],
                 max_events: Optional[int],
                 ) -> Tuple[Machine, Optional[CheckpointGate], bool]:
    """Run *request* on a fresh machine up to a stop point -- the body
    capture and replay-restore share.  Returns ``(machine, gate,
    completed)``: *completed* means the run ended before the stop point.

    For a quiesce stop the gate's holds are left unfired so the caller
    sees the exact captured state (releasing enqueues dispatches and
    perturbs the engine's view); :meth:`CheckpointGate.release` lets the
    parked cores continue.
    """
    machine = request.machine()
    if mode == MODE_QUIESCE:
        gate = CheckpointGate(at_ps)
        machine.begin(request.workload, gate=gate)
        return machine, gate, machine.advance_until_blocked()
    machine.begin(request.workload)
    return machine, None, machine.advance(max_ps=at_ps, max_events=max_events)


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
    if mode == MODE_QUIESCE and at_ps is None:
        raise CheckpointError("quiesce mode needs a gate time (at_ps)")
    if at_ps is None and max_events is None:
        raise CheckpointError(
            "replay mode needs a stop point (at_ps or max_events)")
    machine, _gate, completed = _run_to_stop(request, mode, at_ps, max_events)
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
    checkpoint = _capture(machine, request, stop,
                          checkpoint_key(request, mode, at_ps, max_events))
    if mode == MODE_QUIESCE and not checkpoint.injectable:
        raise CheckpointError(
            f"machine failed to quiesce at t={at_ps} ps: "
            + "; ".join(injection_blockers(checkpoint.state))
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
            "code (repro.ckpt save); to inspect it without restoring, use "
            "repro.ckpt info."
        )


def _check_digests(machine: Machine, checkpoint: Checkpoint) -> None:
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


def restore(checkpoint: Checkpoint, method: Optional[str] = None) -> Machine:
    """Reconstruct the checkpointed machine, ready to ``advance()``.

    The checkpoint's code fingerprint is checked first, always.
    ``method=METHOD_INJECT`` plants the state into a fresh machine without
    replaying (quiescent checkpoints only, as :func:`injection_blockers`
    judges); ``method=METHOD_REPLAY`` re-runs the
    request to the stop point and verifies every component digest against
    the checkpoint.  Default: :attr:`Checkpoint.restore_method`.
    """
    check_code(checkpoint)
    obs_hooks.require_ckpt_tolerant("checkpoint restore", CheckpointError)
    if method is None:
        method = checkpoint.restore_method
    request = checkpoint.request()
    if method == METHOD_INJECT:
        if not checkpoint.injectable:
            raise CheckpointError(
                f"checkpoint {checkpoint.key[:16]} is not injectable: "
                + "; ".join(injection_blockers(checkpoint.state))
            )
        machine = request.machine()
        machine.begin(request.workload, state=checkpoint.state)
        return machine
    if method != METHOD_REPLAY:
        raise CheckpointError(f"unknown restore method {method!r}")
    stop = checkpoint.stop
    machine, gate, completed = _run_to_stop(request, stop["mode"],
                                            stop["at_ps"], stop["events"])
    if completed:
        raise CheckpointError(
            "replay completed before reaching the checkpoint's stop point "
            "(nondeterministic run, or a stale checkpoint)"
        )
    _check_digests(machine, checkpoint)
    if gate is not None:
        gate.release()
    return machine


def resume(checkpoint: Checkpoint, method: Optional[str] = None) -> RunResult:
    """Restore and run the checkpointed workload to completion."""
    machine = restore(checkpoint, method=method)
    machine.advance()
    return machine.finish()
