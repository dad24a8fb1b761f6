"""repro.ckpt: full-machine checkpoint/restore and bisection.

Every stateful simulator component implements the :class:`Checkpointable`
protocol -- ``ckpt_state()`` returning a JSON-able view of its complete
state, ``ckpt_restore(state)`` injecting such a view back.  The
:class:`~repro.sim.machine.Machine` composes those views into one
versioned checkpoint; this package adds the machinery around it:

* :mod:`repro.ckpt.checkpoint` -- capture (replay-mode or quiescent,
  the latter behind a :class:`~repro.ckpt.checkpoint.CheckpointGate`),
  code-fingerprint and digest verification, restore by replay or by
  injection;
* :mod:`repro.ckpt.store` -- the content-addressed on-disk store (a
  :class:`~repro.common.store.JsonStore`, like the farm's result cache);
* :mod:`repro.ckpt.bisect` -- replay two configurations from a shared
  checkpoint and binary-search the event stream for the first divergent
  event;
* ``python -m repro.ckpt`` -- the ``save`` / ``restore`` / ``info`` /
  ``bisect`` command line (:mod:`repro.ckpt.cli`).

Hot simulator layers (``cpu/``, ``mem/``, ``engine/``) never import this
package (the hot-path lint enforces it) and need nothing from it: the
model's whole share of checkpointing is the ``ckpt_state`` /
``ckpt_restore`` pair and two arguments of
:meth:`~repro.sim.machine.Machine.begin` -- ``gate=`` (a stop line the
cores duck-type) and ``state=`` (a capture to start from).  A machine
for a request is built one way, :meth:`RunRequest.machine
<repro.sim.request.RunRequest.machine>`.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.ckpt.bisect import DivergenceReport, bisect_divergence
from repro.ckpt.checkpoint import (
    MODE_QUIESCE,
    MODE_REPLAY,
    SCHEMA_VERSION,
    Checkpoint,
    checkpoint_key,
    restore,
    resume,
    save,
)
from repro.ckpt.store import (
    CKPT_DIR_ENV,
    CheckpointStore,
    default_ckpt_dir,
    load_file,
)
from repro.common.errors import CheckpointError
from repro.sim.machine import injection_blockers


@runtime_checkable
class Checkpointable(Protocol):
    """The per-component checkpoint contract.

    ``ckpt_state`` must return plain JSON-able data (dicts, lists,
    strings, numbers, booleans) describing the component's *complete*
    mutable state; live events are captured as fired/pending markers.
    ``ckpt_restore`` takes a freshly built component and a state that
    :func:`~repro.sim.machine.injection_blockers` clears (the machine
    checks first), reproduces it exactly, and raises only on a shape
    mismatch.  Lint rule L3 checks that every stateful simulator class
    implements this protocol, both halves.
    """

    def ckpt_state(self) -> dict: ...

    def ckpt_restore(self, state: dict) -> None: ...


__all__ = [
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "Checkpointable",
    "CKPT_DIR_ENV",
    "DivergenceReport",
    "MODE_QUIESCE",
    "MODE_REPLAY",
    "SCHEMA_VERSION",
    "bisect_divergence",
    "checkpoint_key",
    "default_ckpt_dir",
    "injection_blockers",
    "load_file",
    "restore",
    "resume",
    "save",
]
