"""Content-addressed on-disk checkpoint store and warm-start runs.

The store is a :class:`~repro.common.store.JsonStore` -- the layout and
atomic write the experiment farm's result cache uses -- keyed by the
checkpoint's 64-hex-char content address
(:func:`~repro.ckpt.checkpoint.checkpoint_key` -- request identity +
stop specification + package source fingerprint).  Concurrent processes
can share one directory; a torn, corrupt, or stale-code entry reads as a
miss, never as wrong data, and an entry that cannot be written is an
error, never a silent no-op.

:func:`warm_run` is the payoff: run a request by injecting a cached
quiescent checkpoint past its initialization phase instead of simulating
it from cold caches -- the checkpoint analogue of the farm's result
cache, for workloads whose timed section is the only part under study.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from repro.ckpt.checkpoint import (
    MODE_QUIESCE,
    Checkpoint,
    checkpoint_key,
    resume,
    save,
)
from repro.common.canonical import code_fingerprint
from repro.common.errors import CheckpointError
from repro.common.store import JsonStore, default_dir
from repro.sim.request import RunRequest
from repro.sim.results import RunResult

#: Environment variable overriding the default store location.
CKPT_DIR_ENV = "REPRO_CKPT_DIR"


def default_ckpt_dir() -> Path:
    """``$REPRO_CKPT_DIR``, else ``~/.cache/repro/ckpt``."""
    return default_dir(CKPT_DIR_ENV, "ckpt")


def load_file(path: os.PathLike) -> Checkpoint:
    """Read one checkpoint file, raising :class:`CheckpointError` if bad."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    except ValueError:
        raise CheckpointError(f"{path} is not a checkpoint (bad JSON)") from None
    return Checkpoint.from_dict(data)


class CheckpointStore(JsonStore):
    """Content-addressed on-disk store of serialized checkpoints."""

    def __init__(self, root: Optional[os.PathLike] = None):
        super().__init__(root if root is not None else default_ckpt_dir())

    def get(self, key: str) -> Optional[Checkpoint]:
        """The stored checkpoint under *key*, or None (miss/corrupt)."""
        data = self.read(key)
        try:
            return None if data is None else Checkpoint.from_dict(data)
        except CheckpointError:
            return None

    def put(self, checkpoint: Checkpoint) -> Path:
        """Store *checkpoint* under its own key; returns where it landed.
        Unlike the farm's cache this is the caller's only copy, so a
        store that cannot be written raises."""
        try:
            return self.write(checkpoint.key, checkpoint.to_dict())
        except OSError as exc:
            raise CheckpointError(
                f"cannot store checkpoint {checkpoint.key[:16]} at "
                f"{self._path(checkpoint.key)}: {exc}") from None


def warm_run(request: RunRequest, at_ps: int,
             store: Optional[CheckpointStore] = None) -> RunResult:
    """Run *request*, warm-starting from a cached quiescent checkpoint.

    On the first call the initialization prefix is simulated once,
    captured at the ``at_ps`` gate, and stored; every later call injects
    the cached state into a fresh machine and simulates only the
    remainder.  Results are bit-identical to :meth:`RunRequest.execute`
    -- that is the round-trip determinism property the checkpoint test
    suite enforces.
    """
    if store is None:
        store = CheckpointStore()
    key = checkpoint_key(request, MODE_QUIESCE, at_ps)
    checkpoint = store.get(key)
    if checkpoint is None or checkpoint.code != code_fingerprint():
        checkpoint = save(request, at_ps=at_ps, mode=MODE_QUIESCE)
        store.put(checkpoint)
    return resume(checkpoint, method="inject")
