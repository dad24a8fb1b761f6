"""Content-addressed on-disk checkpoint store and warm-start runs.

The store mirrors the experiment farm's :class:`~repro.harness.farm.ResultCache`
idiom: entries live under ``<root>/<key[:2]>/<key>.json`` where *key* is
the checkpoint's 64-hex-char content address
(:func:`~repro.ckpt.checkpoint.checkpoint_key` -- request identity +
stop specification + package source fingerprint).  Writes are atomic
(temp file + rename) so concurrent processes can share one directory;
a torn, corrupt, or stale-code entry reads as a miss, never as wrong
data.

:func:`warm_run` is the payoff: run a request by injecting a cached
quiescent checkpoint past its initialization phase instead of simulating
it from cold caches -- the checkpoint analogue of the farm's result
cache, for workloads whose timed section is the only part under study.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.ckpt.checkpoint import (
    MODE_QUIESCE,
    Checkpoint,
    checkpoint_key,
    restore,
    save,
)
from repro.common.canonical import code_fingerprint
from repro.common.errors import CheckpointError
from repro.sim.request import RunRequest
from repro.sim.results import RunResult

#: Environment variable overriding the default store location.
CKPT_DIR_ENV = "REPRO_CKPT_DIR"


def default_ckpt_dir() -> Path:
    """``$REPRO_CKPT_DIR``, else ``~/.cache/repro/ckpt``."""
    env = os.environ.get(CKPT_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "ckpt"


def load_file(path: os.PathLike) -> Checkpoint:
    """Read one checkpoint file, raising :class:`CheckpointError` if bad."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    except ValueError:
        raise CheckpointError(f"{path} is not a checkpoint (bad JSON)") from None
    return Checkpoint.from_dict(data)


class CheckpointStore:
    """Content-addressed on-disk store of serialized checkpoints."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else default_ckpt_dir()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Checkpoint]:
        """The stored checkpoint under *key*, or None (miss/corrupt)."""
        try:
            return load_file(self._path(key))
        except CheckpointError:
            return None

    def put(self, checkpoint: Checkpoint) -> Path:
        """Store *checkpoint* under its own key (atomic; last writer wins)."""
        path = self._path(checkpoint.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(checkpoint.to_dict(), fh)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return path

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))


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
    machine = restore(checkpoint, method="inject")
    machine.advance()
    return machine.finish()
