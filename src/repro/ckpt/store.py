"""Content-addressed on-disk checkpoint store.

The store is a :class:`~repro.common.store.JsonStore` -- the layout and
atomic write the experiment farm's result cache uses -- keyed by the
checkpoint's 64-hex-char content address
(:func:`~repro.ckpt.checkpoint.checkpoint_key` -- request identity +
stop specification + package source fingerprint).  Concurrent processes
can share one directory; a torn, corrupt, or stale-code entry reads as a
miss, never as wrong data, and an entry that cannot be written is an
error, never a silent no-op.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from repro.ckpt.checkpoint import Checkpoint
from repro.common.errors import CheckpointError
from repro.common.store import JsonStore, default_dir

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

