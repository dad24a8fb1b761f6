"""One content-addressed on-disk JSON store.

The farm's :class:`~repro.harness.farm.ResultCache` is its typed half:
entries live under ``<root>/<key[:2]>/<key>.json`` where *key* is a
64-hex-char content address, one directory is shared between concurrent
processes, and anything unreadable reads as absent.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional


def default_dir(env_var: str, leaf: str) -> Path:
    """``$<env_var>``, else ``~/.cache/repro/<leaf>``."""
    env = os.environ.get(env_var)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / leaf


def check_dir_arg(parser, flag: str, value: Optional[str]) -> None:
    """``parser.error`` out when the store directory *flag* names has no
    parent to create it in (a typo would otherwise surface only at the
    first write, after the simulation it was meant to save)."""
    if value is None:
        return
    parent = os.path.dirname(os.path.abspath(value))
    if not os.path.isdir(parent):
        parser.error(
            f"{flag} parent directory does not exist: {parent} "
            f"(create it first, or point {flag} somewhere that exists)")


class JsonStore:
    """``key -> JSON object`` under *root*, atomic and torn-write safe."""

    def __init__(self, root: os.PathLike):
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def read(self, key: str) -> Optional[dict]:
        """The object stored under *key*; ``None`` when the entry is
        missing, torn, corrupt or not a JSON object -- never wrong data."""
        try:
            data = json.loads(self._path(key).read_text())
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def write(self, key: str, payload: dict) -> Path:
        """Store *payload* under *key* (temp file + rename, so concurrent
        writers are safe and the last one wins).  Raises :class:`OSError`
        when the entry cannot be written; the caller decides whether
        that matters."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh)
            if path.is_dir():
                path.rmdir()    # a stray empty directory squats the entry
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
