"""The unified lint allowlist: ``rule-id:qualname -> reason``.

One file (``lint_allow.toml``) holds every rule's deliberate exceptions.
The format is the restricted TOML subset below -- parsed here directly
so the lint engine works on every supported interpreter without a TOML
dependency::

    # comments and blank lines are ignored
    [allow]
    "L3:repro.engine.events.Event" = "transient event: owners capture it"
    "D1:repro.memsys.dsm.DsmMemorySystem._do_clean" = "int-only set"

Keys are ``rule-id:qualname`` where the qualname is either the exact
dotted scope of the violation (module + class/function chain) or the
bare module, which suppresses that rule across the whole file.  Every
entry must carry a non-empty reason: an allowlist without reasons decays
into a mute button.  Entries that no longer suppress anything are
reported as rule-``A0`` violations by the engine, so the file can only
shrink toward the truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List


class AllowlistError(ValueError):
    """The allowlist file does not follow the documented subset."""


@dataclass(frozen=True)
class AllowEntry:
    key: str      #: ``rule-id:qualname``
    reason: str   #: why this violation is deliberate
    line: int     #: 1-based line in the allowlist file (for A0 anchors)


def _unquote(text: str, path: Path, lineno: int) -> str:
    text = text.strip()
    if len(text) < 2 or text[0] not in "\"'" or text[-1] != text[0]:
        raise AllowlistError(
            f"{path}:{lineno}: expected a quoted string, got {text!r}")
    return text[1:-1]


def load_allowlist(path: Path) -> List[AllowEntry]:
    """Parse *path*; raises :class:`AllowlistError` on malformed input."""
    entries: List[AllowEntry] = []
    seen = {}
    in_allow = False
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if line != "[allow]":
                raise AllowlistError(
                    f"{path}:{lineno}: unknown section {line}; the only "
                    "section is [allow]")
            in_allow = True
            continue
        if not in_allow:
            raise AllowlistError(
                f"{path}:{lineno}: entries must follow an [allow] header")
        if "=" not in line:
            raise AllowlistError(
                f"{path}:{lineno}: expected '\"rule:qualname\" = "
                f"\"reason\"', got {line!r}")
        key_part, _, reason_part = line.partition("=")
        key = _unquote(key_part, path, lineno)
        reason = _unquote(reason_part, path, lineno)
        if ":" not in key:
            raise AllowlistError(
                f"{path}:{lineno}: key {key!r} is not 'rule-id:qualname'")
        if not reason.strip():
            raise AllowlistError(
                f"{path}:{lineno}: entry {key!r} has an empty reason; "
                "every suppression must say why")
        if key in seen:
            raise AllowlistError(
                f"{path}:{lineno}: duplicate entry {key!r} "
                f"(first at line {seen[key]})")
        seen[key] = lineno
        entries.append(AllowEntry(key=key, reason=reason, line=lineno))
    return entries
