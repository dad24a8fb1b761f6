"""Lightweight statistics containers used by every simulator component.

Every component (cache, TLB, MAGIC controller, processor core, ...) owns a
:class:`CounterSet`.  A :class:`StatsRegistry` aggregates them per run so a
:class:`~repro.sim.results.RunResult` can expose a flat name -> value view.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple


class CounterSet:
    """A named bag of integer/float counters.

    Counters spring into existence on first use and default to zero, in
    first-touch order.  Model components bind the dict once and bump it
    in place (``counters = stats._counters``, then ``counters["misses"]
    += 1.0``), which touches keys in the same order as :meth:`add`
    without a call per bump; :meth:`add` is for cold callers.
    """

    def __init__(self, name: str):
        self.name = name
        self._counters: Dict[str, float] = defaultdict(float)

    def add(self, key: str, amount: float = 1.0) -> None:
        """Increment counter *key* by *amount* (default 1)."""
        self._counters[key] += amount

    def set(self, key: str, value: float) -> None:
        """Set counter *key* to an absolute value."""
        self._counters[key] = value

    def get(self, key: str) -> float:
        """Current value of *key* (0 if never touched)."""
        return self._counters.get(key, 0.0)

    def __getitem__(self, key: str) -> float:
        return self._counters.get(key, 0.0)

    def __contains__(self, key: str) -> bool:
        return key in self._counters

    def items(self) -> List[Tuple[str, float]]:
        """All counters as a list of ``(key, value)``, sorted by key
        (stable display/debug order; :meth:`snapshot` keeps first-touch
        insertion order)."""
        return sorted(self._counters.items())

    def snapshot(self) -> Dict[str, float]:
        """Counters in first-touch insertion order (JSON-able)."""
        return {key: float(value) for key, value in self._counters.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v:g}" for k, v in self.items())
        return f"CounterSet({self.name}: {inner})"


class StatsRegistry:
    """Aggregates the :class:`CounterSet` of every component in a machine."""

    def __init__(self):
        self._sets: Dict[str, CounterSet] = {}

    def counter_set(self, name: str) -> CounterSet:
        """Return (creating if needed) the counter set called *name*."""
        if name not in self._sets:
            self._sets[name] = CounterSet(name)
        return self._sets[name]

    def flat(self) -> Dict[str, float]:
        """All counters as ``{"set.counter": value}``."""
        out: Dict[str, float] = {}
        for set_name, counters in sorted(self._sets.items()):
            for key, value in counters.items():
                out[f"{set_name}.{key}"] = value
        return out
