"""Lightweight statistics containers used by every simulator component.

Every component (cache, TLB, MAGIC controller, processor core, ...) owns a
:class:`CounterSet`.  A :class:`StatsRegistry` aggregates them per run so a
:class:`~repro.sim.results.RunResult` can expose a flat name -> value view.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Mapping, Tuple


class ScopedCounters:
    """A write-through view of a :class:`CounterSet` under a key prefix.

    ``cs.scoped("tlb").add("misses")`` increments ``cs["tlb.misses"]`` --
    the same dotted naming :meth:`StatsRegistry.flat` produces, so
    subsystems (observability, per-phase stats) can nest counters without
    inventing a second naming scheme.
    """

    __slots__ = ("_base", "_prefix")

    def __init__(self, base: "CounterSet", prefix: str):
        self._base = base
        self._prefix = prefix

    def add(self, key: str, amount: float = 1.0) -> None:
        self._base.add(self._prefix + key, amount)

    def set(self, key: str, value: float) -> None:
        self._base.set(self._prefix + key, value)

    def get(self, key: str) -> float:
        return self._base.get(self._prefix + key)

    def scoped(self, prefix: str) -> "ScopedCounters":
        """A deeper view: prefixes compose (``a.scoped("b")`` -> ``a.b.``)."""
        return ScopedCounters(self._base, f"{self._prefix}{prefix}.")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScopedCounters({self._base.name}, prefix={self._prefix!r})"


class CounterSet:
    """A named bag of integer/float counters.

    Counters spring into existence on first use and default to zero, so
    simulator hot paths can simply do ``stats.add("misses")``.
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
        """All counters as a list of ``(key, value)``, sorted by key.

        Note the ordering contract: :meth:`items` is *sorted* (stable
        display/debug order) while :meth:`as_dict` preserves first-touch
        insertion order.
        """
        return sorted(self._counters.items())

    def as_dict(self) -> Dict[str, float]:
        """A plain-dict snapshot of all counters, in insertion order."""
        return dict(self._counters)

    def scoped(self, prefix: str) -> ScopedCounters:
        """A view of this set under ``prefix.`` (see :class:`ScopedCounters`)."""
        return ScopedCounters(self, prefix + ".")

    def merge(self, other: "CounterSet") -> None:
        """Add all of *other*'s counters into this set."""
        for key, value in other._counters.items():
            self._counters[key] += value

    def clear(self) -> None:
        self._counters.clear()

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator``, or 0.0 when the denominator is 0."""
        denom = self.get(denominator)
        if denom == 0:
            return 0.0
        return self.get(numerator) / denom

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

    def sets(self) -> Mapping[str, CounterSet]:
        return dict(self._sets)

    def flat(self) -> Dict[str, float]:
        """All counters as ``{"set.counter": value}``."""
        out: Dict[str, float] = {}
        for set_name, counters in sorted(self._sets.items()):
            for key, value in counters.items():
                out[f"{set_name}.{key}"] = value
        return out

    def as_nested_dict(self) -> Dict[str, Dict[str, float]]:
        """All counters as ``{set_name: {counter: value}}``, sorted both
        levels -- the structured sibling of :meth:`flat`, shared with the
        observability layer's exports."""
        return {
            set_name: dict(counters.items())
            for set_name, counters in sorted(self._sets.items())
        }

    def total(self, counter: str) -> float:
        """Sum a counter name across every registered set."""
        return sum(cs.get(counter) for cs in self._sets.values())
