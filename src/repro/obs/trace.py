"""The span recorder: a fixed-capacity ring buffer of timed events.

A :class:`Span` is ``(t_ps, category, name, dur_ps, args)``.  ``args`` is
either ``None``, a bare CPU/node number, or a small dict (``{"cpu": n, ...}``);
when a CPU can be identified the span also feeds a per-``(cpu, category,
name)`` aggregate table that never wraps, so the cycle-attribution profiler
(:mod:`repro.obs.profile`) stays exact even when the timeline ring has
dropped old spans.

The ring exists because tracing must be safe to leave on for long runs:
memory use is bounded by ``capacity`` and old spans are overwritten, like
the flight-recorder tracing in production simulators (Ramulator 2.0 keeps
the same split between bounded event logs and unbounded counters).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.obs import hooks


class Span(NamedTuple):
    """One recorded event: a duration (``dur_ps > 0``) or an instant."""

    t_ps: int        #: start time, picoseconds of simulated time
    category: str    #: coarse bucket ("tlb", "mem", "sync", "dsm", ...)
    name: str        #: event name within the category ("refill", "load_miss")
    dur_ps: int      #: duration in ps; 0 for instantaneous events
    args: object     #: None, a cpu/node int, or a small dict of details

    @property
    def cpu(self) -> Optional[int]:
        """The CPU this span belongs to, if one was recorded."""
        return _cpu_of(self.args)


def _cpu_of(args: object) -> Optional[int]:
    if type(args) is int:
        return args
    if type(args) is dict:
        cpu = args.get("cpu")
        return cpu if type(cpu) is int else None
    return None


class TraceRecorder(hooks.Recorder):
    """Ring-buffered sink for :class:`Span` events.

    The recorder itself is always cheap to *call*; the near-zero disabled
    path lives one level up in :mod:`repro.obs.hooks`, where call sites
    test a module global before touching the recorder at all.
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: Deque[Span] = deque(maxlen=capacity)
        #: Total spans ever recorded (including any since overwritten).
        self.recorded = 0
        self._agg: Dict[Tuple[Optional[int], str, str], List[float]] = {}
        self._engine = None

    # -- wiring -----------------------------------------------------------

    def bind(self, machine) -> None:
        """Use *machine*'s engine clock to timestamp clockless events."""
        self._engine = machine.env

    def now_ps(self) -> int:
        """Current simulated time of the bound engine (0 when unbound)."""
        return self._engine.now if self._engine is not None else 0

    # -- recording --------------------------------------------------------

    def span(self, t_ps: int, category: str, name: str,
             dur_ps: int = 0, args: object = None) -> None:
        """Append one span, overwriting the oldest when the ring is full."""
        self._ring.append(Span(t_ps, category, name, dur_ps, args))
        self.recorded += 1
        key = (_cpu_of(args), category, name)
        agg = self._agg.get(key)
        if agg is None:
            self._agg[key] = [1, dur_ps]
        else:
            agg[0] += 1
            agg[1] += dur_ps

    # The cache and TLB have no engine reference of their own: their
    # instants take the bound engine's clock (t=0 when unbound).

    def cache_miss(self, name: str, node: int, paddr: int) -> None:
        self.span(self.now_ps(), hooks.CACHE, f"{name}.miss")

    def tlb_miss(self, vpn: int, cpu: Optional[int] = None) -> None:
        self.span(self.now_ps(), hooks.TLB, "miss", 0,
                  {"vpn": vpn} if cpu is None else {"cpu": cpu, "vpn": vpn})

    def net_msg(self, src: int, dst: int, flits: int, hops,
                start_ps: int = 0, dur_ps: int = 0) -> None:
        # Delivery minus the uncontended bound = link contention.
        self.span(start_ps, hooks.NET, "msg", dur_ps,
                  {"src": src, "dst": dst, "flits": flits,
                   "hops": len(hops)})

    def mem_access(self, node: int, home: int, paddr: int, kind: str,
                   start_ps: int = 0, latency_ps: int = 0,
                   case: Optional[str] = None) -> None:
        if case is not None:  # no CPU waits on a fire-and-forget writeback
            self.span(start_ps, hooks.DSM, f"txn.{kind}", latency_ps,
                      {"node": node, "home": home, "case": case})

    # -- reading ----------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Spans lost to ring wraparound."""
        return self.recorded - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def spans(self) -> List[Span]:
        """Retained spans, oldest first."""
        return list(self._ring)

    def aggregates(self) -> Dict[Tuple[Optional[int], str, str], Tuple[int, int]]:
        """``(cpu, category, name) -> (count, total_dur_ps)``, unwrapped."""
        return {key: (int(v[0]), int(v[1])) for key, v in self._agg.items()}

    def as_counter_set(self):
        """The aggregate table as a :class:`~repro.common.stats.CounterSet`.

        Keys follow the registry naming scheme (``cpu0.tlb.refill.dur_ps``),
        so observability numbers and simulator statistics read the same
        way.
        """
        from repro.common.stats import CounterSet

        cs = CounterSet("obs")
        for (cpu, category, name), (count, dur_ps) in self._agg.items():
            prefix = category if cpu is None else f"cpu{cpu}.{category}"
            cs.add(f"{prefix}.{name}.events", count)
            cs.add(f"{prefix}.{name}.dur_ps", dur_ps)
        return cs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceRecorder({len(self)}/{self.capacity} spans, "
            f"{self.dropped} dropped)"
        )
