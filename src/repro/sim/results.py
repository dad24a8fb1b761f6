"""Run results: what a simulation hands to the validation layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.common.errors import SimulationError
from repro.common.units import ps_to_ns
from repro.isa.trace import PhaseMark

if TYPE_CHECKING:  # pragma: no cover - import is typing-only
    from repro.obs.profile import RunBreakdown


@dataclass
class RunResult:
    """Outcome of one (simulator configuration, workload, P) run."""

    config_name: str
    workload_name: str
    n_cpus: int
    scale_name: str
    total_ps: int
    phase_spans_ps: Dict[str, Tuple[int, int]]
    instructions: float
    stats: Dict[str, float] = field(default_factory=dict)
    #: Per-CPU cycle attribution (repro.obs); populated when the run
    #: executed under an active tracer, else None.
    breakdown: Optional["RunBreakdown"] = None

    @property
    def parallel_ps(self) -> int:
        """Duration of the measured parallel section (the paper's metric)."""
        span = self.phase_spans_ps.get(PhaseMark.PARALLEL)
        if span is None:
            return self.total_ps
        return span[1] - span[0]

    @property
    def parallel_ns(self) -> float:
        return ps_to_ns(self.parallel_ps)

    def stat(self, key: str, default: float = 0.0) -> float:
        return self.stats.get(key, default)

    def stat_total(self, suffix: str) -> float:
        """Sum of every per-component counter ending in *suffix*."""
        return sum(v for k, v in self.stats.items() if k.endswith(suffix))

    def describe(self) -> str:
        return (
            f"{self.workload_name} on {self.config_name} (P={self.n_cpus}, "
            f"scale={self.scale_name}): parallel {self.parallel_ns / 1e6:.3f} ms"
        )

    # -- serialization (the farm's on-disk cache format) -------------------
    # Not a Record: every cache put and hit runs this, 1.4/3.1 us to encode/
    # decode 130 counters vs Record's 280/70 us (Xeon, CPython 3).

    def to_dict(self) -> Dict:
        """A JSON-serialisable snapshot; :meth:`from_dict` inverts it.

        The round trip is exact (``from_dict(to_dict(r)) == r``): the
        result cache and the multiprocessing boundary both rely on cached/
        shipped results being indistinguishable from freshly computed ones.
        """
        return {
            "config_name": self.config_name,
            "workload_name": self.workload_name,
            "n_cpus": self.n_cpus,
            "scale_name": self.scale_name,
            "total_ps": self.total_ps,
            "phase_spans_ps": {name: list(span)
                               for name, span in self.phase_spans_ps.items()},
            "instructions": self.instructions,
            "stats": dict(self.stats),
            "breakdown": (None if self.breakdown is None
                          else self.breakdown.to_dict()),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunResult":
        from repro.obs.profile import RunBreakdown

        breakdown = data.get("breakdown")
        return cls(
            config_name=data["config_name"],
            workload_name=data["workload_name"],
            n_cpus=data["n_cpus"],
            scale_name=data["scale_name"],
            total_ps=data["total_ps"],
            phase_spans_ps={name: (span[0], span[1])
                            for name, span in data["phase_spans_ps"].items()},
            instructions=data["instructions"],
            stats=dict(data["stats"]),
            breakdown=(None if breakdown is None
                       else RunBreakdown.from_dict(breakdown)),
        )


def merge_phase_marks(
    per_cpu_marks: List[List[Tuple[str, bool, int]]],
) -> Dict[str, Tuple[int, int]]:
    """Combine per-CPU phase marks into global (begin, end) spans.

    The span of a phase opens at the earliest begin mark and closes at the
    latest end mark across CPUs, matching how the paper times the parallel
    section of each application.
    """
    spans: Dict[str, List[Optional[int]]] = {}
    for marks in per_cpu_marks:
        for name, begin, ps in marks:
            span = spans.setdefault(name, [None, None])
            if begin:
                span[0] = ps if span[0] is None else min(span[0], ps)
            else:
                span[1] = ps if span[1] is None else max(span[1], ps)
    out: Dict[str, Tuple[int, int]] = {}
    for name, (begin, end) in spans.items():
        if begin is None or end is None:
            raise SimulationError(f"phase {name!r} missing begin or end mark")
        out[name] = (begin, end)
    return out
