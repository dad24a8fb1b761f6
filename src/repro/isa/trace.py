"""Trace items: what a workload feeds each simulated processor.

A workload produces, per CPU, an iterable of trace items:

* :class:`ChunkExec` -- execute a chunk template ``reps`` times with the
  given virtual addresses (one row of addresses per repetition);
* :class:`Barrier` -- synchronisation, resolved by the machine's sync
  domain;
* :class:`PhaseMark` -- named timing markers; the harness reports the
  duration of the ``"parallel"`` phase, matching the paper's methodology of
  timing the parallel section of each application.

That is the whole vocabulary: it is what the workloads issue.

Traces are ordinary generators so multi-million-instruction runs never
materialise in memory.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from repro.common.errors import WorkloadError
from repro.isa.chunk import Chunk


class ChunkExec:
    """Execute ``chunk`` ``reps`` times using rows of ``addrs``."""

    __slots__ = ("chunk", "addrs", "reps")

    def __init__(self, chunk: Chunk, addrs=None, reps: int = None):
        self.chunk = chunk
        if addrs is None:
            if chunk.n_mem != 0:
                raise WorkloadError(
                    f"chunk {chunk.name}: has {chunk.n_mem} memory slots but "
                    "no addresses supplied"
                )
            if reps is None:
                raise WorkloadError("reps required when chunk has no memory ops")
            self.addrs = None
            self.reps = int(reps)
            return
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.ndim == 1:
            addrs = addrs.reshape(1, -1)
        if addrs.ndim != 2 or addrs.shape[1] != chunk.n_mem:
            raise WorkloadError(
                f"chunk {chunk.name}: expected addresses shaped (reps, "
                f"{chunk.n_mem}), got {addrs.shape}"
            )
        if reps is not None and reps != addrs.shape[0]:
            raise WorkloadError("reps disagrees with address rows")
        self.addrs = addrs
        self.reps = int(addrs.shape[0])

    @property
    def n_instructions(self) -> int:
        """Dynamic instruction count of this item."""
        return self.chunk.n_instr * self.reps

    def __repr__(self) -> str:  # pragma: no cover
        return f"ChunkExec({self.chunk.name}, reps={self.reps})"


class Barrier:
    """Global barrier; all CPUs of the run must arrive before any leaves."""

    __slots__ = ("bid",)

    def __init__(self, bid: int):
        self.bid = int(bid)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Barrier({self.bid})"


class PhaseMark:
    """Named timing marker.  ``begin=True`` opens the phase."""

    __slots__ = ("name", "begin")

    PARALLEL = "parallel"

    def __init__(self, name: str, begin: bool):
        self.name = name
        self.begin = bool(begin)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PhaseMark({self.name}, {'begin' if self.begin else 'end'})"


TraceItem = Union[ChunkExec, Barrier, PhaseMark]
Trace = Iterable[TraceItem]
