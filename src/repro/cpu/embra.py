"""Embra: the binary-translation positioning model.

"The fastest processor simulator is Embra ... Unfortunately, Embra does
not model either the processor or the memory system in enough detail to
draw any useful conclusions.  It is indispensable, however, since it
allows us to boot the operating system and position our workloads."
(Section 2.2.)

Accordingly, Embra here charges a fixed CPI and touches no caches; it
exists so positioning runs have a faithful stand-in, and as the
degenerate point of the accuracy spectrum in the validation experiments.
"""

from __future__ import annotations

from repro.cpu.core import CpuCore
from repro.isa.trace import ChunkExec


class EmbraCore(CpuCore):
    """Fixed-CPI functional model; no memory system interaction."""

    model_name = "embra"

    def _exec_chunk(self, ce: ChunkExec):
        self.cycles += ce.n_instructions * self.params.embra_cpi
        self.stats.add("instructions", ce.n_instructions)
        return
        yield  # pragma: no cover -- keeps this a generator

    def _drain_writes(self):
        return
        yield  # pragma: no cover
