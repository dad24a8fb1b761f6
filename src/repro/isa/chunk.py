"""Chunk: the static template of a workload inner loop.

A :class:`Chunk` is one iteration of an inner loop -- opcode classes plus
register dependences -- *without* addresses.  Workloads execute a chunk many
times, supplying a fresh virtual address for every memory slot of every
repetition (:class:`~repro.isa.trace.ChunkExec`).  Splitting template from
addresses lets the expensive dependence analysis and dataflow scheduling run
once per chunk instead of once per instruction, which is what makes a pure
Python reproduction feasible.

Derived metadata computed here drives the processor models:

* ``mem_index`` / ``mem_kind`` -- which instructions touch memory;
* ``pointer_chase`` -- memory ops whose address register was produced by
  the previous load (the ``p = *p`` pattern of the snbench/lmbench
  dependent-load microbenchmark, Section 3.1.2);
* ``interlock_pairs`` -- store->load pairs close enough to trigger the
  R10000's address interlocks (the "implementation constraint" MXS lacks,
  Section 3.1.3);
* ``op_counts`` -- instruction mix, used by Mipsy's instruction-latency
  ablation (adding 5-cycle multiplies / 19-cycle divides).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import WorkloadError
from repro.isa.opcodes import MEMORY_OPS, NO_REG, N_REGS, Op

#: Window (in instructions) within which a store followed by a load can
#: trigger an R10000 address interlock in our model.
INTERLOCK_WINDOW = 8

_uid_counter = itertools.count()


@dataclass(frozen=True)
class BranchProfile:
    """How the branches of a chunk behave, for mispredict accounting.

    ``kind``:

    * ``"loop"`` -- branches close the loop; one mispredict when a run of
      repetitions ends (amortised over ``reps``).
    * ``"data"`` -- branch outcomes look random with taken-probability
      ``param``; a two-bit counter mispredicts at roughly ``2*p*(1-p)``.
    * ``"none"`` -- perfectly predictable.
    """

    kind: str = "loop"
    param: float = 0.5

    def mispredicts_per_branch(self) -> float:
        """Expected mispredict rate per dynamic branch (excluding exits)."""
        if self.kind == "none" or self.kind == "loop":
            return 0.0
        if self.kind == "data":
            p = self.param
            return 2.0 * p * (1.0 - p)
        raise WorkloadError(f"unknown branch profile kind {self.kind!r}")


class Chunk:
    """Immutable template of one inner-loop iteration.

    Parameters
    ----------
    name:
        Debugging label, e.g. ``"fft/transpose"``.
    ops, dst, src1, src2:
        Parallel arrays describing the instructions.  ``dst``/``src1``/
        ``src2`` are register ids in ``[0, 64)`` or ``NO_REG``.  For memory
        ops, ``src1`` is the address register by convention.
    branch_profile:
        Behaviour of the chunk's branches (see :class:`BranchProfile`).
    code_bytes:
        Instruction-footprint override; defaults to 4 bytes/instruction.
    """

    __slots__ = (
        "uid", "name", "ops", "dst", "src1", "src2", "n_instr",
        "mem_index", "mem_kind", "n_mem", "pointer_chase", "interlock_pairs",
        "op_counts", "n_branches", "branch_profile", "code_bytes",
        "_sched_cache",
    )

    def __init__(
        self,
        name: str,
        ops: Sequence[int],
        dst: Sequence[int],
        src1: Sequence[int],
        src2: Sequence[int],
        branch_profile: Optional[BranchProfile] = None,
        code_bytes: Optional[int] = None,
    ):
        self.uid = next(_uid_counter)
        self.name = name
        self.ops = np.asarray(ops, dtype=np.uint8)
        self.dst = np.asarray(dst, dtype=np.int16)
        self.src1 = np.asarray(src1, dtype=np.int16)
        self.src2 = np.asarray(src2, dtype=np.int16)
        self.n_instr = int(len(self.ops))
        if not (len(self.dst) == len(self.src1) == len(self.src2) == self.n_instr):
            raise WorkloadError(f"chunk {name}: register arrays disagree in length")
        if self.n_instr == 0:
            raise WorkloadError(f"chunk {name}: empty")
        for regs in (self.dst, self.src1, self.src2):
            bad = (regs != NO_REG) & ((regs < 0) | (regs >= N_REGS))
            if bad.any():
                raise WorkloadError(f"chunk {name}: register id out of range")

        mem_mask = np.isin(self.ops, [int(op) for op in MEMORY_OPS])
        self.mem_index = np.nonzero(mem_mask)[0]
        self.mem_kind = self.ops[self.mem_index]
        self.n_mem = int(len(self.mem_index))

        self.pointer_chase = self._find_pointer_chases()
        self.interlock_pairs = self._count_interlock_pairs()
        counts: Dict[int, int] = {}
        values, freq = np.unique(self.ops, return_counts=True)
        for value, n in zip(values, freq):
            counts[int(value)] = int(n)
        self.op_counts = counts
        self.n_branches = counts.get(int(Op.BRANCH), 0)
        self.branch_profile = branch_profile or BranchProfile("loop")
        self.code_bytes = code_bytes if code_bytes is not None else 4 * self.n_instr
        self._sched_cache: Dict[Tuple, object] = {}

    # -- dependence analysis ------------------------------------------------

    def _find_pointer_chases(self) -> np.ndarray:
        """Mark memory ops whose address register comes from a load.

        The scan wraps around one iteration so the canonical dependent-load
        chunk (a single ``LOAD r1 <- [r1]``) is detected: across repetitions
        each load's address is the previous load's result.
        """
        chase = np.zeros(self.n_mem, dtype=bool)
        load_code = int(Op.LOAD)
        ops, dst, src1 = self.ops.tolist(), self.dst.tolist(), self.src1.tolist()
        # last_writer[r] = op class of the most recent instruction writing r
        # (wraparound: prime with one full pass first).
        last_writer = [-1] * N_REGS
        for _pass in range(2):
            mem_slot = 0
            for op, d, addr_reg in zip(ops, dst, src1):
                if op in _MEM_CODES:
                    if _pass == 1 and addr_reg != NO_REG:
                        if last_writer[addr_reg] == load_code:
                            chase[mem_slot] = True
                    mem_slot += 1
                if d != NO_REG:
                    last_writer[d] = op
        return chase

    def _count_interlock_pairs(self) -> int:
        """Static store->load pairs within the interlock window."""
        pairs = 0
        store_code, load_code = int(Op.STORE), int(Op.LOAD)
        positions = self.mem_index.tolist()
        kinds = self.mem_kind.tolist()
        for a in range(len(positions)):
            if kinds[a] != store_code:
                continue
            for b in range(a + 1, len(positions)):
                if positions[b] - positions[a] > INTERLOCK_WINDOW:
                    break
                if kinds[b] == load_code:
                    pairs += 1
        return pairs

    # -- misc ----------------------------------------------------------------

    def count(self, op: Op) -> int:
        """Dynamic count of *op* per execution of this chunk."""
        return self.op_counts.get(int(op), 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Chunk({self.name!r}, {self.n_instr} instr, {self.n_mem} mem, "
            f"{self.n_branches} br)"
        )


_MEM_CODES = frozenset(int(op) for op in MEMORY_OPS)
