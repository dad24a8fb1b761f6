"""ChunkBuilder: a tiny assembler for chunk templates.

Workload kernels describe one inner-loop iteration with the builder and get
back an immutable :class:`~repro.isa.chunk.Chunk`.  Register conventions:

* memory ops put the address register in ``src1``;
* ``STORE`` carries the stored value in ``src2``;
* ``LOAD`` defines ``dst``.

The builder also offers mix helpers (``compute_chain``, ``compute_parallel``)
so kernels can express "this much arithmetic with this much ILP" without
hand-writing every instruction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common.errors import WorkloadError
from repro.isa.chunk import BranchProfile, Chunk
from repro.isa.opcodes import MEMORY_OPS, NO_REG, N_REGS, Op


class ChunkBuilder:
    """Accumulates instructions; ``build()`` produces the Chunk."""

    def __init__(self, name: str, branch_profile: Optional[BranchProfile] = None):
        self.name = name
        self.branch_profile = branch_profile
        self._ops: List[int] = []
        self._dst: List[int] = []
        self._src1: List[int] = []
        self._src2: List[int] = []

    # -- low level -----------------------------------------------------------

    def emit(self, op: Op, dst: int = NO_REG, src1: int = NO_REG,
             src2: int = NO_REG) -> int:
        """Append one instruction; returns its index."""
        for reg in (dst, src1, src2):
            if reg != NO_REG and not 0 <= reg < N_REGS:
                raise WorkloadError(f"{self.name}: register {reg} out of range")
        self._ops.append(int(op))
        self._dst.append(dst)
        self._src1.append(src1)
        self._src2.append(src2)
        return len(self._ops) - 1

    # -- single instructions ---------------------------------------------------

    def ialu(self, dst: int, src1: int = NO_REG, src2: int = NO_REG) -> int:
        return self.emit(Op.IALU, dst, src1, src2)

    def imul(self, dst: int, src1: int, src2: int = NO_REG) -> int:
        return self.emit(Op.IMUL, dst, src1, src2)

    def idiv(self, dst: int, src1: int, src2: int = NO_REG) -> int:
        return self.emit(Op.IDIV, dst, src1, src2)

    def fadd(self, dst: int, src1: int = NO_REG, src2: int = NO_REG) -> int:
        return self.emit(Op.FADD, dst, src1, src2)

    def fmul(self, dst: int, src1: int = NO_REG, src2: int = NO_REG) -> int:
        return self.emit(Op.FMUL, dst, src1, src2)

    def fdiv(self, dst: int, src1: int, src2: int = NO_REG) -> int:
        return self.emit(Op.FDIV, dst, src1, src2)

    def load(self, dst: int, addr_reg: int = NO_REG) -> int:
        """Emit a load; its address comes from the ChunkExec address rows."""
        return self.emit(Op.LOAD, dst, addr_reg)

    def store(self, addr_reg: int = NO_REG, value_reg: int = NO_REG) -> int:
        return self.emit(Op.STORE, NO_REG, addr_reg, value_reg)

    def prefetch(self) -> int:
        return self.emit(Op.PREFETCH)

    def branch(self, src1: int = NO_REG) -> int:
        return self.emit(Op.BRANCH, NO_REG, src1)

    def cacheop(self) -> int:
        return self.emit(Op.CACHEOP)

    # -- mix helpers -----------------------------------------------------------

    def compute_chain(self, ops: Sequence[Op], reg: int) -> None:
        """A serial dependence chain: each op consumes the previous result."""
        for op in ops:
            self.emit(op, dst=reg, src1=reg)

    def compute_parallel(self, ops: Sequence[Op], regs: Sequence[int]) -> None:
        """Independent ops spread round-robin over *regs* (high ILP)."""
        if not regs:
            raise WorkloadError(f"{self.name}: compute_parallel needs registers")
        for i, op in enumerate(ops):
            reg = regs[i % len(regs)]
            self.emit(op, dst=reg, src1=reg)

    # -- finish ------------------------------------------------------------------

    @property
    def n_mem(self) -> int:
        mem_codes = {int(op) for op in MEMORY_OPS}
        return sum(1 for op in self._ops if op in mem_codes)

    def build(self, code_bytes: Optional[int] = None) -> Chunk:
        return Chunk(
            self.name,
            self._ops,
            self._dst,
            self._src1,
            self._src2,
            branch_profile=self.branch_profile,
            code_bytes=code_bytes,
        )
