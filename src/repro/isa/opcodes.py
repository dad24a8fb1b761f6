"""Abstract RISC opcode classes and the R10000 latency table.

The reproduction does not interpret real MIPS binaries (they, and the
toolchain that built them, are gone with the hardware).  Instead workloads
emit streams of *opcode classes* -- enough structure for the paper's
phenomena: dependence chains for the out-of-order models, high-latency
integer multiply/divide for Radix-Sort, high-latency floating point for
Ocean, loads/stores with virtual addresses for the memory system, and the
special CACHE / coprocessor instructions behind two of the performance-bug
stories in Section 3.1.2.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict


class Op(IntEnum):
    """Instruction classes.  Values are stable (chunks store uint8 codes)."""

    IALU = 0      #: integer add/sub/logic/shift
    IMUL = 1      #: integer multiply (5 cycles on R10000)
    IDIV = 2      #: integer divide (19 cycles on R10000)
    FADD = 3      #: floating add/sub/compare
    FMUL = 4      #: floating multiply
    FDIV = 5      #: floating divide / sqrt
    LOAD = 6      #: memory load (address supplied per execution)
    STORE = 7     #: memory store
    PREFETCH = 8  #: non-binding prefetch (hand-inserted, per the paper)
    BRANCH = 9    #: conditional branch
    NOP = 10      #: filler
    # 11 is unassigned: chunks store uint8 codes, so values stay stable.
    CACHEOP = 12  #: MIPS CACHE instruction (subject of an MXS bug)
    COPROC = 13   #: coprocessor-0 move (pipeline-flushing; TLB handler)


#: Ops that reference memory and therefore consume an address slot in a
#: chunk execution.
MEMORY_OPS = frozenset({Op.LOAD, Op.STORE, Op.PREFETCH, Op.CACHEOP})

#: Ops whose latency the Mipsy model ignores (it executes everything in one
#: cycle in the absence of memory stalls -- Section 2.2).
COMPUTE_OPS = frozenset(
    {Op.IALU, Op.IMUL, Op.IDIV, Op.FADD, Op.FMUL, Op.FDIV, Op.NOP, Op.COPROC}
)

#: Result latency in processor cycles on the MIPS R10000.  The integer
#: multiply/divide values (5 and 19) are quoted directly in Section 3.1.3
#: of the paper; the rest follow Yeager's R10000 description.
R10K_LATENCY: Dict[Op, int] = {
    Op.IALU: 1,
    Op.IMUL: 5,
    Op.IDIV: 19,
    Op.FADD: 2,
    Op.FMUL: 2,
    Op.FDIV: 19,
    Op.LOAD: 2,      # load-to-use on a primary-cache hit
    Op.STORE: 1,
    Op.PREFETCH: 1,
    Op.BRANCH: 1,
    Op.NOP: 1,
    Op.CACHEOP: 1,
    Op.COPROC: 3,    # coprocessor moves serialize parts of the pipeline
}

#: Latency table for a model that ignores functional-unit latency entirely
#: (Mipsy): every instruction takes one cycle.
UNIT_LATENCY: Dict[Op, int] = {op: 1 for op in Op}
UNIT_LATENCY[Op.LOAD] = 1

#: Functional-unit classes for issue-bandwidth constraints.  The R10000 has
#: two integer units, two floating units (adder + mul/div), and one
#: load/store unit; MXS "has the same type and number of functional units
#: as the R10000" (Section 2.2).
FUNIT_OF: Dict[Op, str] = {
    Op.IALU: "int",
    Op.IMUL: "int",
    Op.IDIV: "int",
    Op.FADD: "fp",
    Op.FMUL: "fp",
    Op.FDIV: "fp",
    Op.LOAD: "ls",
    Op.STORE: "ls",
    Op.PREFETCH: "ls",
    Op.BRANCH: "int",
    Op.NOP: "int",
    Op.CACHEOP: "ls",
    Op.COPROC: "int",
}

#: Units available per cycle on an R10000-like 4-issue machine.
FUNIT_COUNT: Dict[str, int] = {"int": 2, "fp": 2, "ls": 1}

#: Number of architectural registers chunks may reference (32 integer +
#: 32 floating).  Register -1 means "no register".
N_REGS = 64

NO_REG = -1
