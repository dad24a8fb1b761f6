"""Abstract RISC ISA: opcode classes, chunk templates, traces, scheduling."""

from repro.isa.chunk import BranchProfile, Chunk, INTERLOCK_WINDOW
from repro.isa.opcodes import (
    COMPUTE_OPS,
    MEMORY_OPS,
    NO_REG,
    N_REGS,
    R10K_LATENCY,
    UNIT_LATENCY,
    Op,
)
from repro.isa.schedule import ChunkSchedule, CoreTiming, schedule_chunk, schedule_inorder
from repro.isa.trace import (
    Barrier,
    ChunkExec,
    PhaseMark,
    Trace,
    TraceItem,
)

__all__ = [
    "BranchProfile",
    "Chunk",
    "INTERLOCK_WINDOW",
    "COMPUTE_OPS",
    "MEMORY_OPS",
    "NO_REG",
    "N_REGS",
    "R10K_LATENCY",
    "UNIT_LATENCY",
    "Op",
    "ChunkSchedule",
    "CoreTiming",
    "schedule_chunk",
    "schedule_inorder",
    "Barrier",
    "ChunkExec",
    "PhaseMark",
    "Trace",
    "TraceItem",
]
