"""FFT: the SPLASH-2 six-step radix-sqrt(n) kernel (Table 2: 1M points).

The n-point data set is a sqrt(n) x sqrt(n) matrix of 16-byte complex
doubles.  The algorithm alternates transposes with rows of 1-D FFTs:

    transpose -> row FFTs -> transpose -> row FFTs -> transpose

Each processor owns a contiguous band of rows; transposes read column
patches from every other processor's band (the all-to-all communication
that drives the Figure 5 speedup study), and hand-inserted prefetches hide
read latency as in the original binaries.

**The TLB blocking story (Section 3.1.2).**  The transpose walks the
destination with a row stride of several pages.  Blocked for the primary
cache (``blocking="cache"``), a block column touches more pages than the
TLB holds, so -- LRU cliff -- *every* store takes a TLB miss, exactly the
behaviour the paper reports for the original SPLASH-2 blocking at 1M
points.  Blocked for the TLB (``blocking="tlb"``), the strided side's
pages stay resident and misses drop to one per page per strip.  The
problem sizes are scale-relative so the same regimes hold at every
:class:`~repro.common.config.MachineScale`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.common.config import MachineScale, REPRO_SCALE
from repro.common.errors import WorkloadError
from repro.isa.chunk import BranchProfile
from repro.isa.opcodes import Op
from repro.isa.trace import Barrier, ChunkExec, PhaseMark, Trace
from repro.vm.layout import VirtualLayout
from repro.workloads.base import Workload
from repro.workloads.builder import ChunkBuilder

COMPLEX_BYTES = 16
#: Points handled per chunk repetition (one secondary-cache line).
POINTS_PER_REP = 8


def default_rows(scale: MachineScale) -> int:
    """sqrt(n) such that one matrix row spans four pages (the paper-regime
    ratio: a 1M-point FFT row is 16 KiB = four 4 KiB pages)."""
    return 4 * scale.tlb.page_bytes // COMPLEX_BYTES


class FftWorkload(Workload):
    """Six-step FFT with selectable transpose blocking."""

    name = "fft"

    def __init__(self, scale: MachineScale = REPRO_SCALE,
                 rows: int = 0, blocking: str = "cache",
                 compute_scale: float = 1.0):
        super().__init__(scale)
        if blocking not in ("cache", "tlb"):
            raise WorkloadError(f"blocking must be 'cache' or 'tlb', not {blocking!r}")
        self.blocking = blocking
        self.compute_scale = compute_scale
        self.rows = rows or default_rows(scale)
        if self.rows % POINTS_PER_REP:
            raise WorkloadError("rows must be a multiple of the rep width")
        self.points = self.rows * self.rows
        self.row_bytes = self.rows * COMPLEX_BYTES
        # Blocked for the primary cache: the block column's store pages
        # (+ the read page) exceed the TLB -- the LRU cliff makes every
        # store miss.  Blocked for the TLB: half the entries, so the
        # strided side's pages stay resident across the tile.
        if blocking == "cache":
            self.block = scale.tlb.entries
        else:
            self.block = max(2, scale.tlb.entries // 2)
        if self.rows % self.block:
            raise WorkloadError(
                f"rows {self.rows} not divisible by block {self.block}"
            )
        layout = VirtualLayout(self.page)
        matrix_bytes = self.points * COMPLEX_BYTES
        self.mat_a = layout.add("fft_a", matrix_bytes, gap_pages=1)
        self.mat_b = layout.add("fft_b", matrix_bytes, gap_pages=3)
        self.name = f"fft-{blocking}"

    def problem_description(self) -> str:
        return (
            f"{self.points} points ({self.rows}x{self.rows}), "
            f"transpose blocked for the {self.blocking}"
        )

    # -- chunks ------------------------------------------------------------

    def _row_fft_chunk(self):
        """One cache line of points through all log2(rows) butterfly stages.

        Memory: a prefetch for the next line plus one load per point (the
        row is L1-resident across stages) and a store per point writing the
        results back.  Compute: ~10 flops per point per stage with good
        ILP -- the parallelism the R10000 exploits and Mipsy cannot.
        """
        stages = max(1, self.rows.bit_length() - 1)
        rounds = max(1, round(2 * self.compute_scale))
        b = ChunkBuilder("fft/row_fft", BranchProfile("loop"))
        b.prefetch()
        for i in range(POINTS_PER_REP):
            b.load(1 + i)
        for _stage in range(stages):
            for i in range(POINTS_PER_REP):
                reg = 1 + i
                twiddle = 17 + (i % 4)
                for _round in range(rounds):
                    b.fmul(twiddle, reg, twiddle)
                    b.fadd(reg, reg, twiddle)
                    b.fmul(twiddle, reg, twiddle)
                    b.fadd(reg, reg, twiddle)
                    b.fmul(reg, reg, twiddle)
            b.ialu(30, 30)
            b.branch(30)
        for i in range(POINTS_PER_REP):
            b.store(value_reg=1 + i)
        b.ialu(31, 31)
        b.branch(31)
        return b.build()

    def _transpose_chunk(self):
        """One block column: sequential reads, row-stride writes.

        Reads walk along a source row (unit stride, prefetched); writes
        walk down a destination column (stride = one matrix row, several
        pages), which is what makes the destination TLB footprint equal to
        the block size.
        """
        b = ChunkBuilder("fft/transpose", BranchProfile("loop"))
        b.prefetch()               # read stream, one line ahead
        b.prefetch()               # exclusive prefetch of the next column
        for i in range(self.block):
            reg = 1 + (i % 16)
            b.load(reg)
            b.store(value_reg=reg)
        b.ialu(31, 31)
        b.branch(31)
        return b.build()

    def _touch_chunk(self):
        b = ChunkBuilder("fft/touch")
        b.store(value_reg=1)
        return b.build()

    # -- address generation ----------------------------------------------------

    def _band(self, n_cpus: int, cpu: int) -> range:
        return self.split_even(self.rows, n_cpus, cpu)

    def _row_fft_addrs(self, src_base: int, band: range) -> np.ndarray:
        """(reps, 1 + 2*POINTS_PER_REP) addresses for the row-FFT phase."""
        reps_per_row = self.rows // POINTS_PER_REP
        rows = np.repeat(np.arange(band.start, band.stop), reps_per_row)
        seg = np.tile(np.arange(reps_per_row), len(band))
        base = (src_base + rows.astype(np.int64) * self.row_bytes
                + seg.astype(np.int64) * POINTS_PER_REP * COMPLEX_BYTES)
        point = np.arange(POINTS_PER_REP, dtype=np.int64) * COMPLEX_BYTES
        loads = base[:, None] + point[None, :]
        prefetch = base[:, None] + POINTS_PER_REP * COMPLEX_BYTES
        return np.concatenate([prefetch, loads, loads], axis=1)

    def _transpose_addrs(self, src_base: int, dst_base: int,
                         band: range) -> np.ndarray:
        """Blocked transpose of the CPU's destination band.

        The CPU produces dst rows in *band*; element dst[r][c] = src[c][r].
        Iteration: for each block row of dst, for each block column, one
        rep handles one dst column's block (reads src row-sequential,
        writes dst column down-stride).
        """
        blk = self.block
        # Axes: (dst block, src row, i); src rows run in order, so the
        # block columns of one dst block row follow each other.
        dst = (np.arange(band.start, band.stop, blk, dtype=np.int64)[:, None]
               + np.arange(blk, dtype=np.int64)[None, :])[:, None, :]
        src_row = np.arange(self.rows, dtype=np.int64)[None, :, None]
        # reads: src[src_row][dst_block : dst_block+blk]
        read = src_base + src_row * self.row_bytes + dst * COMPLEX_BYTES
        # writes: dst[dst_block+i][src_row]
        write = dst_base + dst * self.row_bytes + src_row * COMPLEX_BYTES
        reps = np.empty(read.shape[:2] + (2 + 2 * blk,), dtype=np.int64)
        reps[..., 0] = read[..., -1] + COMPLEX_BYTES
        reps[..., 1] = write[..., -1] + COMPLEX_BYTES  # next column's lines
        reps[..., 2::2] = read
        reps[..., 3::2] = write
        return reps.reshape(-1, 2 + 2 * blk)

    # -- trace construction --------------------------------------------------------

    def build(self, n_cpus: int) -> List[Trace]:
        row_fft = self._row_fft_chunk()
        transpose = self._transpose_chunk()
        touch = self._touch_chunk()
        traces: List[List] = [[] for _ in range(n_cpus)]
        page = self.page

        for cpu in range(n_cpus):
            band = self._band(n_cpus, cpu)
            trace = traces[cpu]
            # Init: first-touch both matrices' bands (data placement).
            for region in (self.mat_a, self.mat_b):
                lo = region.base + band.start * self.row_bytes
                hi = region.base + band.stop * self.row_bytes
                pages = np.arange(lo, hi, page, dtype=np.int64)
                trace.append(ChunkExec(touch, pages.reshape(-1, 1)))
            trace.append(Barrier(1))
            trace.append(PhaseMark(PhaseMark.PARALLEL, begin=True))
            # transpose A -> B
            trace.append(ChunkExec(
                transpose,
                self._transpose_addrs(self.mat_a.base, self.mat_b.base, band)))
            trace.append(Barrier(2))
            # row FFTs on B
            trace.append(ChunkExec(
                row_fft, self._row_fft_addrs(self.mat_b.base, band)))
            trace.append(Barrier(3))
            # transpose B -> A
            trace.append(ChunkExec(
                transpose,
                self._transpose_addrs(self.mat_b.base, self.mat_a.base, band)))
            trace.append(Barrier(4))
            # row FFTs on A
            trace.append(ChunkExec(
                row_fft, self._row_fft_addrs(self.mat_a.base, band)))
            trace.append(Barrier(5))
            # final transpose A -> B
            trace.append(ChunkExec(
                transpose,
                self._transpose_addrs(self.mat_a.base, self.mat_b.base, band)))
            trace.append(Barrier(6))
            trace.append(PhaseMark(PhaseMark.PARALLEL, begin=False))
        return traces
