"""Radix-Sort: the SPLASH-2 integer sort (Table 2: 2M keys, radix 256).

Two counting-sort passes over 4-byte keys.  Per pass, each processor:

1. **histogram** -- reads its contiguous key slice (integer multiply /
   divide heavy: the instruction mix behind Mipsy's Section 3.1.3
   underprediction) and counts digits into a per-CPU rank array;
2. **prefix** -- combines all processors' rank arrays into global bucket
   offsets (barrier-separated);
3. **permute** -- re-reads its slice and scatters each key to its sorted
   position in the destination array, bumping a per-CPU bucket pointer.

Scale mapping of the paper's parameters (documented in DESIGN.md):

* radix 256 (pathological) -> four times the TLB entries: the permute's
  open bucket streams exceed TLB reach, a TLB miss per store;
* radix 32 (the paper's fix) -> half the TLB entries: streams resident.

**Layout, deliberately mirroring the original allocation habits:** the two
key arrays sit at strongly aligned (virtually congruent) bases and the
per-CPU bucket-pointer pages follow them.  Under IRIX virtual-address
coloring this recreates the physically-indexed L2 conflicts the paper
found on the hardware ("cache conflicts that are present on the hardware
and in SimOS are absent in Solo", Section 3.2.2); Solo's sequential
first-touch allocation happens to decorrelate the same structures.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.common.config import MachineScale, REPRO_SCALE
from repro.common.errors import WorkloadError
from repro.common.rng import derive_rng
from repro.isa.chunk import BranchProfile
from repro.isa.trace import Barrier, ChunkExec, PhaseMark, Trace
from repro.vm.layout import VirtualLayout
from repro.workloads.base import Workload
from repro.workloads.builder import ChunkBuilder

KEY_BYTES = 4
KEYS_PER_REP = 8
PASSES = 2


def pathological_radix(scale: MachineScale) -> int:
    """Scale analogue of the paper's radix 256 (TLB-thrashing streams)."""
    return scale.tlb.entries * 4


def tuned_radix(scale: MachineScale) -> int:
    """Scale analogue of the paper's radix-32 fix."""
    return max(2, scale.tlb.entries // 2)


class RadixWorkload(Workload):
    """Parallel radix sort with a selectable radix."""

    name = "radix"

    def __init__(self, scale: MachineScale = REPRO_SCALE,
                 n_keys: int = 0, radix: int = 0, seed: int = 1):
        super().__init__(scale)
        self.radix = radix or pathological_radix(scale)
        if self.radix & (self.radix - 1):
            raise WorkloadError("radix must be a power of two")
        # Twice the secondary cache of keys: streaming regime, like the
        # paper's 8 MB of keys against a 2 MB L2.
        self.n_keys = n_keys or 2 * scale.l2.size_bytes // KEY_BYTES
        if self.n_keys % KEYS_PER_REP:
            raise WorkloadError("n_keys must be divisible by the rep width")
        self.seed = seed
        self.name = f"radix-{self.radix}"
        self._layout()
        self._generate_keys()

    def problem_description(self) -> str:
        return f"{self.n_keys} keys, radix {self.radix}, {PASSES} passes"

    # -- layout -------------------------------------------------------------

    def _layout(self):
        layout = VirtualLayout(self.page)
        key_bytes = self.n_keys * KEY_BYTES
        align = 1 << 20  # strongly aligned, virtually congruent key arrays
        self.key_regions = (
            layout.add("key0", key_bytes, align=align),
            layout.add("key1", key_bytes, align=align),
        )
        # Per-CPU rank arrays (one page each) and bucket-pointer pages (two
        # pages each).  The pointer region is aligned to the key arrays'
        # color phase: under IRIX virtual-address coloring, each CPU's hot
        # bucket-pointer page then shares a physical color with its own
        # open write streams -- a congruence that barely matters while the
        # per-CPU bucket segments span many pages (small P) but pins the
        # conflict in place as the segments shrink (large P).  This is the
        # allocation accident behind the hardware's poor Radix speedup
        # that Solo's sequential allocator happens to dodge (Section 3.2.2).
        color_period = max(1, self.scale.l2_colors)
        self.rank_region = layout.add(
            "ranks", 32 * self.page, align=color_period * self.page)
        self.ptr_region = layout.add(
            "bucket_ptrs", 32 * self.page, align=color_period * self.page)
        self.tree_region = layout.add("tree", 4 * self.page, gap_pages=1)

    def _rank_base(self, cpu: int) -> int:
        return self.rank_region.base + cpu * 2 * self.page

    def _ptr_base(self, cpu: int) -> int:
        return self.ptr_region.base + cpu * 2 * self.page

    def _generate_keys(self):
        bits = 2 * (self.radix.bit_length() - 1)
        rng = derive_rng("radix", self.n_keys, self.radix, self.seed)
        keys = rng.integers(0, 1 << bits, self.n_keys, dtype=np.int64)
        mask = self.radix - 1
        shift = self.radix.bit_length() - 1
        # Pass 1 sorts by the low digit of the original order; pass 2 by
        # the high digit of the pass-1 output (a stable counting sort).
        d0 = keys & mask
        order1 = np.argsort(d0, kind="stable")
        pos1 = np.empty(self.n_keys, dtype=np.int64)
        pos1[order1] = np.arange(self.n_keys)
        keys1 = keys[order1]
        d1 = (keys1 >> shift) & mask
        order2 = np.argsort(d1, kind="stable")
        pos2 = np.empty(self.n_keys, dtype=np.int64)
        pos2[order2] = np.arange(self.n_keys)
        #: destination index of each input-slot key, per pass
        self.positions = (pos1, pos2)
        self.digits = (d0, d1)

    # -- chunks ------------------------------------------------------------

    def _hist_chunk(self):
        """Eight keys: sequential loads, digit math, rank update."""
        b = ChunkBuilder("radix/hist", BranchProfile("loop"))
        b.prefetch()
        for i in range(KEYS_PER_REP):
            key = 1 + (i % 8)
            b.load(key)
            b.imul(9, key)       # digit extraction (mul by reciprocal)
            b.ialu(10, 9)
            b.load(11)           # rank[digit]
            b.ialu(11, 11)
            b.store(value_reg=11)
        b.idiv(12, 12)           # per-rep divide (bucket scaling)
        b.ialu(31, 31)
        b.branch(31)
        return b.build()

    def _permute_chunk(self):
        """Four keys: load, pointer bump, scattered store."""
        b = ChunkBuilder("radix/permute", BranchProfile("loop"))
        b.prefetch()
        for i in range(4):
            key = 1 + (i % 8)
            b.load(key)
            b.imul(9, key)
            b.ialu(10, 9)
            b.load(12)           # local rank (offset within the bucket)
            b.load(11)           # bucket pointer
            b.ialu(11, 11, 12)
            b.store(value_reg=11)  # pointer writeback
            b.store(value_reg=key)  # key -> destination slot
        b.ialu(31, 31)
        b.branch(31)
        return b.build()

    def _prefix_chunk(self, n_cpus: int):
        """Read every CPU's rank array; write the global tree."""
        b = ChunkBuilder(f"radix/prefix{n_cpus}", BranchProfile("loop"))
        for i in range(8):
            b.load(1 + (i % 8))
            b.ialu(9, 1 + (i % 8))
        b.store(value_reg=9)
        b.branch(9)
        return b.build()

    def _touch_chunk(self):
        b = ChunkBuilder("radix/touch")
        b.store(value_reg=1)
        return b.build()

    # -- address generation -------------------------------------------------

    def _hist_addrs(self, cpu: int, n_cpus: int, pass_no: int,
                    digit: np.ndarray) -> np.ndarray:
        """*digit*: each key slot's digit in the pass's read order."""
        src = self.key_regions[pass_no % 2].base
        sl = self.split_even(self.n_keys, n_cpus, cpu)
        idx = np.arange(sl.start, sl.stop, dtype=np.int64)
        key_addr = src + idx * KEY_BYTES
        rank_addr = self._rank_base(cpu) + digit[sl.start:sl.stop] * KEY_BYTES
        reps = len(idx) // KEYS_PER_REP
        rows = np.empty((reps, 1 + 3 * KEYS_PER_REP), dtype=np.int64)
        ka = key_addr.reshape(reps, KEYS_PER_REP)
        ra = rank_addr.reshape(reps, KEYS_PER_REP)
        rows[:, 0] = ka[:, -1] + KEYS_PER_REP * KEY_BYTES  # prefetch ahead
        rows[:, 1::3] = ka
        rows[:, 2::3] = ra
        rows[:, 3::3] = ra
        return rows

    def _permute_addrs(self, cpu: int, n_cpus: int, pass_no: int,
                       pos: np.ndarray, digit: np.ndarray) -> np.ndarray:
        """*pos*, *digit*: each key slot's destination and digit in the
        pass's read order."""
        src = self.key_regions[pass_no % 2].base
        dst = self.key_regions[(pass_no + 1) % 2].base
        sl = self.split_even(self.n_keys, n_cpus, cpu)
        idx = np.arange(sl.start, sl.stop, dtype=np.int64)
        key_addr = src + idx * KEY_BYTES
        dst_addr = dst + pos[sl.start:sl.stop] * KEY_BYTES
        ptr_addr = self._ptr_base(cpu) + digit[sl.start:sl.stop] * 8
        rank_addr = self._rank_base(cpu) + digit[sl.start:sl.stop] * KEY_BYTES
        reps = len(idx) // 4
        rows = np.empty((reps, 1 + 5 * 4), dtype=np.int64)
        ka = key_addr.reshape(reps, 4)
        pa = ptr_addr.reshape(reps, 4)
        ra = rank_addr.reshape(reps, 4)
        da = dst_addr.reshape(reps, 4)
        rows[:, 0] = ka[:, -1] + 4 * KEY_BYTES
        rows[:, 1::5] = ka
        rows[:, 2::5] = ra
        rows[:, 3::5] = pa
        rows[:, 4::5] = pa
        rows[:, 5::5] = da
        return rows

    def _prefix_addrs(self, cpu: int, n_cpus: int) -> np.ndarray:
        """Each CPU scans every CPU's rank page + writes tree entries."""
        reps = max(1, (n_cpus * self.radix) // 8)
        rank_pages = np.array(
            [self._rank_base(p) for p in range(n_cpus)], dtype=np.int64
        )
        rows = np.empty((reps, 9), dtype=np.int64)
        for r in range(reps):
            base = rank_pages[r % n_cpus]
            rows[r, :8] = base + (np.arange(8) * KEY_BYTES)
            rows[r, 8] = self.tree_region.base + (r % 64) * 8
        return rows

    # -- trace construction ----------------------------------------------------

    def build(self, n_cpus: int) -> List[Trace]:
        if self.n_keys % (n_cpus * KEYS_PER_REP):
            raise WorkloadError("keys not divisible across CPUs")
        hist = self._hist_chunk()
        permute = self._permute_chunk()
        prefix = self._prefix_chunk(n_cpus)
        touch = self._touch_chunk()
        traces: List[List] = [[] for _ in range(n_cpus)]
        bid = [0]

        def next_bid() -> int:
            bid[0] += 1
            return bid[0]

        for cpu in range(n_cpus):
            trace = traces[cpu]
            sl = self.split_even(self.n_keys, n_cpus, cpu)
            # Init: first-touch both key arrays' slices (data placement),
            # own rank + pointer pages.
            pages = []
            for region in self.key_regions:
                lo = region.base + sl.start * KEY_BYTES
                hi = region.base + sl.stop * KEY_BYTES
                pages.append(np.arange(lo, hi, self.page, dtype=np.int64))
            pages.append(np.array([self._rank_base(cpu)], dtype=np.int64))
            pages.append(np.array([self._ptr_base(cpu)], dtype=np.int64))
            if cpu == 0:
                pages.append(self.tree_region.base + np.arange(
                    0, self.tree_region.size, self.page, dtype=np.int64))
            trace.append(ChunkExec(
                touch, np.concatenate(pages).reshape(-1, 1)))
        b0 = next_bid()
        for trace in traces:
            trace.append(Barrier(b0))
            trace.append(PhaseMark(PhaseMark.PARALLEL, begin=True))
        # Each pass reads its source array in slot order, and both tables
        # are indexed by that slot: pass 2's by pass-1 output slot.
        for pass_no, (pos, digit) in enumerate(zip(self.positions,
                                                    self.digits)):
            for cpu in range(n_cpus):
                traces[cpu].append(ChunkExec(
                    hist, self._hist_addrs(cpu, n_cpus, pass_no, digit)))
            b = next_bid()
            for cpu in range(n_cpus):
                traces[cpu].append(Barrier(b))
                traces[cpu].append(ChunkExec(
                    prefix, self._prefix_addrs(cpu, n_cpus)))
            b = next_bid()
            for cpu in range(n_cpus):
                traces[cpu].append(Barrier(b))
                traces[cpu].append(ChunkExec(
                    permute,
                    self._permute_addrs(cpu, n_cpus, pass_no, pos, digit)))
            b = next_bid()
            for cpu in range(n_cpus):
                traces[cpu].append(Barrier(b))
        for trace in traces:
            trace.append(PhaseMark(PhaseMark.PARALLEL, begin=False))
        return traces
