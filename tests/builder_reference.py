"""Trace-builder bodies as they stood before they were vectorised, kept as
test oracles.

``FftWorkload._transpose_addrs`` built one rep row at a time in a triple
Python loop; ``RadixWorkload._hist_addrs`` and ``_permute_addrs`` sorted
the pass-1 permutation again for every CPU to find pass 2's read order;
``Chunk``'s dependence scans read numpy scalars one by one.  The shipped
builders compute the same arrays with broadcasting, one inverse
permutation per ``build()`` and Python lists.
``tests/test_workloads.py`` requires every address array fft's and
radix's ``build()`` return, and every chunk's ``pointer_chase`` and
``interlock_pairs``, to equal these in dtype, shape and values.
Nothing under ``src/`` imports this module.
"""

import numpy as np

from repro.isa.chunk import _MEM_CODES, INTERLOCK_WINDOW
from repro.isa.opcodes import NO_REG, N_REGS, Op
from repro.workloads.fft import COMPLEX_BYTES
from repro.workloads.radix import KEY_BYTES, KEYS_PER_REP


def transpose_addrs(self, src_base, dst_base, band):
    """``FftWorkload._transpose_addrs`` of *self*."""
    blk = self.block
    rows = self.rows
    row_bytes = self.row_bytes
    reps = []
    for dst_block in range(band.start, band.stop, blk):
        for src_block in range(0, rows, blk):
            for c in range(blk):
                src_row = src_block + c
                # reads: src[src_row][dst_block : dst_block+blk]
                read = (src_base + src_row * row_bytes
                        + (dst_block + np.arange(blk, dtype=np.int64))
                        * COMPLEX_BYTES)
                # writes: dst[dst_block+i][src_row]
                write = (dst_base
                         + (dst_block + np.arange(blk, dtype=np.int64))
                         * row_bytes + src_row * COMPLEX_BYTES)
                row = np.empty(2 + 2 * blk, dtype=np.int64)
                row[0] = read[-1] + COMPLEX_BYTES
                row[1] = write[-1] + COMPLEX_BYTES  # next column's lines
                row[2::2] = read
                row[3::2] = write
                reps.append(row)
    return np.stack(reps)


def hist_addrs(self, cpu, n_cpus, pass_no):
    """``RadixWorkload._hist_addrs`` of *self*."""
    src = self.key_regions[pass_no % 2].base
    sl = self.split_even(self.n_keys, n_cpus, cpu)
    idx = np.arange(sl.start, sl.stop, dtype=np.int64)
    key_addr = src + idx * KEY_BYTES
    digit = self.digits[pass_no]
    if pass_no == 1:
        # Pass 2 reads the pass-1 output in its sorted order.
        digit = digit[np.argsort(self.positions[0], kind="stable")]
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


def permute_addrs(self, cpu, n_cpus, pass_no):
    """``RadixWorkload._permute_addrs`` of *self*."""
    src = self.key_regions[pass_no % 2].base
    dst = self.key_regions[(pass_no + 1) % 2].base
    sl = self.split_even(self.n_keys, n_cpus, cpu)
    idx = np.arange(sl.start, sl.stop, dtype=np.int64)
    key_addr = src + idx * KEY_BYTES
    pos = self.positions[pass_no]
    if pass_no == 1:
        pos = pos[np.argsort(self.positions[0], kind="stable")]
    digit = self.digits[pass_no]
    if pass_no == 1:
        digit = digit[np.argsort(self.positions[0], kind="stable")]
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


def find_pointer_chases(self):
    """``Chunk._find_pointer_chases`` of *self*."""
    chase = np.zeros(self.n_mem, dtype=bool)
    load_code = int(Op.LOAD)
    last_writer = np.full(N_REGS, -1, dtype=np.int64)
    for _pass in range(2):
        mem_slot = 0
        for i in range(self.n_instr):
            op = int(self.ops[i])
            if op in _MEM_CODES:
                addr_reg = int(self.src1[i])
                if _pass == 1 and addr_reg != NO_REG:
                    if last_writer[addr_reg] == load_code:
                        chase[mem_slot] = True
                mem_slot += 1
            d = int(self.dst[i])
            if d != NO_REG:
                last_writer[d] = op
    return chase


def count_interlock_pairs(self):
    """``Chunk._count_interlock_pairs`` of *self*."""
    pairs = 0
    store_code, load_code = int(Op.STORE), int(Op.LOAD)
    positions = self.mem_index
    kinds = self.mem_kind
    for a in range(len(positions)):
        if kinds[a] != store_code:
            continue
        for b in range(a + 1, len(positions)):
            if positions[b] - positions[a] > INTERLOCK_WINDOW:
                break
            if kinds[b] == load_code:
                pairs += 1
    return pairs
