"""Machine geometry configuration and the explicit scale substitution.

The paper runs full-size SPLASH-2 problems (Table 2) on real hardware whose
memory hierarchy is listed in Table 1.  A pure-Python reproduction cannot
execute the ~10^8-instruction full-size runs, so scale is a first-class,
named concept: a :class:`MachineScale` shrinks the caches, TLB reach, page
size and default problem sizes *together* so every workload stays in the
same regime relative to the memory hierarchy (working set vs L1 / L2 / TLB
reach) as the paper's runs.  DESIGN.md Section 2 documents this
substitution; every harness table records which scale produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape of one cache level."""

    size_bytes: int
    line_bytes: int
    assoc: int

    def __post_init__(self):
        if self.size_bytes % (self.line_bytes * self.assoc) != 0:
            raise ConfigurationError(
                f"cache size {self.size_bytes} not divisible by "
                f"line*assoc ({self.line_bytes}*{self.assoc})"
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigurationError("line size must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)


@dataclass(frozen=True)
class TlbGeometry:
    """Size/shape of the translation lookaside buffer."""

    entries: int
    page_bytes: int

    def __post_init__(self):
        if self.page_bytes & (self.page_bytes - 1):
            raise ConfigurationError("page size must be a power of two")

    @property
    def reach_bytes(self) -> int:
        """Bytes of address space covered by a full TLB."""
        return self.entries * self.page_bytes


@dataclass(frozen=True)
class MachineScale:
    """A coherent shrink of hierarchy and problem sizes.

    ``problem_factor`` multiplies the paper's default problem sizes
    (Table 2); workloads round the result to whatever their algorithm
    requires (powers of two, divisible grids, ...).
    """

    name: str
    l1i: CacheGeometry
    l1d: CacheGeometry
    l2: CacheGeometry
    tlb: TlbGeometry
    problem_factor: float

    def __post_init__(self):
        # Inclusion maps each L2 line onto whole L1d lines.
        if self.l1d.line_bytes > self.l2.line_bytes:
            raise ConfigurationError(
                f"scale {self.name!r}: L1d line ({self.l1d.line_bytes} B) "
                f"is larger than the L2 line ({self.l2.line_bytes} B)"
            )

    @property
    def l2_colors(self) -> int:
        """Number of page colors in the (physically indexed) L2.

        A color is one page-sized slice of one cache way; pages with equal
        color compete for the same L2 sets.  This is the quantity the
        page-placement experiments (Ocean under Solo, Radix under IRIX
        coloring) revolve around.
        """
        way_bytes = self.l2.size_bytes // self.l2.assoc
        return max(1, way_bytes // self.tlb.page_bytes)


#: Table 1 of the paper: the real FLASH hardware hierarchy, full problem
#: sizes. Full-size runs at this scale are supported by the models but are
#: not CI-feasible.
PAPER_SCALE = MachineScale(
    name="paper",
    l1i=CacheGeometry(32 * 1024, 64, 2),
    l1d=CacheGeometry(32 * 1024, 32, 2),
    l2=CacheGeometry(2 * 1024 * 1024, 128, 2),
    tlb=TlbGeometry(entries=64, page_bytes=4096),
    problem_factor=1.0,
)

#: Default reproduction scale: ~64x smaller problems with a shrunk
#: hierarchy that keeps each workload in the paper's regime (e.g. FFT
#: transpose rows span more pages than the TLB holds; Ocean grids exceed
#: the L2).
REPRO_SCALE = MachineScale(
    name="repro",
    l1i=CacheGeometry(4 * 1024, 64, 2),
    l1d=CacheGeometry(4 * 1024, 32, 2),
    l2=CacheGeometry(64 * 1024, 128, 2),
    tlb=TlbGeometry(entries=16, page_bytes=512),
    problem_factor=1.0 / 64.0,
)

#: Miniature unit-test scale: runs finish in milliseconds.
TINY_SCALE = MachineScale(
    name="tiny",
    l1i=CacheGeometry(1024, 64, 2),
    l1d=CacheGeometry(1024, 32, 2),
    l2=CacheGeometry(8 * 1024, 128, 2),
    tlb=TlbGeometry(entries=8, page_bytes=256),
    problem_factor=1.0 / 1024.0,
)

SCALES = {scale.name: scale for scale in (PAPER_SCALE, REPRO_SCALE, TINY_SCALE)}


def get_scale(name: str) -> MachineScale:
    """Look up a named scale, raising :class:`ConfigurationError` if unknown."""
    try:
        return SCALES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scale {name!r}; known: {sorted(SCALES)}"
        ) from None
