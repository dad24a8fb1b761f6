"""Time and frequency units for the simulators.

All global simulation time is kept in integer **picoseconds** so that the
event queue is deterministic and free of floating point drift.  Each clock
domain (the compute processor, the MAGIC node controller, the network) owns
a :class:`Clock` that converts between its cycles and picoseconds.

The FLASH hardware in the paper runs the MIPS R10000 at 150 MHz and MAGIC at
75 MHz; the Mipsy scaling methodology (Section 2.3) also uses 225 MHz and
300 MHz processor clocks, which is why clocks are values and not constants.
"""

from __future__ import annotations

from dataclasses import dataclass

PS_PER_NS = 1_000
PS_PER_US = 1_000_000
PS_PER_MS = 1_000_000_000


def ns_to_ps(ns: float) -> int:
    """Convert nanoseconds to integer picoseconds (round to nearest)."""
    return int(round(ns * PS_PER_NS))


def ps_to_ns(ps: int) -> float:
    """Convert picoseconds to (float) nanoseconds."""
    return ps / PS_PER_NS


@dataclass(frozen=True)
class Clock:
    """A clock domain defined by its frequency in MHz.

    >>> Clock(150).cycle_ps
    6667
    >>> Clock(150).cycles_to_ps(150_000_000)  # one simulated second-ish
    1000050000000
    """

    freq_mhz: float

    @property
    def cycle_ps(self) -> int:
        """Length of one cycle in picoseconds (rounded to nearest ps)."""
        return int(round(1_000_000.0 / self.freq_mhz))

    def cycles_to_ps(self, cycles: float) -> int:
        """Convert a cycle count (may be fractional) to picoseconds."""
        return int(round(cycles * self.cycle_ps))

    def ps_to_cycles(self, ps: int) -> float:
        """Convert picoseconds to (fractional) cycles of this clock."""
        return ps / self.cycle_ps


#: The processor clock of the real FLASH hardware (Table 1).
HW_CPU_CLOCK = Clock(150.0)

#: The MAGIC / system clock of the real FLASH hardware (Table 1).
HW_SYSTEM_CLOCK = Clock(75.0)
