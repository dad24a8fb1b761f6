"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A simulator or workload was configured inconsistently."""


class SimulationError(ReproError):
    """The simulation reached an invalid state (protocol/engine bug)."""


class ProtocolError(SimulationError):
    """The cache-coherence protocol observed an illegal transition."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still blocked."""


class TuningError(ReproError):
    """The calibration loop could not fit the requested parameters."""


class WorkloadError(ReproError):
    """A workload generator was asked for an impossible configuration."""


class AttributionError(ReproError):
    """Differential error attribution was asked for runs it cannot compare."""
