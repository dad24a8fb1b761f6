"""Discrete-event simulation kernel (FlashLite-style threaded simulation)."""

from repro.engine.events import AllOf, AnyOf, Event, Timeout
from repro.engine.kernel import Engine, Process
from repro.engine.resources import Resource, Steps

__all__ = ["AllOf", "AnyOf", "Event", "Timeout", "Engine", "Process",
           "Resource", "Steps"]
