"""The ambient batch-runner switch (the farm's analogue of obs.hooks).

Layers below the harness (validation studies, microbenchmark probes)
express their simulations as :class:`~repro.sim.request.RunRequest`
batches and hand them to :func:`dispatch`.  When a farm is installed
(``python -m repro.harness --jobs 4``, or ``Farm.activate()``), batches
fan out across its worker pool and hit its result cache; when nothing is
installed every request simply executes serially in-process -- byte-for-
byte the behaviour the serial harness always had.

The module mirrors :mod:`repro.obs.hooks` on purpose: a module-level
``active`` slot, ``install``/``uninstall``, and a context manager, so the
two ambient subsystems read the same way at call sites.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Sequence

from repro.sim.request import RunRequest
from repro.sim.results import RunResult

#: The installed batch runner (a ``repro.harness.farm.Farm``), or None.
#: Any object with ``map(requests) -> results`` and ``run(request) ->
#: result`` qualifies; the sim layer never imports the harness.
active: Optional[object] = None


def install(farm: object) -> object:
    """Route subsequent request batches through *farm*."""
    global active
    active = farm
    return farm


def uninstall() -> None:
    """Restore direct in-process serial execution."""
    global active
    active = None


@contextmanager
def farming(farm: object):
    """Context manager: dispatch through *farm* inside the block."""
    global active
    previous = active
    install(farm)
    try:
        yield farm
    finally:
        active = previous


def dispatch(requests: Sequence[RunRequest]) -> List[RunResult]:
    """Execute a batch of requests, in order, through the active farm.

    With no farm installed this is exactly the historical serial loop, so
    callers can route unconditionally.
    """
    if active is not None:
        return active.map(list(requests))
    return [request.execute() for request in requests]


def run(request: RunRequest) -> RunResult:
    """Execute a single request through the active farm (or directly)."""
    if active is not None:
        return active.run(request)
    return request.execute()
