"""The enable switch and category vocabulary for instrumentation hooks.

Hot simulator code never imports the recorder directly; it does::

    from repro.obs import hooks as obs_hooks
    ...
    tracer = obs_hooks.active          # hoisted once per chunk/transaction
    ...
    if tracer is not None:             # the entire disabled-path cost
        tracer.record(t_ps, obs_hooks.TLB, "refill", dur_ps, self.node)

With tracing disabled (the default) ``active`` is ``None`` and every hook
collapses to a local/module load plus an ``is not None`` test -- the no-op
fast path the overhead benchmark (``benchmarks/bench_obs_overhead.py``)
verifies.  Lint rule L1 (``python -m repro.lint``) checks that no
``record`` call in the engine dispatch loop skips that guard.

Categories map onto the paper's error-source taxonomy (see DESIGN.md):
omissions show up as missing ``tlb``/``mem`` time, detail gaps as ``dsm``/
``net`` occupancy, and bugs as anomalous ``cpu`` spans.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.obs.trace import TraceRecorder

# -- span categories -------------------------------------------------------

CPU = "cpu"          #: per-chunk execution and per-CPU totals
TLB = "tlb"          #: TLB misses and refill stalls
MEM = "mem"          #: cache-hierarchy stalls (L2 hits, miss waits, WB)
CACHE = "cache"      #: raw cache miss instants (per-structure)
SYNC = "sync"        #: barrier/lock waits and arrivals
OS = "os"            #: syscalls and kernel tick overhead
DSM = "dsm"          #: memory-system transactions + MAGIC occupancy
NET = "net"          #: interconnect messages
ENGINE = "engine"    #: raw event-calendar dispatches (opt-in, voluminous)
FARM = "farm"        #: experiment-farm requests (wall time, not sim time)

#: Categories the cycle-attribution profiler charges against each CPU's
#: total; everything else is timeline-only detail.
ATTRIBUTED = (TLB, MEM, SYNC, OS)

#: The active recorder, or None when tracing is disabled.  Module-level on
#: purpose: reading it is the cheapest guard Python offers short of
#: deleting the call sites.
active: Optional[TraceRecorder] = None

#: The active spatial recorder (:class:`repro.obs.topo.TopoRecorder`), or
#: None when spatial recording is disabled.  The slot lives *here* -- not in
#: ``repro.obs.topo`` -- so hot simulator code keeps its single sanctioned
#: observability import (``from repro.obs import hooks``); the lint bans
#: ``repro.obs.topo`` imports under the model directories outright.  The
#: type is deliberately untyped at runtime (no topo import) to keep this
#: module cycle-free and the disabled path a bare attribute load.
topo = None

#: The active host-phase profiler (:class:`repro.obs.perf.PerfProfiler`),
#: or None when host profiling is disabled (the default).  Same slot
#: discipline as ``active``/``topo``: read into a local, test
#: ``is not None``, then call methods on the local.  It never changes
#: simulated behaviour: the profiler only reads the host clock (inside
#: ``repro.obs.perf``, never here or in the machine), so results are
#: bit-identical with it on or off.
#: Deliberately untyped at runtime (no perf import) to stay cycle-free.
perf = None

#: The active transaction recorder (:class:`repro.obs.txn.TxnRecorder`),
#: or None when per-transaction tracing is disabled (the default).  Same
#: slot discipline as ``active``/``topo``: hot code reads the slot into a
#: local, tests ``is not None``, then calls methods on the local.
#: Deliberately untyped at runtime (no txn import) to keep this module
#: cycle-free and the disabled path a bare load.
txn = None


def install(recorder: TraceRecorder) -> TraceRecorder:
    """Enable tracing into *recorder* for subsequent simulator activity."""
    global active
    active = recorder
    return recorder


def uninstall() -> None:
    """Disable tracing (restore the no-op fast path)."""
    global active
    active = None


def is_enabled() -> bool:
    return active is not None


@contextmanager
def tracing(recorder: Optional[TraceRecorder] = None, capacity: int = 65536,
            engine_events: bool = False):
    """Context manager: trace everything inside the block.

    >>> with tracing() as rec:
    ...     result = run_workload(config, workload, 2)
    >>> rec.spans()
    """
    global active
    rec = recorder if recorder is not None else TraceRecorder(
        capacity, engine_events=engine_events)
    previous = active
    install(rec)
    try:
        yield rec
    finally:
        active = previous
