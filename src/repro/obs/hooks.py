"""The probe: the one ambient slot between the model and observability.

Hot simulator code never imports a recorder; it does::

    from repro.obs import hooks as obs_hooks
    ...
    probe = obs_hooks.active           # hoisted once per chunk/transaction
    ...
    if probe is not None:              # the entire disabled-path cost
        probe.span(t_ps, obs_hooks.TLB, "refill", dur_ps, self.node)

With nothing installed (the default) ``active`` is ``None`` and every site
collapses to one load plus one ``is not None`` test -- the disabled path
``benchmarks/bench_obs_overhead.py`` measures.  Installed, ``active`` is a
:class:`Probe` whose attributes are the model's event vocabulary
(:data:`EVENTS`); it fans each event to the installed recorders that
implement it, so one model event is told once however many recorders
listen, and one run can feed all of them.  Lint rules L1 and D3
(``python -m repro.lint``) check that every probe call in the hot path
sits behind the guard on a local.

Span categories map onto the paper's error-source taxonomy (see
DESIGN.md): omissions show up as missing ``tlb``/``mem`` time, detail
gaps as ``dsm``/``net`` occupancy, and bugs as anomalous ``cpu`` spans.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

# -- span categories -------------------------------------------------------

CPU = "cpu"          #: per-chunk execution and per-CPU totals
TLB = "tlb"          #: TLB misses and refill stalls
MEM = "mem"          #: cache-hierarchy stalls (L2 hits, miss waits, WB)
CACHE = "cache"      #: raw cache miss instants (per-structure)
SYNC = "sync"        #: barrier/lock waits and arrivals
OS = "os"            #: syscalls and kernel tick overhead
DSM = "dsm"          #: memory-system transactions + MAGIC occupancy
NET = "net"          #: interconnect messages
ENGINE = "engine"    #: raw calendar dispatches (``Engine.tracer``'s spans)

#: Categories the cycle-attribution profiler charges against each CPU's
#: total; everything else is timeline-only detail.
ATTRIBUTED = (TLB, MEM, SYNC, OS)

#: The model's event vocabulary: every name is a :class:`Recorder` method
#: (the one signature of that event) and a :class:`Probe` attribute.
EVENTS = ("span", "cache_miss", "tlb_miss", "dir_transition", "net_msg",
          "mem_access", "open_txn", "commit_txn", "drain")


class Recorder:
    """A probe subscriber: override the events you fold, inherit the rest.

    The base methods are the typed no-ops that define each event's
    signature; a :class:`Probe` only calls the ones a subclass overrides.
    Recording must never perturb the simulation -- read, count, append.
    """

    __slots__ = ()

    # -- run lifecycle (every recorder, every run) -----------------------

    def bind(self, machine) -> None:
        """*machine* is about to start (or resume) a run."""

    def finish(self, machine, result) -> None:
        """The run completed; *result* may be annotated."""

    # -- events ----------------------------------------------------------

    def span(self, t_ps: int, category: str, name: str,
             dur_ps: int = 0, args: object = None) -> None:
        """A timed interval (or an instant, ``dur_ps == 0``)."""

    def cache_miss(self, name: str, node: int, paddr: int) -> None:
        """One miss in cache structure *name* at *node*."""

    def tlb_miss(self, vpn: int, cpu: Optional[int] = None) -> None:
        """One TLB miss (the refill *cost* is a ``span`` from the core)."""

    def dir_transition(self, home: int, line: int, transition: str,
                       n_sharers: int = 0) -> None:
        """One directory-state transition of *line* homed at *home*."""

    def net_msg(self, src: int, dst: int, flits: int, hops,
                start_ps: int = 0, dur_ps: int = 0) -> None:
        """One delivered network message routed over the links *hops*."""

    def mem_access(self, node: int, home: int, paddr: int, kind: str,
                   start_ps: int = 0, latency_ps: int = 0,
                   case: Optional[str] = None) -> None:
        """One DSM transaction: told when its reply lands, or at issue
        (``case`` None, latency 0) for a fire-and-forget writeback."""

    def open_txn(self, node: int, paddr: int, kind: str,
                 origin: str = "internal"):
        """A new per-transaction record to thread through the DSM."""

    def commit_txn(self, record) -> None:
        """A record from :meth:`open_txn` was sealed."""

    def drain(self, wait_ps: int) -> None:
        """A sync point waited *wait_ps* for the write buffer."""


def _ignore(*_args):
    return None


def _fan(subscribers):
    """One callable delivering an event to every subscriber.  Only
    ``open_txn`` returns anything, and it has a single implementing
    recorder class."""
    if not subscribers:
        return _ignore
    if len(subscribers) == 1:
        return subscribers[0]

    def fan(*args):
        for deliver in subscribers:
            out = deliver(*args)
        return out
    return fan


class Probe:
    """What :data:`active` holds: each event fans to its subscribers."""

    __slots__ = ("recorders",) + EVENTS

    def __init__(self, *recorders: Recorder):
        self.recorders = recorders
        for event in EVENTS:
            inherited = getattr(Recorder, event)
            setattr(self, event, _fan(
                [getattr(rec, event) for rec in recorders
                 if getattr(type(rec), event) is not inherited]))

    @property
    def traced(self) -> bool:
        """A tracer is subscribed: the result will carry a breakdown."""
        return self.span is not _ignore

    def bind(self, machine) -> None:
        for rec in self.recorders:
            rec.bind(machine)

    def finish(self, machine, result) -> None:
        for rec in self.recorders:
            rec.finish(machine, result)


#: The installed probe, or None when nothing observes.  Module-level on
#: purpose: reading it is the cheapest guard Python offers short of
#: deleting the call sites.
active: Optional[Probe] = None


@contextmanager
def observing(*recorders: Recorder):
    """Context manager: every run inside the block feeds *recorders*.

    >>> tracer, topo = TraceRecorder(), TopoRecorder()
    >>> with observing(tracer, topo):
    ...     result = run_workload(config, workload, 2)
    >>> tracer.spans(), topo.matrix
    """
    global active
    previous = active
    active = probe = Probe(*recorders)
    try:
        yield probe
    finally:
        active = previous
