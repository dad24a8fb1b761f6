"""Spatial observability: *where* in the machine the traffic goes.

PR 1's span tracer answers "which *category* of cycles diverged"; this
module answers "*where* in the machine": which (requesting node, home
node) pairs exchange traffic, which address regions are hot and who
shares them, which links and controllers queue.  That is the evidence the
paper's hotspot experiments (unplaced Radix, Figure 7) rest on -- a
simulator that predicts the aggregate speedup for the wrong spatial
reasons would still be wrong.

The recorder is a :mod:`repro.obs.hooks` probe subscriber:

* it is installed with ``hooks.observing(TopoRecorder())``; nothing under
  ``cpu/``, ``mem/``, ``engine/``, ``memsys/`` or ``network/`` may import
  *this* module (lint rule L2 enforces it);
* enabled-mode memory is bounded: counters are dicts keyed by touched
  regions/links (bounded by the footprint), and the periodic sampler
  writes into fixed-size :class:`RingBuffer`\\ s that overwrite their
  oldest samples, never grow.

It folds four probe events:

* ``mem_access``  -- one DSM transaction (``memsys/dsm.py``), bucketed
  by (requesting node, home node, address region);
* ``cache_miss`` -- one per-structure cache miss (``mem/cache.py``);
* ``dir_transition``   -- one directory-state transition
  (``proto/directory.py``), with the post-transition sharer count;
* ``net_msg``        -- one network message (``network/fabric.py``),
  charged to every link on its route.

The periodic sampler is an engine process :meth:`TopoRecorder.bind`
spawns on the machine; every ``sample_interval_ps`` of
*simulated* time it snapshots per-link and per-controller queue occupancy.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.mem.address import NODE_MEM_SHIFT, bit_length_shift
from repro.obs import hooks

# -- region granularities ---------------------------------------------------

LINE = "line"  #: bin addresses by cache line (the L2 line size)
PAGE = "page"  #: bin addresses by page (the TLB page size)

REGIONS = (LINE, PAGE)

#: Simulated picoseconds between occupancy samples (1 us).
DEFAULT_SAMPLE_INTERVAL_PS = 1_000_000

#: Samples each occupancy series retains (oldest overwritten first).
DEFAULT_SAMPLE_CAPACITY = 512


class RingBuffer:
    """Fixed-capacity ring of floats; pushing past capacity drops oldest."""

    __slots__ = ("capacity", "_buf", "pushed")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(
                f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buf: Deque[float] = deque(maxlen=capacity)
        #: Total values ever pushed (including any since overwritten).
        self.pushed = 0

    def push(self, value: float) -> None:
        self._buf.append(value)
        self.pushed += 1

    @property
    def dropped(self) -> int:
        return self.pushed - len(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    def values(self) -> List[float]:
        """Retained values, oldest first."""
        return list(self._buf)


class _Region:
    """Mutable per-region accumulator (kept tiny: one per touched region)."""

    __slots__ = ("accesses", "remote", "latency_ps", "requesters", "home")

    def __init__(self, home: int):
        self.accesses = 0
        self.remote = 0
        self.latency_ps = 0
        self.requesters: Set[int] = set()
        self.home = home


class TopoRecorder(hooks.Recorder):
    """Spatial counters + occupancy sampler for one (or more) runs.

    Construction is cheap and binding-free so tests can drive the counting
    API directly; :meth:`bind` (called by ``Machine.begin`` when the
    recorder is installed) supplies the geometry -- line/page size, node
    count -- and the resources the sampler walks.
    """

    def __init__(self, region: str = LINE,
                 sample_interval_ps: int = DEFAULT_SAMPLE_INTERVAL_PS,
                 sample_capacity: int = DEFAULT_SAMPLE_CAPACITY,
                 line_bytes: int = 128, page_bytes: int = 4096):
        if region not in REGIONS:
            raise ConfigurationError(
                f"unknown region granularity {region!r}; known: {REGIONS}")
        if sample_interval_ps < 1:
            raise ConfigurationError(
                f"sample interval must be >= 1 ps, got {sample_interval_ps}")
        self.region = region
        self.sample_interval_ps = sample_interval_ps
        self.sample_capacity = sample_capacity
        self.line_shift = bit_length_shift(line_bytes)
        self.page_shift = bit_length_shift(page_bytes)
        self.region_shift = (self.line_shift if region == LINE
                             else self.page_shift)
        self.n_nodes = 0
        #: Total events folded.
        self.total_events = 0
        # -- traffic ------------------------------------------------------
        #: (requesting node, home node) -> DSM transaction count.
        self.matrix: Dict[Tuple[int, int], int] = {}
        #: transaction kind -> count (read/write/upgrade/writeback).
        self.kinds: Dict[str, int] = {}
        #: region id -> accumulator; bounded by the touched footprint.
        self.regions: Dict[int, _Region] = {}
        #: cache structure name -> miss count (mem/cache.py hooks).
        self.struct_misses: Dict[str, int] = {}
        #: (home node, transition) -> count (proto/directory.py hooks).
        self.dir_transitions: Dict[Tuple[int, str], int] = {}
        #: region id -> peak directory sharer count observed.
        self.peak_sharers: Dict[int, int] = {}
        # -- network ------------------------------------------------------
        #: (src, dst) directed link -> messages routed through it.
        self.link_msgs: Dict[Tuple[int, int], int] = {}
        #: (src, dst) directed link -> flits routed through it.
        self.link_flits: Dict[Tuple[int, int], int] = {}
        # -- sampling -----------------------------------------------------
        self.sample_t = RingBuffer(sample_capacity)
        self.series: Dict[str, RingBuffer] = {}
        #: Cumulative resource stats captured by :meth:`finish`:
        #: name -> {"busy_ps": ..., "wait_ps": ..., "queued_grants": ...}.
        self.resource_heat: Dict[str, Dict[str, float]] = {}
        self.end_ps = 0
        self._machine = None

    # -- geometry -----------------------------------------------------------

    @property
    def region_bytes(self) -> int:
        return 1 << self.region_shift

    def region_of(self, paddr: int) -> int:
        """The region id *paddr* bins into at this granularity."""
        return paddr >> self.region_shift

    def region_base(self, region: int) -> int:
        """First physical address of *region*."""
        return region << self.region_shift

    def home_of_region(self, region: int) -> int:
        """The node whose memory holds *region*."""
        return self.region_base(region) >> NODE_MEM_SHIFT

    def bind(self, machine) -> None:
        """Adopt *machine*'s geometry and resources; start the sampler.

        Region binning switches to the machine scale's real line/page
        sizes; the sampler series are created for every network link and
        MAGIC controller.  Binding again (a second run under the same
        recorder) accumulates into the same counters.
        """
        scale = machine.scale
        self.line_shift = bit_length_shift(scale.l2.line_bytes)
        self.page_shift = bit_length_shift(scale.tlb.page_bytes)
        self.region_shift = (self.line_shift if self.region == LINE
                             else self.page_shift)
        self.n_nodes = max(self.n_nodes, machine.n_cpus)
        self._machine = machine
        for name, _res in self._sampled_resources():
            self.series.setdefault(f"{name}.queue",
                                   RingBuffer(self.sample_capacity))
        # The sampler never finishes; Engine.run checks the until event
        # before each step, so it cannot keep the run alive.
        machine.env.process(self.sampler(machine.env), name="topo.sampler")

    def _sampled_resources(self):
        """(name, resource) pairs the sampler snapshots, stable order."""
        if self._machine is None:
            return []
        memsys = self._machine.memsys
        out = []
        for magic in memsys.magic:
            out.append((f"magic{magic.node}.pp", magic.pp))
            out.append((f"magic{magic.node}.dram", magic.dram))
        for link, res in sorted(memsys.net._links.items()):
            out.append((f"link{link[0]}->{link[1]}", res))
        return out

    # -- probe events ------------------------------------------------------

    def mem_access(self, node: int, home: int, paddr: int, kind: str,
                   start_ps: int = 0, latency_ps: int = 0,
                   case: Optional[str] = None) -> None:
        """One DSM transaction from *node* against memory homed at *home*."""
        self.total_events += 1
        pair = (node, home)
        self.matrix[pair] = self.matrix.get(pair, 0) + 1
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        region = paddr >> self.region_shift
        acc = self.regions.get(region)
        if acc is None:
            acc = self.regions[region] = _Region(home)
        acc.accesses += 1
        acc.latency_ps += latency_ps
        if node != home:
            acc.remote += 1
        acc.requesters.add(node)

    def cache_miss(self, name: str, node: int, paddr: int) -> None:
        """One miss in cache structure *name* at *node*."""
        self.total_events += 1
        self.struct_misses[name] = self.struct_misses.get(name, 0) + 1

    def dir_transition(self, home: int, line: int, transition: str,
                       n_sharers: int = 0) -> None:
        """One directory-state transition for *line* homed at *home*."""
        self.total_events += 1
        key = (home, transition)
        self.dir_transitions[key] = self.dir_transitions.get(key, 0) + 1
        if n_sharers > 1:
            region = (line << self.line_shift) >> self.region_shift
            if n_sharers > self.peak_sharers.get(region, 0):
                self.peak_sharers[region] = n_sharers

    def net_msg(self, src: int, dst: int, flits: int, hops,
                start_ps: int = 0, dur_ps: int = 0) -> None:
        """One network message; charged to every link on its route."""
        self.total_events += 1
        msgs, fl = self.link_msgs, self.link_flits
        for link in hops:
            msgs[link] = msgs.get(link, 0) + 1
            fl[link] = fl.get(link, 0) + flits

    # -- the periodic sampler ----------------------------------------------

    def sampler(self, env):
        """Engine process: snapshot queue occupancy every interval."""
        interval = self.sample_interval_ps
        while True:
            yield env.timeout(interval)
            self.take_sample(env.now)

    def take_sample(self, t_ps: int) -> None:
        """Record one occupancy sample at simulated time *t_ps*."""
        self.sample_t.push(float(t_ps))
        for name, res in self._sampled_resources():
            ring = self.series.get(f"{name}.queue")
            if ring is None:
                ring = self.series[f"{name}.queue"] = RingBuffer(
                    self.sample_capacity)
            ring.push(float(res.queue_length + res.in_use))

    def finish(self, machine) -> None:
        """Capture cumulative resource heat at the end of a run."""
        self.end_ps = max(self.end_ps, machine.env.now)
        for name, res in self._sampled_resources():
            self.resource_heat[name] = {
                "requests": float(res.requests),
                "busy_ps": res.stats.get("busy_ps"),
                "wait_ps": res.stats.get("wait_ps"),
                "queued_grants": res.stats.get("queued_grants"),
            }

    # -- convenience reading -----------------------------------------------

    @property
    def total_accesses(self) -> int:
        return sum(self.matrix.values())

    def remote_fraction(self) -> float:
        """Share of DSM transactions whose home is a remote node."""
        total = self.total_accesses
        if total == 0:
            return 0.0
        remote = sum(count for (node, home), count in self.matrix.items()
                     if node != home)
        return remote / total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TopoRecorder({self.region}/{self.region_bytes}B, "
                f"{self.total_accesses} accesses, "
                f"{len(self.regions)} regions, "
                f"{len(self.sample_t)} samples)")
