"""Hotspot analysis: turn a :class:`~repro.obs.topo.TopoRecorder` into the
paper's spatial evidence.

Three views, one report:

* the **NUMA traffic matrix** -- DSM transactions bucketed by (requesting
  node, home node), the direct measurement behind the paper's hotspot
  claims (an unplaced Radix homes everything at node 0; the matrix shows
  one hot column);
* **top-K hot regions** -- the lines/pages with the most traffic, each
  with its home node, remote fraction, mean latency, requester set and the
  peak directory sharer count (true sharing vs. a private hot buffer);
* **contention heat** -- per-link and per-controller cumulative busy/wait
  time plus the sampler's queue-occupancy time series.

:class:`HotspotReport` is a frozen summary: it serialises to a compact
dict (``kind: "topo"``) that rides along on ``Finding``/
``ExperimentResult`` attribution payloads, renders in the dashboard's
"Where in the machine" section, and pins the golden snapshot
``tests/golden/hotspot_ocean_hardware.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.doc import Para, Table, heat, render_text, spark
from repro.obs.record import Record, records
from repro.obs.topo import TopoRecorder

#: Hot regions a report keeps (sorted by accesses, region id tiebreak).
DEFAULT_TOP_K = 10

#: Occupancy series kept verbatim in the report (busiest first); the rest
#: are summarised to (mean, max, last).
DEFAULT_TOP_SERIES = 4


@dataclass
class HotRegion(Record):
    """One hot address region (line or page) and who fights over it."""

    region: int              #: region id (paddr >> region_shift)
    base_paddr: int          #: first physical address in the region
    home: int                #: node whose memory holds it
    accesses: int            #: DSM transactions touching it
    remote: int              #: of those, from non-home nodes
    mean_latency_ps: float   #: mean transaction latency, to 0.001 ps
    requesters: List[int]    #: sorted set of requesting nodes
    peak_sharers: int        #: max directory sharer count observed

    @property
    def remote_fraction(self) -> float:
        return self.remote / self.accesses if self.accesses else 0.0


@dataclass
class HotspotReport(Record):
    """Spatial summary of one (or more) runs under a TopoRecorder."""

    #: Discriminates the payload from waterfall (``overall``) and tuning ones.
    KIND = "topo"

    region: str                           #: binning granularity (line/page)
    region_bytes: int
    n_nodes: int
    matrix: List[List[int]]               #: [requester][home] -> accesses
    kinds: Dict[str, int]
    hot_regions: List[HotRegion]
    dir_transitions: Dict[str, Dict[str, int]]   #: node -> transition -> n
    link_heat: List[dict]                 #: per directed link: msgs/flits/...
    occupancy: Dict[str, dict]            #: series name -> summary (+series)
    samples: int = 0                      #: retained occupancy samples
    samples_dropped: int = 0              #: overwritten by the ring
    end_ps: int = 0                       #: simulated end time
    config_name: str = ""
    workload_name: str = ""
    scale_name: str = ""
    struct_misses: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.hot_regions = records(HotRegion, self.hot_regions)

    # -- derived ------------------------------------------------------------

    @property
    def total_accesses(self) -> int:
        return sum(sum(row) for row in self.matrix)

    @property
    def remote_fraction(self) -> float:
        total = self.total_accesses
        if total == 0:
            return 0.0
        local = sum(self.matrix[n][n] for n in range(self.n_nodes))
        return (total - local) / total

    def home_totals(self) -> List[int]:
        """Accesses homed at each node (the matrix column sums); a single
        dominant column is the hotspot signature."""
        return [sum(self.matrix[r][h] for r in range(self.n_nodes))
                for h in range(self.n_nodes)]

    def hottest_home(self) -> Tuple[int, float]:
        """(node, share) of the node receiving the most home traffic."""
        totals = self.home_totals()
        total = sum(totals)
        if total == 0:
            return (0, 0.0)
        node = max(range(self.n_nodes), key=lambda h: (totals[h], -h))
        return (node, totals[node] / total)

    # -- rendering ----------------------------------------------------------

    def blocks(self, top_k: Optional[int] = None) -> list:
        """The report as :mod:`repro.obs.doc` blocks; *top_k* bounds the
        hot-region and link tables."""
        n = self.n_nodes
        config = f"`{self.config_name}`" if self.config_name else ""
        label = " / ".join(part for part in (
            self.workload_name, config, f"P={n}", self.scale_name) if part)
        summary = (f"{self.total_accesses} DSM transactions, "
                   f"{self.remote_fraction:.1%} remote, binned by "
                   f"{self.region} ({self.region_bytes} B)")
        if self.total_accesses:
            node, share = self.hottest_home()
            summary += (f"; hottest home node {node} "
                        f"({share:.1%} of home traffic)")
        out = [Para(f"spatial hotspot report: {label}"), Para(summary)]
        if self.kinds:
            out.append(Para("kinds: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.kinds.items()))))
        peak = max((v for row in self.matrix for v in row), default=0)
        totals = self.home_totals()
        out.append(Para("traffic matrix (requesting node → home node):"))
        out.append(Table(
            "n" * (n + 2), ["req\\home", *map(str, range(n)), "total"],
            [[r, *(heat(v, peak) for v in self.matrix[r]),
              sum(self.matrix[r])] for r in range(n)]
            + [["home Σ", *totals, sum(totals)]]))
        regions = self.hot_regions[:top_k]
        out.append(Para(f"Top hot {self.region}s ({self.region_bytes} B):"
                        + ("" if regions else " (no traffic recorded)")))
        if regions:
            out.append(Table(
                "cnnnnnt", ["region", "home", "accesses", "remote",
                            "lat_ns", "sharers", "requesters"],
                [[f"{hr.base_paddr:#x}", hr.home, hr.accesses,
                  f"{hr.remote_fraction:.1%}",
                  f"{hr.mean_latency_ps / 1000.0:.1f}", hr.peak_sharers,
                  ",".join(str(r) for r in hr.requesters)]
                 for hr in regions]))
        if self.link_heat:
            out.append(Para(f"Busiest link `{self.link_heat[0]['link']}`; "
                            "link heat, busiest first:"))
            out.append(Table(
                "cnnnn", ["link", "msgs", "flits", "busy_us", "wait_us"],
                [[link["link"], link["msgs"], link["flits"],
                  f"{link['busy_ps'] / 1e6:.2f}",
                  f"{link['wait_ps'] / 1e6:.2f}"]
                 for link in self.link_heat[:top_k]]))
        sampled = [(name, info) for name, info in sorted(
            self.occupancy.items()) if info.get("series")]
        if sampled:
            dropped = (f", {self.samples_dropped} overwritten"
                       if self.samples_dropped else "")
            out.append(Para(
                f"queue occupancy ({self.samples} samples{dropped}):"))
            out.append(Table(
                "cnnt", ["queue", "mean", "max", "occupancy over time"],
                [[name, f"{info['mean']:.2f}", f"{info['max']:.0f}",
                  spark(info["series"], floor=0)]
                 for name, info in sampled]))
        return out

    def format(self, top_k: Optional[int] = None) -> str:
        return render_text(self.blocks(top_k))


def build_report(recorder: TopoRecorder, result=None,
                 top_k: int = DEFAULT_TOP_K,
                 top_series: int = DEFAULT_TOP_SERIES) -> HotspotReport:
    """Fold *recorder*'s counters into a :class:`HotspotReport`.

    *result* (a :class:`~repro.sim.results.RunResult`) only supplies the
    run labels; all data comes from the recorder.  ``top_k`` bounds the
    hot-region list and ``top_series`` bounds how many occupancy series
    keep their raw samples (the rest are summarised) -- both keep the
    serialised payload golden-snapshot sized.
    """
    n_nodes = recorder.n_nodes
    if n_nodes == 0 and recorder.matrix:
        n_nodes = 1 + max(max(pair) for pair in recorder.matrix)
    matrix = [[0] * n_nodes for _ in range(n_nodes)]
    for (node, home), count in recorder.matrix.items():
        matrix[node][home] = count

    ranked = sorted(recorder.regions.items(),
                    key=lambda kv: (-kv[1].accesses, kv[0]))[:top_k]
    hot_regions = []
    for region, acc in ranked:
        # Peak sharer counts are recorded per *report* region; when binning
        # by page this folds all constituent lines' peaks together.
        hot_regions.append(HotRegion(
            region=region,
            base_paddr=recorder.region_base(region),
            home=acc.home,
            accesses=acc.accesses,
            remote=acc.remote,
            mean_latency_ps=(round(acc.latency_ps / acc.accesses, 3)
                             if acc.accesses else 0.0),
            requesters=sorted(acc.requesters),
            peak_sharers=recorder.peak_sharers.get(region, 0),
        ))

    dir_transitions: Dict[str, Dict[str, int]] = {}
    for (home, transition), count in recorder.dir_transitions.items():
        dir_transitions.setdefault(str(home), {})[transition] = count

    heat = recorder.resource_heat
    link_heat = []
    for (src, dst), msgs in sorted(recorder.link_msgs.items()):
        stats = heat.get(f"link{src}->{dst}", {})
        link_heat.append({
            "link": f"{src}->{dst}",
            "msgs": msgs,
            "flits": recorder.link_flits.get((src, dst), 0),
            "busy_ps": stats.get("busy_ps", 0.0),
            "wait_ps": stats.get("wait_ps", 0.0),
            "queued_grants": stats.get("queued_grants", 0.0),
        })
    link_heat.sort(key=lambda d: (-d["busy_ps"], -d["msgs"], d["link"]))

    busiest = sorted(
        recorder.series.items(),
        key=lambda kv: (-sum(kv[1].values()), kv[0]))
    occupancy: Dict[str, dict] = {}
    for rank, (name, ring) in enumerate(busiest):
        values = ring.values()
        info = {
            "mean": (round(sum(values) / len(values), 4)
                     if values else 0.0),
            "max": max(values) if values else 0.0,
            "last": values[-1] if values else 0.0,
        }
        if rank < top_series and values and max(values) > 0:
            info["series"] = values
        occupancy[name] = info

    return HotspotReport(
        region=recorder.region,
        region_bytes=recorder.region_bytes,
        n_nodes=n_nodes,
        matrix=matrix,
        kinds=dict(recorder.kinds),
        hot_regions=hot_regions,
        dir_transitions=dir_transitions,
        link_heat=link_heat,
        occupancy=occupancy,
        samples=len(recorder.sample_t),
        samples_dropped=recorder.sample_t.dropped,
        end_ps=recorder.end_ps,
        config_name=getattr(result, "config_name", ""),
        workload_name=getattr(result, "workload_name", ""),
        scale_name=getattr(result, "scale_name", ""),
        struct_misses=dict(recorder.struct_misses),
    )
