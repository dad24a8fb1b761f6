"""The benchmark's metric and workload catalogue (names, units, bounds).

One place states what is measured so that ``run.py`` (printing,
``--compare``, ``--repeat-check``), the worker, ``BENCHMARK.json`` and the
README cannot drift apart; ``test_e2e_bench.py`` checks the first three
against each other.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

#: name -> why the workload exists (one line; BENCHMARK.json carries these).
WORKLOADS: Dict[str, str] = {
    "splash_p1": (
        "fft, radix, lu, ocean at repro scale on the hardware model, P=1: "
        "the paper's four applications in the streaming, miss-dominated "
        "regime with no network; engine ~45% of host time"),
    "sharing_p16": (
        "fft and radix at P=16: the same code under remote misses, "
        "invalidation fan-out, barriers and hypercube links, so a P=1 win "
        "that costs multi-node runs shows here"),
    "resident_loop": (
        "TLB- and L1-resident hot loop, P=1: the opposite regime (row loop "
        "and classify ~all of host time, engine ~0), so an engine or DSM "
        "change must show no change here"),
    "harness_replay": (
        "fig6, tlb_microbench, bugs at tiny scale through Farm + ResultCache, "
        "cold then warm: the only workload where harness, serialisation, "
        "validation and the cheaper core models carry weight"),
}

#: Passes per workload when neither ``--passes`` nor ``--seconds`` is given
#: (``harness_replay``: cold passes; its warm passes are fixed below).
DEFAULT_PASSES: Dict[str, int] = {
    "splash_p1": 3, "sharing_p16": 3, "resident_loop": 5, "harness_replay": 3,
}
#: Never fewer than this many untraced passes behind a reported median.
MIN_PASSES = 3
WARM_PASSES = 20
FASTPATH_PASSES = 5


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str               #: "lower" | "higher"
    bound: float              #: share of the baseline median it may worsen
    workloads: Optional[Tuple[str, ...]] = None   #: None = every workload
    #: Floor on the tolerated worsening in the metric's own unit.
    abs_floor: float = 0.0


#: The host-time bounds are what this sandbox can resolve, not what one
#: would like: even at reference speed (``hostspeed.py``) 20-second
#: medians of one commit spread 5-10% here (inter-quartile, ten seeds),
#: and a bound has to be about three times that or every comparison
#: reads ``unresolved`` (README, "Noise").
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("wall_s", "s", "lower", 0.25),
    EndToEnd("sim_kinstr_per_s", "kinstr/s", "higher", 0.25),
    # ``import repro`` (0.2-0.3 s, most of every set-up) alone moved by up
    # to 0.09 s between two runs of one commit on this host.
    EndToEnd("setup_s", "s", "lower", 0.25, abs_floor=0.10),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10),
    EndToEnd("replay_wall_s", "s", "lower", 0.20, ("harness_replay",)),
    EndToEnd("failed_frac", "frac", "lower", 0.0),
    EndToEnd("shape_checks_held_frac", "frac", "higher", 0.0,
             ("harness_replay",)),
    EndToEnd("sim_digest_stable", "bool", "higher", 0.0),
)

#: The end-to-end metrics every workload yields and that are never 0: the
#: ones ``BENCHMARK.json`` can bound.  Of the rest, ``failed_frac`` and
#: ``sim_digest_stable`` travel as ``failed``/``correct`` in the contract
#: line; the two harness-only ones are repeated at the end of
#: :data:`PER_LAYER`, whose contract list carries no bounds.
CONTRACT_END_TO_END = ("wall_s", "sim_kinstr_per_s", "setup_s", "peak_rss_mb")


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    exact: bool               #: a count that must repeat run to run


def _layer(prefix: str, *specs: Tuple[str, str, str, bool]):
    return tuple(PerLayer(f"{prefix}.{name}", unit, better, exact)
                 for name, unit, better, exact in specs)


_T = ("s", "lower", False)          # host time
_N = ("count", "lower", True)       # work done, repeats exactly

PER_LAYER: Tuple[PerLayer, ...] = (
    _layer("engine",
           ("self_s", *_T), ("calls", *_N), ("events", *_N),
           ("events_per_s", "1/s", "higher", False),
           ("us_per_event", "us", "lower", False),
           ("resource_requests", *_N), ("resource_queued_grants", *_N),
           ("resource_wait_ps", "ps", "lower", True))
    + _layer("cpu.core",
             ("self_s", *_T), ("resumes", *_N), ("rows", *_N),
             ("instructions", *_N), ("wb_full_stalls", *_N),
             ("barriers", *_N))
    + _layer("cpu.interface",
             ("self_s", *_T), ("classify_calls", *_N),
             ("us_per_ref", "us", "lower", False), ("issued_misses", *_N),
             ("pending_hits", *_N), ("port_waits", *_N))
    + _layer("mem",
             ("self_s", *_T), ("calls", *_N), ("l1d_hits", *_N),
             ("l1d_misses", *_N), ("l1d_hit_ratio", "frac", "higher", True),
             ("l2_hits", *_N), ("l2_misses", *_N), ("tlb_misses", *_N),
             ("victim_writebacks", *_N), ("pages_touched", *_N))
    + _layer("memsys",
             ("self_s", *_T), ("resumes", *_N), ("txns", *_N),
             ("remote_frac", "frac", "lower", True),
             ("line_busy_waits", *_N), ("invalidations_sent", *_N),
             ("mean_latency_ns", "ns", "lower", True))
    + _layer("proto",
             ("self_s", *_T), ("calls", *_N), ("pp_requests", *_N),
             ("pp_busy_ps", "ps", "lower", True),
             ("pp_wait_ps", "ps", "lower", True), ("dram_requests", *_N),
             ("dir_ops", *_N))
    + _layer("network",
             ("self_s", *_T), ("resumes", *_N), ("messages", *_N),
             ("hops", *_N), ("link_wait_ps", "ps", "lower", True))
    + _layer("sim",
             ("begin_s", *_T), ("finish_s", *_T), ("barrier_arrivals", *_N),
             ("parallel_ps", "ps", "lower", True))
    + _layer("workloads",
             ("build_s", *_T), ("trace_items", *_N), ("rows", *_N))
    + _layer("fastpath",
             ("speedup_x", "x", "higher", False),
             ("batch_fraction", "frac", "higher", True),
             ("fallback_windows", *_N), ("self_s", *_T),
             ("identical", "bool", "higher", True))
    + _layer("harness",
             ("requests", *_N), ("executed", *_N),
             ("cache_hits", "count", "higher", True),
             ("hit_ratio_warm", "frac", "higher", True),
             ("farm_self_s", *_T), ("cache_key_s", *_T), ("cache_put_s", *_T),
             ("cache_get_s", *_T), ("serialize_s", *_T),
             ("cache_bytes", "bytes", "lower", True), ("pool_cold_s", *_T),
             ("pool_speedup_x", "x", "higher", False),
             ("pool_children_rss_mb", "MiB", "lower", False))
    + _layer("validation",
             ("self_s", *_T), ("shape_checks_held", "count", "higher", True),
             ("shape_checks_total", "count", "higher", True))
    + _layer("trace",
             ("overhead_x", "x", "lower", False),
             ("residual_frac", "frac", "lower", False), ("spans", *_N),
             ("missing_boundaries", *_N))
    + (PerLayer("replay_wall_s", "s", "lower", False),
       PerLayer("shape_checks_held_frac", "frac", "higher", True))
)

END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}


def applies(metric: EndToEnd, workload: str) -> bool:
    return metric.workloads is None or workload in metric.workloads


def worsening(metric: EndToEnd, baseline: float, value: float) -> float:
    """How much *value* is worse than *baseline*, in the metric's unit
    (negative when it is better)."""
    return value - baseline if metric.better == "lower" else baseline - value


def allowed_worsening(metric: EndToEnd, baseline: float) -> float:
    """The regression threshold for *metric* at this *baseline*."""
    return max(metric.bound * abs(baseline), metric.abs_floor)
