"""The four workloads and the worker that measures one of them.

``run.py`` starts this file once per workload in a fresh child process, so
``import repro`` is paid (and timed) exactly once, ``ru_maxrss`` belongs to
one workload, and nothing one workload leaves behind (frozen fast-path
decision, chunk uid counters, allocator state) can reach the next.

A *pass* is everything a user would wait for: building the workload
objects, ``Machine()``, ``begin()`` (trace build), ``advance()`` and
``finish()`` for every simulation of the workload.  End-to-end numbers
come from untraced passes; the layer phase adds one traced pass (see
``trace.py``) and reads the model's own counters.
"""

from __future__ import annotations

import time

# Timed here because this is the first import of the package in the worker
# process; set-up cost a user pays on every run belongs in ``setup_s``.
_import_t0 = time.perf_counter()
import repro  # noqa: E402,F401
IMPORT_RAW_S = time.perf_counter() - _import_t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Dict, List, NamedTuple, Optional  # noqa: E402

import numpy as np  # noqa: E402

from repro.common.canonical import code_fingerprint, stable_hash  # noqa: E402
from repro.common.config import REPRO_SCALE, TINY_SCALE  # noqa: E402
from repro.harness import experiments  # noqa: E402
from repro.harness.farm import Farm, ResultCache  # noqa: E402
from repro.isa.trace import ChunkExec, PhaseMark  # noqa: E402
from repro.sim.configs import get_config  # noqa: E402
from repro.sim.machine import Machine  # noqa: E402
from repro.vm.layout import VirtualLayout  # noqa: E402
from repro.workloads import make_app  # noqa: E402
from repro.workloads.base import Workload, touch_pages  # noqa: E402
from repro.workloads.builder import ChunkBuilder  # noqa: E402

try:  # ROADMAP item 2 may delete the package; its metrics then read null.
    from repro import fastpath  # noqa: E402
except ImportError:
    fastpath = None

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics as catalogue  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from trace import (CALIBRATION_LAYER, ROOT_LAYER, Tracer,  # noqa: E402
                   traced_call)

clock = time.perf_counter

SPLASH_APPS = ("fft", "radix", "lu", "ocean")
SHARING_APPS = ("fft", "radix")
EXPERIMENTS = ("fig6", "tlb_microbench", "bugs")
#: ``--quick`` keeps every code path and shrinks every size.
QUICK_EXPERIMENTS = ("tlb_microbench",)


class ResidentLoop(Workload):
    """Place, warm, then loop over a buffer that fits the L1 and the TLB.

    The same shape as ``repro.workloads.hotloop`` (which ROADMAP item 2
    may delete), built only from the public trace API so this workload
    outlives it.  After the warm pass every reference of the timed loop
    is a TLB hit and an L1 hit: no engine event, no transaction.
    """

    name = "resident_loop"
    N_LOADS = 16
    N_STORES = 8
    N_IALU = 8

    def __init__(self, scale=REPRO_SCALE, rows: int = 40000,
                 n_lines: int = 64, seed: int = 1):
        super().__init__(scale)
        self.rows = rows
        self.n_lines = n_lines
        self.seed = seed
        self.line = scale.l1d.line_bytes
        self.buffer = VirtualLayout(self.page).add(
            "resident", n_lines * self.line)

    def build(self, n_cpus: int):
        warm_builder = ChunkBuilder("resident/warm")
        warm_builder.store(addr_reg=1, value_reg=2)
        warm_chunk = warm_builder.build()
        kernel_builder = ChunkBuilder("resident/kernel")
        for _ in range(self.N_LOADS):
            kernel_builder.load(1, addr_reg=1)
        for _ in range(self.N_STORES):
            kernel_builder.store(addr_reg=1, value_reg=2)
        for _ in range(self.N_IALU):
            kernel_builder.ialu(2, 2)
        kernel = kernel_builder.build()

        base = self.buffer.base
        lines = base + np.arange(self.n_lines, dtype=np.int64) * self.line
        picks = np.random.default_rng(self.seed).integers(
            0, self.n_lines, size=(self.rows, self.N_LOADS + self.N_STORES))
        return [[
            touch_pages(warm_chunk, base, self.n_lines * self.line,
                        self.page),
            # A store per line leaves every line MODIFIED, so the timed
            # loop's stores hit as well.
            ChunkExec(warm_chunk, lines.reshape(-1, 1)),
            PhaseMark("hot", True),
            ChunkExec(kernel, base + picks.astype(np.int64) * self.line),
            PhaseMark("hot", False),
        ]]


class Sim(NamedTuple):
    """One simulation of a workload: how to build it and on how many CPUs."""
    label: str
    make: Callable[[], Workload]
    n_cpus: int


def simulations(workload: str, seed: int, quick: bool) -> List[Sim]:
    scale = TINY_SCALE if quick else REPRO_SCALE

    def app(name: str) -> Callable[[], Workload]:
        # Only radix draws random inputs; fft/lu/ocean are seed-free.
        kwargs = {"seed": seed} if name == "radix" else {}
        return lambda: make_app(name, scale, **kwargs)

    if workload == "splash_p1":
        return [Sim(f"{name}/P1", app(name), 1) for name in SPLASH_APPS]
    if workload == "sharing_p16":
        return [Sim(f"{name}/P16", app(name), 16) for name in SHARING_APPS]
    if workload == "resident_loop":
        rows, n_lines = (2000, 16) if quick else (40000, 64)
        return [Sim("resident/P1",
                    lambda: ResidentLoop(scale, rows, n_lines, seed), 1)]
    raise ValueError(f"{workload!r} is not a simulation workload")


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

class Gate:
    """Counts runs attempted and failed; remembers each run's digest."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []
        self.digests: Dict[str, str] = {}
        self.digests_stable = True

    def run(self, what: str, ok: bool, why: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {why}" if why else what)
        return ok

    def digest(self, context: str, label: str, result) -> bool:
        """One finished simulation: it must repeat its first digest."""
        digest = stable_hash(result.to_dict())
        first = self.digests.setdefault(label, digest)
        if first != digest:
            self.digests_stable = False
        return self.run(f"{context} {label}", first == digest,
                        f"digest {digest[:12]} != first {first[:12]}")

    def attempt(self, context: str, fn: Callable, *args, **kwargs):
        """``fn(...)``, or None with a failed run when it raises: a crashed
        run is a failure to report, not a reason to lose the others."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.run(context, False, repr(exc))
            return None


# ---------------------------------------------------------------------------
# Simulation workloads
# ---------------------------------------------------------------------------

class SimPass(NamedTuple):
    """Host seconds are at reference speed (``hostspeed.py``), each
    simulation scaled by the factor measured around it."""
    wall_s: float
    setup_s: float
    run_s: float
    raw_wall_s: float     #: what the clock said
    instructions: float
    identical: bool       #: every digest matched the first one seen
    results: list
    machines: list


def host_sample(tracer: Optional[Tracer], fn: Callable):
    """A host-speed sample (``HostSpeed`` or its ``since_last``); inside a
    traced pass it is a span of its own, so no layer is charged for it."""
    return traced_call(tracer, "reference", CALIBRATION_LAYER, fn)


def sim_pass(sims: List[Sim], config, gate: Gate, context: str,
             tracer: Optional[Tracer] = None) -> SimPass:
    """Build, run and finish every simulation of the workload."""
    setup_s = run_s = raw_s = 0.0
    results, machines = [], []
    speed = host_sample(tracer, HostSpeed)
    for sim in sims:
        t0 = clock()
        workload = traced_call(tracer, "workload()", "workloads", sim.make)
        machine = traced_call(tracer, "Machine()", "sim", Machine,
                              config, sim.n_cpus, workload.scale)
        machine.begin(workload)
        t1 = clock()
        machine.advance()
        results.append(machine.finish())
        t2 = clock()
        machines.append(machine)
        factor = host_sample(tracer, speed.since_last)
        setup_s += (t1 - t0) * factor
        run_s += (t2 - t1) * factor
        raw_s += t2 - t0
    identical = all([gate.digest(context, sim.label, result)
                     for sim, result in zip(sims, results)])
    return SimPass(setup_s + run_s, setup_s, run_s, raw_s,
                   sum(result.instructions for result in results), identical,
                   results, machines)


def traced_sim_pass(sims, config, gate: Gate, context: str):
    """One pass under a fresh tracer: ``(tracer, SimPass or None)``."""
    tracer = Tracer()
    with tracer:
        gc.collect()
        done = gate.attempt(context, tracer.span, "pass", ROOT_LAYER,
                            sim_pass, sims, config, gate, context, tracer)
    return tracer, done


def pass_budget(opts, workload: str) -> Callable[[int, float], bool]:
    """``again(done, elapsed_s)``: whether to start another untraced pass."""
    if opts.quick or not opts.e2e:
        # The layer phase alone needs one pass: counts, overhead baseline.
        return lambda done, elapsed: done < 1
    if opts.seconds is not None:
        return lambda done, elapsed: (done < catalogue.MIN_PASSES
                                      or elapsed < opts.seconds)
    wanted = opts.passes or catalogue.DEFAULT_PASSES[workload]
    return lambda done, elapsed: done < wanted


def run_simulations(opts) -> dict:
    sims = simulations(opts.workload, opts.seed, opts.quick)
    config = get_config("hardware")
    gate = Gate()
    again = pass_budget(opts, opts.workload)
    passes: List[SimPass] = []
    started = clock()
    while again(len(passes), clock() - started):
        gc.collect()
        context = f"pass{len(passes)}"
        done = gate.attempt(context, sim_pass, sims, config, gate, context)
        if done is None:
            break
        if passes:
            # Only the last pass's machines are read (for their counters);
            # holding the earlier ones would inflate peak_rss_mb.
            passes[-1] = passes[-1]._replace(results=[], machines=[])
        passes.append(done)
    rss_mb = peak_rss_mb()
    out = base_output(opts)
    if not passes:
        return finish_output(out, gate)

    fast: List[SimPass] = []
    fast_counters: dict = {}
    if opts.workload == "resident_loop" and fastpath is not None:
        for i in range(1 if opts.quick else catalogue.FASTPATH_PASSES):
            gc.collect()
            with fastpath.enabled() as filt:
                done = gate.attempt(f"fastpath{i}", sim_pass, sims, config,
                                    gate, f"fastpath{i}")
                fast_counters = filt.snapshot()
            if done is None:
                break
            fast.append(done)

    samples = pass_samples(passes)
    samples["run_s"] = [p.run_s for p in passes]
    samples["sim_kinstr_per_s"] = [p.instructions / p.run_s / 1e3
                                   for p in passes]
    out["samples"] = samples
    if opts.e2e:
        out["end_to_end"] = end_to_end(samples, rss_mb)

    if opts.layers:
        last = passes[-1]
        layer = model_counts(last.results, last.machines)
        layer.update(trace_counts([(sim.make(), sim.n_cpus) for sim in sims]))
        layer["engine.events_per_s"] = ratio(
            layer["engine.events"], statistics.median(samples["run_s"]))
        tracer, traced = traced_sim_pass(sims, config, gate, "traced")
        reports = {"default": trace_report(tracer, traced)}
        layer.update(trace_metrics(
            tracer, traced, statistics.median(samples["wall_s"])))
        if fast:
            with fastpath.enabled():
                fast_tracer, fast_traced = traced_sim_pass(
                    sims, config, gate, "traced-fastpath")
            reports["fastpath"] = trace_report(fast_tracer, fast_traced)
            batched = fast_counters.get("fastpath.rows_fast", 0.0)
            examined = batched + fast_counters.get("fastpath.rows_scalar", 0.0)
            layer.update({
                "fastpath.speedup_x": (
                    statistics.median(samples["run_s"])
                    / statistics.median([p.run_s for p in fast])),
                "fastpath.batch_fraction": ratio(batched, examined),
                "fastpath.fallback_windows": sum(
                    value for key, value in fast_counters.items()
                    if key.startswith("fastpath.reason.")),
                "fastpath.self_s": (layer_self_s(fast_tracer, "fastpath")
                                    * host_speed(fast_traced)),
                "fastpath.identical": float(all(p.identical for p in fast)),
            })
        out["per_layer"] = per_layer(layer)
        out["trace"] = reports
    return finish_output(out, gate)


# ---------------------------------------------------------------------------
# harness_replay
# ---------------------------------------------------------------------------

class RecordingFarm(Farm):
    """A Farm that remembers the batches it served, for digests and counts."""

    def __init__(self, jobs, cache):
        super().__init__(jobs=jobs, cache=cache)
        self.served: list = []

    def map(self, requests):
        requests = list(requests)
        results = super().map(requests)
        self.served.extend(zip(requests, results))
        return results


class HarnessPass(NamedTuple):
    """Host seconds at reference speed, each experiment scaled by the
    factor measured around it."""
    wall_s: float
    setup_s: float
    raw_wall_s: float
    results: list          #: ExperimentResult per experiment
    farm: RecordingFarm


def harness_pass(cache_dir: Path, jobs: int, exp_ids, scale,
                 tracer: Optional[Tracer] = None,
                 whole_pass: Optional[HostSpeed] = None) -> HarnessPass:
    """One pass over the experiments through a fresh Farm on *cache_dir*.

    Each experiment is scaled by the host-speed factor around it; a warm
    pass is far shorter than one reference sample, so it passes the
    bracket it shares with its neighbours as *whole_pass* and is scaled
    as one stretch.
    """
    speed = whole_pass or host_sample(tracer, HostSpeed)
    t0 = clock()
    farm = RecordingFarm(jobs, ResultCache(cache_dir))
    raw_s = setup_raw_s = clock() - t0
    wall_s = 0.0
    results = []
    with farm.activate():
        for exp_id in exp_ids:
            t0 = clock()
            # Looked up on the module at call time so a traced pass reaches
            # the tracer's wrapper.
            results.append(experiments.run_experiment(exp_id, scale))
            took = clock() - t0
            raw_s += took
            if whole_pass is None:
                wall_s += took * host_sample(tracer, speed.since_last)
    if whole_pass is None:
        # Construction takes microseconds; an average factor will do.
        factor = wall_s / (raw_s - setup_raw_s)
    else:
        factor = host_sample(tracer, speed.since_last)
    return HarnessPass(raw_s * factor, setup_raw_s * factor, raw_s, results,
                       farm)


def same_outcome(a, b) -> bool:
    """Two ExperimentResults a reader could not tell apart."""
    return (a.rendered == b.rendered
            and [f.to_dict() for f in a.findings]
            == [f.to_dict() for f in b.findings])


def check_harness_pass(gate: Gate, context: str, done: HarnessPass,
                       reference: Optional[HarnessPass], warm: bool) -> None:
    """One gate run per experiment and per simulation the farm served."""
    counters = done.farm.counters
    requests = int(counters.get("requests"))
    hits, executed = done.farm.hits, int(counters.get("executed"))
    farm_ok = (hits == requests and executed == 0) if warm else hits == 0
    for i, result in enumerate(done.results):
        ok, why = farm_ok, f"{hits} hits, {executed} executed of {requests}"
        if ok and reference is not None:
            ok = same_outcome(result, reference.results[i])
            why = "rendered/findings differ from the first cold pass"
        gate.run(f"{context} {result.exp_id}", ok, why)
    for i, (request, result) in enumerate(done.farm.served):
        gate.digest(context, f"{i:02d}:{request.describe()}", result)


@contextlib.contextmanager
def collecting_machines():
    """Every Machine that finishes inside the block, for its counters.

    ``RunRequest.execute`` builds its machine internally; this is the one
    place the benchmark reaches for one, and only in the layer phase.
    """
    machines: list = []
    original = Machine.finish

    def finish(machine):
        machines.append(machine)
        return original(machine)

    Machine.finish = finish
    try:
        yield machines
    finally:
        Machine.finish = original


def run_harness(opts) -> dict:
    with tempfile.TemporaryDirectory(prefix="cache-", dir=opts.workdir) as tmp:
        return _run_harness(opts, Path(tmp))


def _run_harness(opts, work: Path) -> dict:
    scale = TINY_SCALE
    exp_ids = QUICK_EXPERIMENTS if opts.quick else EXPERIMENTS
    gate = Gate()
    t0 = clock()
    code_fingerprint()
    fingerprint_s = clock() - t0       # milliseconds, once per process

    def fresh_dir(name: str) -> Path:
        shutil.rmtree(work / name, ignore_errors=True)
        return work / name

    again = pass_budget(opts, "harness_replay")
    cold: List[HarnessPass] = []
    started = clock()
    while again(len(cold), clock() - started):
        gc.collect()
        context = f"cold{len(cold)}"
        done = gate.attempt(context, harness_pass, fresh_dir("serial"), 1,
                            exp_ids, scale)
        if done is None:
            break
        check_harness_pass(gate, context, done, cold[0] if cold else None,
                           warm=False)
        cold.append(done)
    out = base_output(opts)
    if not cold:
        return finish_output(out, gate)

    warm: List[HarnessPass] = []
    speed = HostSpeed()
    for i in range(2 if opts.quick else catalogue.WARM_PASSES):
        gc.collect()
        done = gate.attempt(f"warm{i}", harness_pass, work / "serial", 1,
                            exp_ids, scale, None, speed)
        if done is None:
            break
        check_harness_pass(gate, f"warm{i}", done, cold[0], warm=True)
        warm.append(done)
    rss_mb = peak_rss_mb()

    instructions = sum(result.instructions
                       for _request, result in cold[-1].farm.served)
    held = sum(f.ok for r in cold[-1].results for f in r.findings)
    total = sum(len(r.findings) for r in cold[-1].results)
    samples = pass_samples(cold)
    samples["setup_pass_s"] = [p.setup_s + fingerprint_s for p in cold]
    samples["sim_kinstr_per_s"] = [instructions / p.wall_s / 1e3
                                   for p in cold]
    samples["replay_wall_s"] = [p.wall_s for p in warm]
    out["samples"] = samples
    replay = {"value": statistics.median(samples["replay_wall_s"])
              if warm else None, "unit": "s", "n": len(warm)}
    if opts.e2e:
        out["end_to_end"] = end_to_end(samples, rss_mb)
        out["end_to_end"]["replay_wall_s"] = replay
        out["end_to_end"]["shape_checks_held_frac"] = {
            "value": ratio(held, total), "unit": "frac", "n": 1}

    if opts.layers:
        layer, reports = harness_layers(scale, exp_ids, gate, work, cold,
                                        warm)
        layer.update({
            "validation.shape_checks_held": held,
            "validation.shape_checks_total": total,
            "shape_checks_held_frac": ratio(held, total),
            "replay_wall_s": replay["value"],
        })
        out["per_layer"] = per_layer(layer)
        out["per_layer"]["replay_wall_s"]["n"] = replay["n"]
        out["trace"] = reports
    return finish_output(out, gate)


def harness_layers(scale, exp_ids, gate: Gate, work: Path,
                   cold: List[HarnessPass], warm: List[HarnessPass]):
    """``(per-layer values, trace reports)`` of the harness workload."""
    serial_s = statistics.median([p.wall_s for p in cold])
    counters = cold[-1].farm.counters
    layer = {
        "harness.requests": int(counters.get("requests")),
        "harness.executed": int(counters.get("executed")),
        "harness.cache_bytes": sum(
            p.stat().st_size for p in (work / "serial").glob("*/*.json")),
    }
    if warm:
        layer["harness.cache_hits"] = warm[-1].farm.hits
        layer["harness.hit_ratio_warm"] = ratio(
            warm[-1].farm.hits, warm[-1].farm.counters.get("requests"))

    # The pool: the same cold batch over two workers, results unchanged.
    gc.collect()
    pool = gate.attempt("pool", harness_pass, work / "pool", 2, exp_ids,
                        scale)
    if pool is not None:
        check_harness_pass(gate, "pool", pool, cold[0], warm=False)
        layer["harness.pool_cold_s"] = pool.wall_s
        layer["harness.pool_speedup_x"] = serial_s / pool.wall_s
        # Only the pool's workers are children of this process.
        layer["harness.pool_children_rss_mb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # Traced: one cold pass (cache writes), then one warm pass (reads).
    tracer, warm_tracer = Tracer(), Tracer()
    with collecting_machines() as machines:
        with tracer:
            gc.collect()
            traced = gate.attempt(
                "traced", tracer.span, "pass", ROOT_LAYER, harness_pass,
                work / "traced", 1, exp_ids, scale, tracer)
        with warm_tracer:
            traced_warm = gate.attempt(
                "traced-warm", warm_tracer.span, "pass", ROOT_LAYER,
                harness_pass, work / "traced", 1, exp_ids, scale,
                warm_tracer, HostSpeed())
    reports = {"default": trace_report(tracer, traced),
               "warm": trace_report(warm_tracer, traced_warm)}
    if traced is None or traced_warm is None:
        return layer, reports
    check_harness_pass(gate, "traced", traced, cold[0], warm=False)
    check_harness_pass(gate, "traced-warm", traced_warm, cold[0], warm=True)
    served = traced.farm.served
    layer.update(model_counts([result for _req, result in served], machines))
    layer.update(trace_counts([(request.workload, request.n_cpus)
                               for request, _result in served]))
    layer["engine.events_per_s"] = ratio(
        layer["engine.events"],
        counters.get("wall_ms") / 1e3 * host_speed(cold[-1]))
    layer.update(trace_metrics(tracer, traced, serial_s))
    factor, warm_factor = host_speed(traced), host_speed(traced_warm)

    def total_s(which: Tracer, scale: float, boundary: str) -> float:
        return which.stat(boundary)["total_s"] * scale

    layer.update({
        "harness.farm_self_s": tracer.stat("Farm.map")["self_s"] * factor,
        "harness.cache_key_s": total_s(tracer, factor,
                                       "RunRequest.cache_key"),
        "harness.cache_put_s": total_s(tracer, factor, "ResultCache.put"),
        "harness.cache_get_s": total_s(warm_tracer, warm_factor,
                                       "ResultCache.get"),
        "harness.serialize_s": (
            total_s(tracer, factor, "RunResult.to_dict")
            + total_s(warm_tracer, warm_factor, "RunResult.from_dict")),
    })
    return layer, reports


# ---------------------------------------------------------------------------
# Per-layer numbers
# ---------------------------------------------------------------------------

def ratio(num, den) -> Optional[float]:
    return num / den if num is not None and den else None


def _attr(fn: Callable[[], float]) -> Optional[float]:
    """A counter read off model objects; None once a refactor removed it."""
    try:
        return fn()
    except (AttributeError, KeyError, TypeError):
        return None


def model_counts(results, machines) -> dict:
    """The model's own counters, summed over the workload's simulations.

    ``RunResult.stats`` first; what the registry does not carry (MAGIC,
    network and resource counters) is read off the machines' public
    attributes.  All of it is exact: it must repeat run to run.
    """
    def stat(key: str) -> float:
        return sum(result.stats.get(key, 0.0) for result in results)

    def stat_prefix(prefix: str) -> float:
        return sum(value for result in results
                   for key, value in result.stats.items()
                   if key.startswith(prefix))

    def per_node(prefix: str, counter: str) -> float:
        """Sum of ``<prefix><node>.<counter>`` over every node."""
        total = 0.0
        for result in results:
            for key, value in result.stats.items():
                head, _, tail = key.partition(".")
                if (tail == counter and head.startswith(prefix)
                        and head[len(prefix):].isdigit()):
                    total += value
        return total

    def magics():
        return [magic for m in machines for magic in m.memsys.magic]

    def nets():
        return [m.memsys.net for m in machines]

    def pools():
        return ([magic.pp for magic in magics()]
                + [magic.dram for magic in magics()])

    def link_stats():
        return [stats for net in nets()
                for stats in net.link_stats().values()]

    n_cases = stat_prefix("memsys.case_")
    l1d_hits, l1d_misses = per_node("l1d", "hits"), per_node("l1d", "misses")
    return {
        "engine.events": _attr(
            lambda: sum(m.env.events_processed for m in machines)),
        # Every hop of a contended fabric is one link-port request.
        "engine.resource_requests": _attr(lambda: (
            sum(pool.requests for pool in pools())
            + sum(net.stats.get("hops") for net in nets()
                  if net.model_contention))),
        "engine.resource_queued_grants": _attr(lambda: (
            sum(pool.stats.get("queued_grants") for pool in pools())
            + sum(stats.get("queued_grants") for stats in link_stats()))),
        "engine.resource_wait_ps": _attr(lambda: (
            sum(pool.stats.get("wait_ps") for pool in pools())
            + sum(stats.get("wait_ps") for stats in link_stats()))),
        "cpu.core.instructions": sum(r.instructions for r in results),
        "cpu.core.wb_full_stalls": per_node("cpu", "wb_full_stalls"),
        "cpu.core.barriers": per_node("cpu", "barriers"),
        "cpu.interface.issued_misses": (
            per_node("iface", "issued_read")
            + per_node("iface", "issued_write")
            + per_node("iface", "issued_upgrade")),
        "cpu.interface.pending_hits": per_node("iface", "pending_hits"),
        "cpu.interface.port_waits": per_node("iface", "port_waits"),
        "mem.l1d_hits": l1d_hits,
        "mem.l1d_misses": l1d_misses,
        "mem.l1d_hit_ratio": ratio(l1d_hits, l1d_hits + l1d_misses),
        "mem.l2_hits": per_node("l2", "hits"),
        "mem.l2_misses": per_node("l2", "misses"),
        "mem.tlb_misses": per_node("tlb", "misses"),
        "mem.victim_writebacks": per_node("iface", "victim_writebacks"),
        "mem.pages_touched": stat("pagetable.pages_touched"),
        "memsys.txns": stat_prefix("memsys.req_"),
        "memsys.remote_frac": (
            stat_prefix("memsys.case_remote") / n_cases if n_cases else 0.0),
        "memsys.line_busy_waits": stat("memsys.line_busy_waits"),
        "memsys.invalidations_sent": stat("memsys.invalidations_sent"),
        "memsys.mean_latency_ns": (
            stat_prefix("memsys.latency_ps_") / n_cases / 1e3
            if n_cases else 0.0),
        "proto.pp_requests": _attr(
            lambda: sum(magic.pp.requests for magic in magics())),
        "proto.pp_busy_ps": _attr(
            lambda: sum(magic.pp.stats.get("busy_ps") for magic in magics())),
        "proto.pp_wait_ps": _attr(
            lambda: sum(magic.pp.stats.get("wait_ps") for magic in magics())),
        "proto.dram_requests": _attr(
            lambda: sum(magic.dram.requests for magic in magics())),
        "proto.dir_ops": _attr(lambda: sum(
            magic.directory.stats.get(key) for magic in magics()
            for key in ("to_shared", "to_dirty", "to_unowned"))),
        "network.messages": _attr(
            lambda: sum(net.stats.get("messages") for net in nets())),
        "network.hops": _attr(
            lambda: sum(net.stats.get("hops") for net in nets())),
        "network.link_wait_ps": _attr(
            lambda: sum(stats.get("wait_ps") for stats in link_stats())),
        "sim.barrier_arrivals": per_node("cpu", "barriers"),
        "sim.parallel_ps": sum(r.parallel_ps for r in results),
    }


def trace_counts(built) -> dict:
    """What the workloads hand the machine: items and address rows.

    *built* is ``(workload, n_cpus)`` pairs; each is built once more here,
    outside every timed region, so no private machine state is read.
    """
    items = rows = mem_rows = 0
    for workload, n_cpus in built:
        for trace in workload.build(n_cpus):
            for item in trace:
                items += 1
                if type(item) is ChunkExec:
                    rows += item.reps
                    if item.chunk.n_mem:
                        mem_rows += item.reps
    return {"workloads.trace_items": items, "workloads.rows": rows,
            "cpu.core.rows": mem_rows}


def layer_self_s(tracer: Tracer, layer: str) -> float:
    return tracer.layers().get(layer, {"self_s": 0.0})["self_s"]


def host_speed(done) -> float:
    """The factor between a pass's raw wall and its reported wall."""
    return done.wall_s / done.raw_wall_s if done and done.raw_wall_s else 1.0


def trace_report(tracer: Tracer, done) -> dict:
    """The tracer's report (raw seconds) with the factor that scales it."""
    report = tracer.report("pass")
    report["host_speed"] = host_speed(done)
    return report


def trace_metrics(tracer: Tracer, done, untraced_wall_s: float) -> dict:
    """Self time and span counts per layer from one traced pass; host
    seconds at reference speed like every other timing."""
    layers = tracer.layers()
    root = tracer.stat("pass")
    factor = host_speed(done)

    def calls(layer: str) -> int:
        return layers.get(layer, {"calls": 0})["calls"]

    classify = tracer.stat("CpuMemInterface.classify")["calls"]
    out = {f"{layer}.self_s": layer_self_s(tracer, layer) * factor
           for layer in ("engine", "cpu.core", "cpu.interface", "mem",
                         "memsys", "proto", "network", "validation")}
    out.update({
        "engine.calls": calls("engine"),
        "cpu.core.resumes": calls("cpu.core"),
        "cpu.interface.classify_calls": classify,
        "cpu.interface.us_per_ref": ratio(
            out["cpu.interface.self_s"] * 1e6, classify),
        "mem.calls": calls("mem"),
        "memsys.resumes": calls("memsys"),
        "proto.calls": calls("proto"),
        "network.resumes": calls("network"),
        # begin() minus the trace build it triggers.
        "sim.begin_s": tracer.stat("Machine.begin")["self_s"] * factor,
        "sim.finish_s": tracer.stat("Machine.finish")["total_s"] * factor,
        "workloads.build_s": (tracer.stat("Workload.build")["total_s"]
                              * factor),
        # The traced pass's own timed seconds, so reference samples taken
        # inside the root span do not count as overhead.
        "trace.overhead_x": ratio(done.wall_s if done else None,
                                  untraced_wall_s),
        "trace.residual_frac": ratio(root["self_s"], root["total_s"]),
        "trace.spans": tracer.n_spans,
        "trace.missing_boundaries": len(tracer.missing),
    })
    return out


def per_layer(layer: dict) -> dict:
    """Every catalogued per-layer metric, with unit and sample count;
    what this workload or this checkout does not have reads null."""
    layer["engine.us_per_event"] = ratio(
        (layer.get("engine.self_s") or 0.0) * 1e6, layer.get("engine.events"))
    return {
        spec.name: {"value": layer.get(spec.name), "unit": spec.unit,
                    "n": 0 if layer.get(spec.name) is None else 1}
        for spec in catalogue.PER_LAYER
    }


# ---------------------------------------------------------------------------
# Output assembly
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """High-water resident set of this process so far, MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def base_output(opts) -> dict:
    return {"workload": opts.workload, "seed": opts.seed, "quick": opts.quick,
            "import_raw_s": IMPORT_RAW_S}


def pass_samples(passes) -> dict:
    """Per-pass samples every workload has: host seconds at reference
    speed, plus the raw wall and the factor between the two."""
    return {
        "wall_s": [p.wall_s for p in passes],
        "wall_raw_s": [p.raw_wall_s for p in passes],
        "host_speed": [host_speed(p) for p in passes],
        "setup_pass_s": [p.setup_s for p in passes],
    }


def end_to_end(samples: dict, rss_mb: float) -> dict:
    """Medians over the untraced passes, with the pass count.

    ``setup_s`` is completed by ``run.py``, which adds ``import repro``
    (timed here and in fresh interpreters); this is the per-pass part.
    """
    def median(key: str, unit: str) -> dict:
        return {"value": statistics.median(samples[key]), "unit": unit,
                "n": len(samples[key])}

    return {
        "wall_s": median("wall_s", "s"),
        "sim_kinstr_per_s": median("sim_kinstr_per_s", "kinstr/s"),
        "setup_s": median("setup_pass_s", "s"),
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB", "n": 1},
    }


def finish_output(out: dict, gate: Gate) -> dict:
    """Add the gate's verdict; call last, after every check has run."""
    if not gate.attempted:
        gate.run("workload", False, "nothing ran")
    out["attempted"] = gate.attempted
    out["failed"] = len(gate.failures)
    out["failures"] = gate.failures
    out["digests"] = gate.digests
    if "end_to_end" in out:
        out["end_to_end"]["failed_frac"] = {
            "value": len(gate.failures) / gate.attempted, "unit": "frac",
            "n": gate.attempted}
        out["end_to_end"]["sim_digest_stable"] = {
            "value": float(gate.digests_stable), "unit": "bool",
            "n": len(gate.digests)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(catalogue.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--no-e2e", dest="e2e", action="store_false")
    parser.add_argument("--no-layers", dest="layers", action="store_false")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    opts = parser.parse_args(argv)
    if opts.workload == "harness_replay":
        out = run_harness(opts)
    else:
        out = run_simulations(opts)
    Path(opts.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
