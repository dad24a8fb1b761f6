"""Engine hot-path benchmark: simulator throughput on the paper's workloads.

The four SPLASH-2 stand-ins on the ``simos-mipsy-150`` (fig2) and
``hardware`` (table1) configurations at repro scale, one CPU: best-of-N
wall time and engine events/sec per case, folded into the committed perf
ledger ``benchmarks/BENCH_engine_hotpath.jsonl`` -- the history
``python -m repro.obs perf --baseline`` judges against -- plus the engine
primitives on their own (``timeout``, ``use`` free and queued, one
protocol-processor handler and one two-hop message walked as plans of
their own) and the row-path primitives beside them
(a plain-hit reference, an L2-hit reference, an all-hit row through a
core).  The ledger is the record; the
assertions are that repeats of one case are bit-identical and that an
application case still processes exactly its latest committed record's
``events`` over the same ``sim_ps`` (the calendar may get cheaper, never
different).  No ``speedup`` is computed: a committed record was timed in
another process at another time, and on a small shared host consecutive
processes drift by +-20%, more than the changes being judged.  The speed
judge is the alternating parent/change pairs of ``benchmarks/e2e/run.py``.
Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_hotpath.py -m slow -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import BENCH_DIR, emit_bench
from repro.common.config import get_scale
from repro.cpu.interface import L2_HIT
from repro.engine import Engine, Resource, Steps
from repro.engine.resources import FINISH
from repro.isa.opcodes import Op
from repro.isa.trace import ChunkExec
from repro.mem.cache import MODIFIED
from repro.network.fabric import Network, NetworkParams
from repro.obs.metrics import BenchRecord, make_case, read_ledger, run_record
from repro.proto.magic import MagicController
from repro.sim.configs import get_config
from repro.sim.machine import Machine
from repro.vm.layout import DATA_BASE
from repro.workloads import make_app
from repro.workloads.builder import ChunkBuilder

#: fig2 simulates the applications on scaled Mipsy; table1 is the FLASH
#: hardware configuration itself.
APP_CONFIGS = ("simos-mipsy-150", "hardware")
APPS = ("fft", "radix", "lu", "ocean")


def _best_of(app, config, scale, repeats):
    """Best-of-*repeats* timed runs; returns ``(seconds, result, events)``.

    Single lu/fft runs vary by ~30% on a loaded host, so the minimum is
    the stable statistic.  The engine's event count feeds the ledger's
    events/sec metric.
    """
    best = None
    for _ in range(repeats):
        workload = make_app(app, scale)
        machine = Machine(config, 1, scale)
        start = time.perf_counter()
        result = machine.run(workload)
        elapsed = time.perf_counter() - start
        if best is not None:
            assert result.to_dict() == best[1].to_dict(), (
                f"{app}@{config.name}: repeated run diverged")
        if best is None or elapsed < best[0]:
            best = (elapsed, result, machine.env.events_processed)
    return best


def _committed():
    """case -> its latest record in the ledger (before this run appends)."""
    return {r.case: r for r in read_ledger(
        BENCH_DIR / "BENCH_engine_hotpath.jsonl", BenchRecord)}


def _app_record(app, config, scale, repeats, committed):
    """One application case, checked against the committed record of the
    same case (when there is one)."""
    seconds, result, events = _best_of(app, config, scale, repeats)
    case = make_case(app, config.name, 1, scale.name, "ref")
    committed = committed.get(case)
    if committed is not None:
        assert (events, result.total_ps) == (committed.events,
                                             committed.sim_ps), (
            f"{case}: the calendar changed -- {events} events over "
            f"{result.total_ps} ps, committed {committed.events} over "
            f"{committed.sim_ps}")
    print(f"{case:36s} {seconds * 1e3:7.1f} ms  "
          f"{events / seconds:9,.0f} events/s")
    return run_record("engine_hotpath", case, seconds, result=result,
                      events=events)


@pytest.mark.slow
def test_application_throughput():
    scale = get_scale("repro")
    committed = _committed()
    print()
    emit_bench("engine_hotpath", [
        _app_record(app, get_config(config_name), scale, 3, committed)
        for config_name in APP_CONFIGS for app in APPS])


@pytest.mark.slow
def test_perf_smoke_baseline():
    """Seed the tiny-fft case the tier-1 perf smoke gates against.

    ``scripts/run_tier1_matrix.sh`` runs ``python -m repro.obs perf fft
    --config simos-mipsy-150 --scale tiny --baseline
    benchmarks/BENCH_engine_hotpath.jsonl``; the gate matches records by
    case string, so this test must emit exactly that case.
    """
    emit_bench("engine_hotpath", [_app_record(
        "fft", get_config("simos-mipsy-150"), get_scale("tiny"), 2,
        _committed())])


#: Engine primitives: name -> (waiting processes, context factory, the
#: wait one operation yields).  One process means the unit is always
#: free; four keep a capacity-1 resource queued.
PRIMITIVES = {
    "timeout": (1, lambda env: None, lambda env, ctx: env.timeout(100)),
    "use-free": (1, lambda env: Resource(env, "r"),
                 lambda env, res: res.use(100)),
    "use-queued": (4, lambda env: Resource(env, "r"),
                   lambda env, res: res.use(100)),
    # 0.45 is the occupancy split this primitive has always timed.
    "pp_busy": (1, lambda env: MagicController(env, 0, 0.45),
                lambda env, magic: Steps(env, magic.pp_stages(1000)
                                         + (FINISH,))),
    "send-2hop": (1, lambda env: Network(env, 4, NetworkParams(50, 20, 10)),
                  lambda env, net: Steps(env, net.send_stages(0, 3, 2)
                                         + (FINISH,))),
}
PRIMITIVE_OPS = 20_000


def _primitive_run(name):
    """``(seconds, events, now)`` of :data:`PRIMITIVE_OPS` operations."""
    n_procs, make_ctx, wait = PRIMITIVES[name]
    env = Engine()
    ctx = make_ctx(env)

    def proc():
        for _ in range(PRIMITIVE_OPS // n_procs):
            yield wait(env, ctx)

    for _ in range(n_procs):
        env.process(proc())
    start = time.perf_counter()
    env.run()
    return time.perf_counter() - start, env.events_processed, env.now


@pytest.mark.slow
def test_primitive_throughput():
    """What one wait costs, per primitive: best of five, as events/s."""
    print()
    records = []
    for name in PRIMITIVES:
        runs = [_primitive_run(name) for _ in range(5)]
        assert len({run[1:] for run in runs}) == 1, f"{name}: runs diverged"
        seconds, events, _now = min(runs)
        print(f"{name:11s} {seconds / PRIMITIVE_OPS * 1e6:6.2f} us/op  "
              f"{events / seconds:9,.0f} events/s")
        records.append(run_record(
            "engine_hotpath", make_case(name, "engine", 1, "primitive", "ref"),
            seconds, events=events))
    emit_bench("engine_hotpath", records)


# ---------------------------------------------------------------------------
# Row-path primitives: what one reference and one all-hit row cost with no
# engine under them.  Each builds a ``hardware`` node at repro scale whose
# caches and TLB hold a few lines, and returns ``(run, ops)``: ``run()``
# performs *ops* operations and leaves the node as it found it.
# ---------------------------------------------------------------------------

_LOAD, _STORE = int(Op.LOAD), int(Op.STORE)
#: 16 loads + 8 stores: the row of ``benchmarks/e2e``'s ``resident_loop``.
ROW_KINDS = [_LOAD] * 16 + [_STORE] * 8


def _node(n_lines, in_l1):
    """``(machine, addresses)``: *n_lines* consecutive L1 lines mapped,
    their pages in the TLB, MODIFIED in the node's L2 -- and in its L1
    too when *in_l1*."""
    scale = get_scale("repro")
    machine = Machine(get_config("hardware"), 1, scale)
    iface = machine.ifaces[0]
    addrs = DATA_BASE + np.arange(n_lines) * scale.l1d.line_bytes
    for vaddr in addrs.tolist():
        paddr = machine.page_table.translate(vaddr, 0)
        iface.tlb.insert(iface.tlb.vpn_of(vaddr), paddr - vaddr)
        iface.l2.fill(paddr >> iface.l2.line_shift, MODIFIED)
        if in_l1:
            iface.l1d.fill(paddr >> iface.l1d.line_shift, MODIFIED)
    return machine, addrs


def _ref_hit():
    """One row of plain hits (loads and stores 2:1 over 64 lines): the
    resolver absorbs it in a single call."""
    machine, addrs = _node(64, in_l1=True)
    picks = np.random.default_rng(1).integers(0, 64, size=PRIMITIVE_OPS)
    row = addrs[picks].tolist()
    kinds = np.resize(ROW_KINDS, PRIMITIVE_OPS).tolist()
    resolve = machine.ifaces[0].resolver(kinds)

    def run():
        assert resolve(row, 0)[0] == len(row), "a plain hit reached the core"
    return run, len(row)


def _ref_l2hit():
    """Loads cycling over twice the L1's capacity, all of it in the L2
    and within TLB reach: every reference comes back as an L2 hit."""
    scale = get_scale("repro")
    machine, addrs = _node(2 * scale.l1d.size_bytes // scale.l1d.line_bytes,
                           in_l1=False)
    row = np.resize(addrs, PRIMITIVE_OPS).tolist()
    resolve = machine.ifaces[0].resolver([_LOAD] * len(row))

    def run():
        j = 0
        while j < len(row):
            j, outcome, _payload, _kind, tlb_miss = resolve(row, j)
            assert outcome == L2_HIT and not tlb_miss
            j += 1
    return run, len(row)


def _row_allhit_24():
    """``resident_loop``'s rows through the core's row loop: each is one
    ``resolve`` call and no generator."""
    machine, addrs = _node(64, in_l1=True)
    builder = ChunkBuilder("bench/row")
    for kind in ROW_KINDS:
        if kind == _LOAD:
            builder.load(1, addr_reg=1)
        else:
            builder.store(addr_reg=1, value_reg=2)
    picks = np.random.default_rng(1).integers(
        0, 64, size=(PRIMITIVE_OPS, len(ROW_KINDS)))
    ce = ChunkExec(builder.build(), addrs[picks])
    core = machine.cores[0]

    def run():
        for _wait in core._exec_chunk(ce):
            raise AssertionError("an all-hit row waited on the engine")
    return run, ce.reps


ROW_PRIMITIVES = {
    "ref-hit": _ref_hit,
    "ref-l2hit": _ref_l2hit,
    "row-allhit-24": _row_allhit_24,
}


def _timed(run):
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


@pytest.mark.slow
def test_row_primitive_throughput():
    """What one reference and one all-hit row cost: best of five."""
    print()
    records = []
    for name, make in ROW_PRIMITIVES.items():
        run, ops = make()
        run()       # the chunk's schedule and instruction fetch
        seconds = min(_timed(run) for _ in range(5))
        print(f"{name:13s} {seconds / ops * 1e9:8.1f} ns/op")
        records.append(run_record(
            "engine_hotpath", make_case(name, "rows", 1, "primitive", "ref"),
            seconds))
    emit_bench("engine_hotpath", records)


if __name__ == "__main__":
    test_application_throughput()
    test_perf_smoke_baseline()
    test_primitive_throughput()
    test_row_primitive_throughput()
