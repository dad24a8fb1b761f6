#!/usr/bin/env python
"""Regenerate the golden-regression snapshots under ``tests/golden/``.

One command::

    PYTHONPATH=src python scripts/refresh_goldens.py

Run it when an intentional simulator change shifts the snapshot
experiments' findings, review the diff (``git diff tests/golden``) to
confirm every drifted value is expected, and commit the new snapshots
together with the change that caused them.  ``tests/test_golden.py``
fails with a field-by-field diff whenever the live values drift from
these files.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np                                       # noqa: E402

from repro.common.config import REPRO_SCALE              # noqa: E402
from repro.harness import run_experiment                 # noqa: E402
from repro.isa.trace import ChunkExec, PhaseMark         # noqa: E402
from repro.obs import hooks                              # noqa: E402
from repro.vm.layout import VirtualLayout                # noqa: E402
from repro.workloads.base import Workload, touch_pages   # noqa: E402
from repro.workloads.builder import ChunkBuilder         # noqa: E402

#: The snapshotted experiments: cheap, and together they pin the machine
#: geometry (table1), the calibration quantities (tlb_microbench) and a
#: full simulator-vs-hardware comparison figure (fig2).
GOLDEN_IDS = ("table1", "tlb_microbench", "fig2")

#: Attribution snapshots: golden id -> (workload, reference, candidate).
#: These pin the differential-attribution waterfall end to end -- tracer,
#: breakdown, diff -- for one workload/configuration pair.
ATTRIBUTION_IDS = {
    "attribution_fft_solo": ("fft", "hardware", "solo-mipsy-150-tuned"),
}

#: Hotspot snapshots: golden id -> (workload, configuration, n_cpus).
#: These pin the spatial-observability pipeline end to end -- topo hooks,
#: sampler, report -- for one run.  The run is deterministic, so the
#: traffic matrix, hot-region table and occupancy summaries are exact.
HOTSPOT_IDS = {
    "hotspot_ocean_hardware": ("ocean", "hardware", 4),
}

#: Txn snapshots: golden id -> (workload, configuration, n_cpus).
#: These pin the per-transaction latency-anatomy pipeline end to end --
#: txn hooks, segment accounting, histogram fold, top-K -- for one
#: deterministic tiny-scale run.  Every value is integer picoseconds, so
#: the per-kind percentiles and slowest-K segment lists are exact.
TXN_IDS = {
    "txn_fft_hardware": ("fft", "hardware", 4),
}

#: Calendar snapshots: golden id -> ((workload, n_cpus), ...), each run
#: at tiny scale on ``hardware``.  These pin the engine's calendar itself
#: -- how many entries ran, when the last one did, and a digest over the
#: time of every one in pop order -- so an engine change that adds, drops
#: or retimes a single event fails here even if every statistic survives.
#: Times only: callback names are implementation detail and may change.
CALENDAR_IDS = {
    "calendar_tiny": (("radix", 4), ("fft", 1)),
}

#: Rows snapshots: golden id -> (workloads, configurations), every pair
#: run at tiny scale on one CPU.  These pin the row path -- the cores' row
#: loop and the interface's per-reference classification -- in both
#: regimes (``resident``: every timed reference a TLB and L1 hit; radix:
#: hits, L2 hits, misses and TLB refills interleaved) on the window core,
#: the Mipsy core, and Mipsy with no TLB modelled: the run's result, its
#: event count, and a digest of the end-of-run memory state with every
#: order kept (TLB LRU, per-set L1/L2 recency, page-table and counter
#: first touch), which a result hash alone does not see.
ROWS_IDS = {
    "rows_tiny": (("resident", "radix"),
                  ("hardware", "simos-mipsy-150", "solo-mipsy-150")),
}

#: Miss-path snapshots: golden id -> ((workload, config, memsys, n_cpus),
#: ...), each run at tiny scale; *memsys* names the DSM parameter set
#: (``numa`` turns MAGIC occupancy and link contention off).  These pin
#: the DSM transaction path where its cases and variants all occur --
#: remote and dirty-remote misses, upgrades, invalidation fan-out,
#: sharing writebacks, directory-busy retries, contended and
#: uncontended MAGIC and links: the calendar (as ``calendar_tiny``),
#: the end-of-run memory-system state with every order kept, and, from
#: a second run under the probe, a digest of every probe event in the
#: order the model told it (every sealed transaction record with its
#: segments and waits included).
MISS_PATH_IDS = {
    "miss_path_tiny": (("fft", "hardware", "hardware", 4),
                       ("radix", "hardware", "hardware", 4),
                       ("radix", "simos-mipsy-150", "numa", 4),
                       ("lu", "simos-mipsy-150", "flashlite_untuned", 4)),
}

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"


#: The finding fields ``tests/test_golden.py`` compares (a finding's
#: attribution payload is pinned by the payload goldens instead).
FINDING_KEYS = ("name", "paper", "measured", "ok", "note")


def snapshot(exp_id: str) -> dict:
    result = run_experiment(exp_id, REPRO_SCALE)
    return {
        "exp_id": result.exp_id,
        "scale_name": result.scale_name,
        "findings": [{key: getattr(f, key) for key in FINDING_KEYS}
                     for f in result.findings],
    }


def attribution_snapshot(golden_id: str) -> dict:
    """The AttributionDiff payload for one pinned workload/config pair."""
    from repro.obs.diff import diff_runs
    from repro.sim.configs import get_config
    from repro.sim.request import RunRequest
    from repro.workloads import make_app

    workload_name, ref_name, cand_name = ATTRIBUTION_IDS[golden_id]
    workload = make_app(workload_name, REPRO_SCALE)
    return diff_runs(RunRequest(get_config(ref_name), workload, 1),
                     RunRequest(get_config(cand_name), workload, 1)).to_dict()


def hotspot_snapshot(golden_id: str) -> dict:
    """The HotspotReport payload for one pinned run under a topo recorder."""
    from repro.sim.configs import get_config
    from repro.validation import evidence
    from repro.workloads import make_app

    workload_name, config_name, n_cpus = HOTSPOT_IDS[golden_id]
    return evidence(get_config(config_name),
                    make_app(workload_name, REPRO_SCALE), n_cpus,
                    kinds=("topo",))["topo"]


def txn_snapshot(golden_id: str) -> dict:
    """The TxnReport payload for one pinned run under a txn recorder."""
    from repro.common.config import get_scale
    from repro.sim.configs import get_config
    from repro.validation import evidence
    from repro.workloads import make_app

    workload_name, config_name, n_cpus = TXN_IDS[golden_id]
    scale = get_scale("tiny")
    return evidence(get_config(config_name), make_app(workload_name, scale),
                    n_cpus, kinds=("txn",))["txn"]


class _WhenDigest:
    """``Engine.tracer`` sink: a sha256 over every calendar entry's time."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def span(self, t_ps: int, category: str, name: str) -> None:
        self._hash.update(f"{t_ps};".encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def calendar_snapshot(golden_id: str) -> dict:
    """Event count, final clock and ``when``-stream digest per pinned run."""
    from repro.common.config import get_scale
    from repro.sim.configs import get_config
    from repro.sim.request import RunRequest
    from repro.workloads import make_app

    scale = get_scale("tiny")
    out = {}
    for workload_name, n_cpus in CALENDAR_IDS[golden_id]:
        request = RunRequest(get_config("hardware"),
                             make_app(workload_name, scale), n_cpus)
        machine = request.machine()
        machine.begin(request.workload)
        machine.env.tracer = stream = _WhenDigest()
        machine.advance()
        machine.finish()
        out[request.describe()] = {
            "events_processed": machine.env.events_processed,
            "now_ps": machine.env.now,
            "when_sha256": stream.hexdigest(),
        }
    return out


class _ProbeDigest(hooks.Recorder):
    """A recorder hashing every probe event, in the order it is told.

    Installed beside a ``TxnRecorder`` (which opens the records), and on
    the engine's tracer slot, it folds each sealed record whole --
    segments and wait attribution in their order -- and every other event
    with its arguments, plus the time of every calendar entry (not its
    callback's name).
    """

    def __init__(self):
        self._hash = hashlib.sha256()
        self.events = 0

    def _fold(self, *fields) -> None:
        self.events += 1
        self._hash.update(repr(fields).encode())

    def span(self, t_ps, category, name, dur_ps=0, args=None):
        if category == hooks.ENGINE:
            self._fold("engine", t_ps)
        else:
            self._fold("span", t_ps, category, name, dur_ps, args)

    def cache_miss(self, name, node, paddr):
        self._fold("cache_miss", name, node, paddr)

    def tlb_miss(self, vpn, cpu=None):
        self._fold("tlb_miss", vpn, cpu)

    def dir_transition(self, home, line, transition, n_sharers=0):
        self._fold("dir", home, line, transition, n_sharers)

    def net_msg(self, src, dst, flits, hops, start_ps=0, dur_ps=0):
        self._fold("net", src, dst, flits, tuple(hops), start_ps, dur_ps)

    def mem_access(self, node, home, paddr, kind, start_ps=0, latency_ps=0,
                   case=None):
        self._fold("mem", node, home, paddr, kind, start_ps, latency_ps,
                   case)

    def commit_txn(self, record):
        self._fold("txn", record.uid, record.node, record.home, record.paddr,
                   record.kind, record.origin, record.case,
                   record.inval_fanout, record.start_ps, record.end_ps,
                   record.segments, record.residual_ps,
                   list(record.waits.items()))

    def drain(self, wait_ps):
        self._fold("drain", wait_ps)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def miss_path_snapshot(golden_id: str) -> dict:
    """Calendar, memory-system state and probe-stream digests per run."""
    from repro.common.config import get_scale
    from repro.memsys.params import PARAM_SETS
    from repro.obs.txn import TxnRecorder
    from repro.sim.configs import get_config
    from repro.sim.request import RunRequest
    from repro.workloads import make_app

    scale = get_scale("tiny")
    out = {}
    for workload_name, config_name, memsys, n_cpus in MISS_PATH_IDS[golden_id]:
        config = get_config(config_name).derive(memsys=PARAM_SETS[memsys]())
        request = RunRequest(config, make_app(workload_name, scale), n_cpus)
        machine = request.machine()
        machine.begin(request.workload)
        machine.env.tracer = stream = _WhenDigest()
        machine.advance()
        result = machine.finish()
        # Every order kept: counters, directory entries and link ports in
        # first-touch order, like ``rows_snapshot``.
        memsys_state = json.dumps(machine.memsys.snapshot())
        probe_digest = _ProbeDigest()
        digested = request.machine()
        with hooks.observing(TxnRecorder(), probe_digest):
            digested.begin(request.workload)
            digested.env.tracer = probe_digest
            digested.advance()
            digested.finish()
        out[f"{request.describe()}/{memsys}"] = {
            "events_processed": machine.env.events_processed,
            "now_ps": machine.env.now,
            "when_sha256": stream.hexdigest(),
            "memsys_sha256": hashlib.sha256(
                memsys_state.encode()).hexdigest(),
            "result_sha256": hashlib.sha256(json.dumps(
                result.to_dict(), sort_keys=True).encode()).hexdigest(),
            "probe_events": probe_digest.events,
            "probe_sha256": probe_digest.hexdigest(),
        }
    return out


class ResidentRows(Workload):
    """Place, warm, then loop over a buffer that fits the L1 and the TLB.

    The shape of ``benchmarks/e2e``'s ``resident_loop``: after the warm
    pass (a store per line, so every line is MODIFIED) each of the timed
    rows is 16 loads + 8 stores (and 8 ALU ops) that all hit the TLB and
    the L1.
    """

    name = "resident"
    N_LOADS = 16
    N_STORES = 8
    N_IALU = 8

    def __init__(self, scale, rows: int = 2000, n_lines: int = 16,
                 seed: int = 1):
        super().__init__(scale)
        self.rows = rows
        self.n_lines = n_lines
        self.seed = seed

    def build(self, n_cpus: int):
        warm_builder = ChunkBuilder("resident/warm")
        warm_builder.store(addr_reg=1, value_reg=2)
        warm = warm_builder.build()
        kernel_builder = ChunkBuilder("resident/kernel")
        for _ in range(self.N_LOADS):
            kernel_builder.load(1, addr_reg=1)
        for _ in range(self.N_STORES):
            kernel_builder.store(addr_reg=1, value_reg=2)
        for _ in range(self.N_IALU):
            kernel_builder.ialu(2, 2)
        line = self.scale.l1d.line_bytes
        base = VirtualLayout(self.page).add(
            "resident", self.n_lines * line).base
        lines = base + np.arange(self.n_lines, dtype=np.int64) * line
        picks = np.random.default_rng(self.seed).integers(
            0, self.n_lines, size=(self.rows, self.N_LOADS + self.N_STORES))
        return [[
            touch_pages(warm, base, self.n_lines * line, self.page),
            ChunkExec(warm, lines.reshape(-1, 1)),
            PhaseMark(PhaseMark.PARALLEL, True),
            ChunkExec(kernel_builder.build(), base + picks * line),
            PhaseMark(PhaseMark.PARALLEL, False),
        ]] + [[] for _ in range(n_cpus - 1)]


def rows_snapshot(golden_id: str) -> dict:
    """Result hash, event count and ordered memory-state digest per run."""
    from repro.common.canonical import stable_hash
    from repro.common.config import get_scale
    from repro.sim.configs import get_config
    from repro.sim.request import RunRequest
    from repro.workloads import make_app

    scale = get_scale("tiny")
    workload_names, config_names = ROWS_IDS[golden_id]
    out = {}
    for workload_name in workload_names:
        for config_name in config_names:
            workload = (ResidentRows(scale) if workload_name == "resident"
                        else make_app(workload_name, scale))
            request = RunRequest(get_config(config_name), workload, 1)
            machine = request.machine()
            result = machine.run(workload)
            # The icache is keyed by each chunk's rank in the traces.
            chunk_uids = list(dict.fromkeys(
                item.chunk.uid for trace in machine.traces for item in trace
                if type(item) is ChunkExec))
            # json.dumps without sort_keys: dict order (counter and page
            # first touch) is part of what is pinned, like list order.
            ordered = json.dumps([machine.ifaces[0].snapshot(chunk_uids),
                                  machine.page_table.snapshot()])
            out[request.describe()] = {
                "result_hash": stable_hash(result.to_dict()),
                "events_processed": machine.env.events_processed,
                "state_sha256": hashlib.sha256(ordered.encode()).hexdigest(),
            }
    return out


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for exp_id in GOLDEN_IDS:
        path = GOLDEN_DIR / f"{exp_id}.json"
        data = snapshot(exp_id)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(data['findings'])} findings)")
    for golden_id in ATTRIBUTION_IDS:
        path = GOLDEN_DIR / f"{golden_id}.json"
        data = attribution_snapshot(golden_id)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(data['overall'])} categories)")
    for golden_id in HOTSPOT_IDS:
        path = GOLDEN_DIR / f"{golden_id}.json"
        data = hotspot_snapshot(golden_id)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(data['hot_regions'])} hot regions)")
    for golden_id in TXN_IDS:
        path = GOLDEN_DIR / f"{golden_id}.json"
        data = txn_snapshot(golden_id)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path} ({data['total_txns']} transactions, "
              f"{len(data['kinds'])} kinds)")
    for golden_id in CALENDAR_IDS:
        path = GOLDEN_DIR / f"{golden_id}.json"
        data = calendar_snapshot(golden_id)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(data)} calendars)")
    for golden_id in ROWS_IDS:
        path = GOLDEN_DIR / f"{golden_id}.json"
        data = rows_snapshot(golden_id)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(data)} runs)")
    for golden_id in MISS_PATH_IDS:
        path = GOLDEN_DIR / f"{golden_id}.json"
        data = miss_path_snapshot(golden_id)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(data)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
