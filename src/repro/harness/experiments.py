"""The experiment registry: one entry per paper table/figure.

Each experiment is a function ``(scale) -> ExperimentResult`` producing a
rendered table/figure plus paper-vs-measured findings.  ``run_experiment``
dispatches by id; :mod:`repro.harness.cli` and the pytest benchmarks call
through here, and ``generate_experiments_md`` runs everything to rebuild
EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional

from repro.common.config import MachineScale, REPRO_SCALE
from repro.common.errors import ConfigurationError
from repro.cpu.base import (
    HW_TLB_REFILL_CYCLES,
    MIPSY_UNTUNED_TLB_CYCLES,
    MXS_UNTUNED_TLB_CYCLES,
)
from repro.cpu.window import MAX_OUTSTANDING
from repro.memsys.params import (
    PROTOCOL_CASES,
    TABLE3_HARDWARE_NS,
    TABLE3_TUNED_NS,
    TABLE3_UNTUNED_NS,
    numa,
)
from repro.sim import farm_hooks
from repro.sim.configs import (
    figure_lineup,
    hardware_config,
    simos_mipsy,
    simos_mxs,
    solo_mipsy,
)
from repro.sim.request import RunRequest
from repro.validation import (
    CACHEOP_BUG,
    CacheFlushWorkload,
    FAST_ISSUE_BUG,
    Tuner,
    compare_simulators,
    demonstrate_bug,
    evidence,
    hotspot_study,
    speedup_study,
)
from repro.obs.doc import Para, Table, render_text
from repro.validation.report import bar_chart, line_chart
from repro.vm.allocators import Placement
from repro.workloads import (
    FftWorkload,
    RadixWorkload,
    app_suite,
    make_app,
    measure_all_cases,
    measure_tlb_refill,
    pathological_radix,
    tuned_radix,
)
from repro.harness.findings import ExperimentResult, Finding

ExperimentFn = Callable[[MachineScale], ExperimentResult]

_REGISTRY: Dict[str, ExperimentFn] = {}
_TITLES: Dict[str, str] = {}


def experiment(exp_id: str, title: str):
    def wrap(fn: ExperimentFn) -> ExperimentFn:
        _REGISTRY[exp_id] = fn
        _TITLES[exp_id] = title
        return fn
    return wrap


def experiment_ids() -> List[str]:
    return list(_REGISTRY)


def _farm_counts() -> tuple:
    """(hits, executed) of the ambient farm, or zeros without one."""
    farm = farm_hooks.active
    if farm is None or not hasattr(farm, "counters"):
        return (0, 0)
    return (int(farm.counters.get("cache.hits")),
            int(farm.counters.get("executed")))


def run_experiment(exp_id: str,
                   scale: MachineScale = REPRO_SCALE) -> ExperimentResult:
    try:
        fn = _REGISTRY[exp_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {exp_id!r}; known: {experiment_ids()}"
        ) from None
    hits0, runs0 = _farm_counts()
    start = time.perf_counter()
    result = fn(scale)
    result.wall_seconds = time.perf_counter() - start
    result.scale_name = scale.name
    hits1, runs1 = _farm_counts()
    result.farm_hits = hits1 - hits0
    result.farm_runs = runs1 - runs0
    return result


def _within(measured: float, low: float, high: float) -> bool:
    return low <= measured <= high


# ---------------------------------------------------------------------------
# Tables 1 and 2: configuration tables
# ---------------------------------------------------------------------------

@experiment("table1", "FLASH hardware configuration")
def table1(scale: MachineScale) -> ExperimentResult:
    from repro.common.config import PAPER_SCALE

    hw = hardware_config()
    rows = [
        ["Processor", "MIPS R10000", "R10K window model"],
        ["Number of processors", "1-16", "1-16"],
        ["Processor clock", "150 MHz", f"{hw.core.clock_mhz:g} MHz"],
        ["System (MAGIC) clock", "75 MHz", "75 MHz"],
        ["Instruction cache",
         f"{PAPER_SCALE.l1i.size_bytes // 1024} KB, {PAPER_SCALE.l1i.line_bytes} B lines",
         f"{scale.l1i.size_bytes // 1024} KB, {scale.l1i.line_bytes} B lines"],
        ["Primary data cache",
         f"{PAPER_SCALE.l1d.size_bytes // 1024} KB, {PAPER_SCALE.l1d.line_bytes} B lines",
         f"{scale.l1d.size_bytes // 1024} KB, {scale.l1d.line_bytes} B lines"],
        ["Secondary cache",
         f"{PAPER_SCALE.l2.size_bytes // 1024} KB, {PAPER_SCALE.l2.line_bytes} B lines",
         f"{scale.l2.size_bytes // 1024} KB, {scale.l2.line_bytes} B lines"],
        ["Max IPC", "4", str(hw.core.width)],
        ["Max outstanding misses", "4", str(MAX_OUTSTANDING)],
        ["TLB", "64 entries, 4 KB pages",
         f"{scale.tlb.entries} entries, {scale.tlb.page_bytes} B pages"],
        ["Network", "50 ns hops, hypercube",
         f"{hw.memsys.net.hop_ps / 1000:g} ns hops, hypercube"],
        ["Memory", "140 ns to first word",
         f"{hw.memsys.dram_ps / 1000:g} ns access"],
        ["Coherence protocol", "dynamic pointer allocation",
         "exact-sharer directory (MSI)"],
    ]
    rendered = render_text([
        Para("Table 1: machine configuration"),
        Table("ttt", ["parameter", "paper (FLASH)", f"repro ({scale.name})"],
              rows)])
    return ExperimentResult("table1", _TITLES["table1"], rendered,
                            [Finding("hierarchy ratios preserved",
                                     "L1:L2 = 1:64, TLB reach << L2",
                                     f"L1:L2 = 1:{scale.l2.size_bytes // scale.l1d.size_bytes}, "
                                     f"TLB reach {scale.tlb.reach_bytes // 1024} KB vs "
                                     f"L2 {scale.l2.size_bytes // 1024} KB",
                                     scale.tlb.reach_bytes < scale.l2.size_bytes)])


@experiment("table2", "SPLASH-2 problem sizes")
def table2(scale: MachineScale) -> ExperimentResult:
    apps = app_suite(scale, tuned_inputs=False)
    paper = {
        "fft-cache": "1M points",
        f"radix-{pathological_radix(scale)}": "2M keys (radix 256)",
        "lu": "768x768 matrix, 16x16 blocks",
        "ocean": "514x514 grid",
    }
    rows = [[wl.name, paper.get(wl.name, "?"), wl.problem_description()]
            for wl in apps]
    rendered = render_text([
        Para("Table 2: problem sizes"),
        Table("ttt", ["application", "paper", f"repro ({scale.name})"],
              rows)])
    return ExperimentResult("table2", _TITLES["table2"], rendered, [])


# ---------------------------------------------------------------------------
# Table 3: dependent-load protocol cases + the calibration loop
# ---------------------------------------------------------------------------

@experiment("table3", "snbench dependent loads: hardware vs (un)tuned FlashLite")
def table3(scale: MachineScale) -> ExperimentResult:
    hw = measure_all_cases(hardware_config(), scale)
    untuned_cfg = simos_mipsy(150, tuned=False)
    untuned = measure_all_cases(untuned_cfg, scale)
    tuned_cfg, report = Tuner(scale=scale).fit(untuned_cfg)
    tuned = report.after_cases_ns
    rows = []
    for case in PROTOCOL_CASES:
        rows.append([
            case,
            f"{hw[case]:.0f} ({TABLE3_HARDWARE_NS[case]})",
            f"{tuned[case]:.0f} ({TABLE3_TUNED_NS[case]})",
            f"{untuned[case]:.0f} ({TABLE3_UNTUNED_NS[case]})",
        ])
    rendered = render_text([
        Para("Table 3: dependent-load latency in ns, measured (paper)"),
        Table("tnnn", ["protocol case", "hardware", "tuned FL", "untuned FL"],
              rows),
        *report.blocks()])
    findings = []
    for case in PROTOCOL_CASES:
        err = abs(hw[case] - TABLE3_HARDWARE_NS[case]) / TABLE3_HARDWARE_NS[case]
        findings.append(Finding(
            f"hardware {case}", f"{TABLE3_HARDWARE_NS[case]} ns",
            f"{hw[case]:.0f} ns", err < 0.03))
    findings.append(Finding(
        "untuned error pattern", "fast on clean paths, slow on 3-hop dirty",
        f"local_clean {untuned['local_clean']:.0f} < hw, "
        f"dirty_remote {untuned['remote_dirty_remote']:.0f} > hw",
        untuned["local_clean"] < hw["local_clean"]
        and untuned["remote_dirty_remote"] > hw["remote_dirty_remote"]))
    findings.append(Finding(
        "tuning closes the loop", "tuned within ~5% of hardware",
        f"max case error {report.max_case_error() * 100:.1f}%",
        report.max_case_error() < 0.05,
        attribution=report.to_dict()))
    return ExperimentResult("table3", _TITLES["table3"], rendered, findings)


@experiment("tlb_microbench", "TLB refill cost: hardware 65 cycles vs models")
def tlb_microbench(scale: MachineScale) -> ExperimentResult:
    rows = []
    measured = {}
    for label, cfg, paper_cycles in (
        ("hardware", hardware_config(), HW_TLB_REFILL_CYCLES),
        ("SimOS-Mipsy untuned", simos_mipsy(150), MIPSY_UNTUNED_TLB_CYCLES),
        ("SimOS-MXS untuned", simos_mxs(), MXS_UNTUNED_TLB_CYCLES),
        ("SimOS-Mipsy tuned", simos_mipsy(150, tuned=True),
         HW_TLB_REFILL_CYCLES),
        ("Solo (no TLB)", solo_mipsy(150), 0),
    ):
        cycles = measure_tlb_refill(cfg, scale)
        measured[label] = cycles
        rows.append([label, str(paper_cycles), f"{cycles:.1f}"])
    rendered = render_text([Para("TLB miss cost (processor cycles)"),
                            Table("tnn", ["model", "paper", "measured"],
                                  rows)])
    findings = [
        Finding("hardware refill", "65 cycles",
                f"{measured['hardware']:.1f}",
                _within(measured["hardware"], 60, 72)),
        Finding("untuned Mipsy refill", "25 cycles",
                f"{measured['SimOS-Mipsy untuned']:.1f}",
                _within(measured["SimOS-Mipsy untuned"], 22, 30)),
        Finding("untuned MXS refill", "35 cycles",
                f"{measured['SimOS-MXS untuned']:.1f}",
                _within(measured["SimOS-MXS untuned"], 31, 41)),
        Finding("Solo models no TLB", "no TLB at all",
                f"{measured['Solo (no TLB)']:.1f}",
                measured["Solo (no TLB)"] < 3),
    ]
    return ExperimentResult("tlb_microbench", _TITLES["tlb_microbench"],
                            rendered, findings)


# ---------------------------------------------------------------------------
# Figures 1-4: the comparison figures
# ---------------------------------------------------------------------------

def _comparison_figure(exp_id: str, scale: MachineScale, tuned_sims: bool,
                       tuned_apps: bool, n_cpus: int) -> ExperimentResult:
    configs = figure_lineup(tuned=tuned_sims)
    workloads = app_suite(scale, tuned_inputs=tuned_apps)
    table = compare_simulators(configs, workloads, n_cpus=n_cpus,
                               title=_TITLES[exp_id])
    charts = [table.format(), ""]
    for workload, rows in table.by_workload().items():
        charts.append(bar_chart(
            f"{workload} (relative execution time, {n_cpus} CPU)",
            [r.config for r in rows], [r.relative for r in rows]))
    return ExperimentResult(exp_id, _TITLES[exp_id], "\n".join(charts)), table


@experiment("fig1", "initial uniprocessor SPLASH-2 results (untuned everything)")
def fig1(scale: MachineScale) -> ExperimentResult:
    result, table = _comparison_figure("fig1", scale, tuned_sims=False,
                                       tuned_apps=False, n_cpus=1)
    rels = [row.relative for row in table.rows]
    spread = max(rels) - min(rels)
    result.findings = [
        Finding("initial results 'not encouraging'",
                "wide scatter, 0.3-1.8, simulators do not track each other",
                f"spread {min(rels):.2f}-{max(rels):.2f}", spread > 0.5),
        Finding("most simulators faster than hardware",
                "most, but not all, below 1.0",
                f"{sum(1 for r in rels if r < 1.0)}/{len(rels)} below 1.0",
                sum(1 for r in rels if r < 1.0) > len(rels) / 2),
    ]
    return result


@experiment("fig2", "uniprocessor results after application TLB-blocking fixes")
def fig2(scale: MachineScale) -> ExperimentResult:
    result, table = _comparison_figure("fig2", scale, tuned_sims=False,
                                       tuned_apps=True, n_cpus=1)
    radix_name = f"radix-{tuned_radix(scale)}"
    radix_rels = [r.relative for r in table.rows if r.workload == radix_name]
    result.findings = [
        Finding("Radix-Sort much closer after blocking fix",
                "simulated times now much closer to hardware",
                f"radix spread {min(radix_rels):.2f}-{max(radix_rels):.2f}",
                max(radix_rels) - min(radix_rels) < 1.0),
        Finding("Solo predicts slower-than-hardware uniprocessor Ocean",
                "Solo much slower than hardware or SimOS-Mipsy (page coloring)",
                f"solo-mipsy-150 ocean rel "
                f"{table.relative_of('ocean', 'solo-mipsy-150'):.2f} vs "
                f"simos-mipsy-150 {table.relative_of('ocean', 'simos-mipsy-150'):.2f}",
                table.relative_of("ocean", "solo-mipsy-150")
                > 1.15 * table.relative_of("ocean", "simos-mipsy-150")),
    ]
    # Latency-anatomy evidence for the "closer to hardware" claim: the
    # measured per-kind miss-latency distribution on the hardware model
    # (one extra run under the txn recorder, outside the farm -- the
    # anatomy is a simulation side effect the result cache cannot replay).
    result.attribution = evidence(
        hardware_config(), make_app("fft", scale, tuned_inputs=True),
        n_cpus=1, kinds=("txn",), top_k=3)["txn"]
    return result


@experiment("fig3", "final uniprocessor comparison (tuned simulators)")
def fig3(scale: MachineScale) -> ExperimentResult:
    result, table = _comparison_figure("fig3", scale, tuned_sims=True,
                                       tuned_apps=True, n_cpus=1)
    radix_name = f"radix-{tuned_radix(scale)}"
    mipsy225 = "simos-mipsy-225-tuned"
    mxs = "simos-mxs-150-tuned"
    result.findings = [
        Finding("SimOS-Mipsy-225 nearly exact for FFT",
                "within ~5%", f"{table.relative_of('fft-tlb', mipsy225):.2f}",
                _within(table.relative_of("fft-tlb", mipsy225), 0.85, 1.15)),
        Finding("SimOS-Mipsy-225 nearly exact for LU",
                "within ~5%", f"{table.relative_of('lu', mipsy225):.2f}",
                _within(table.relative_of("lu", mipsy225), 0.85, 1.15)),
        Finding("Mipsy-225 underpredicts Radix (no instruction latencies)",
                "~0.7-0.8", f"{table.relative_of(radix_name, mipsy225):.2f}",
                _within(table.relative_of(radix_name, mipsy225), 0.55, 0.92)),
        Finding("Mipsy-225 underpredicts Ocean (no FP latencies)",
                "~0.7-0.8", f"{table.relative_of('ocean', mipsy225):.2f}",
                _within(table.relative_of("ocean", mipsy225), 0.55, 0.92)),
        Finding("MXS 20-30% faster than hardware (missing constraints)",
                "0.7-0.8 across applications",
                ", ".join(f"{w}={table.relative_of(w, mxs):.2f}"
                          for w in ("fft-tlb", "lu")),
                all(_within(table.relative_of(w, mxs), 0.6, 0.92)
                    for w in ("fft-tlb", "lu"))),
        Finding("Solo badly mispredicts uniprocessor Ocean",
                "~1.4-1.6 (conflict misses from its page allocation)",
                f"{table.relative_of('ocean', 'solo-mipsy-225-tuned'):.2f}",
                table.relative_of("ocean", "solo-mipsy-225-tuned") > 1.1,
                note="smaller margin than paper: see DESIGN.md scale notes"),
        Finding("Solo matches SimOS for FFT/LU (no OS effects left)",
                "nearly identical to SimOS-Mipsy",
                ", ".join(
                    f"{w}: {table.relative_of(w, 'solo-mipsy-225-tuned'):.2f}"
                    f"/{table.relative_of(w, mipsy225):.2f}"
                    for w in ("fft-tlb", "lu")),
                all(abs(table.relative_of(w, "solo-mipsy-225-tuned")
                        - table.relative_of(w, mipsy225)) < 0.15
                    for w in ("fft-tlb", "lu"))),
    ]
    return result


@experiment("fig4", "final 4-processor comparison (tuned simulators)")
def fig4(scale: MachineScale) -> ExperimentResult:
    result, table = _comparison_figure("fig4", scale, tuned_sims=True,
                                       tuned_apps=True, n_cpus=4)
    result.findings = [
        Finding("same effects as uniprocessor",
                "4-CPU picture matches the uniprocessor one",
                f"mipsy-225 fft {table.relative_of('fft-tlb', 'simos-mipsy-225-tuned'):.2f}",
                _within(table.relative_of("fft-tlb", "simos-mipsy-225-tuned"),
                        0.8, 1.2)),
        Finding("Solo's Ocean allocation problem vanishes at 4 CPUs",
                "physical allocation no longer a problem on four processors",
                f"solo ocean rel {table.relative_of('ocean', 'solo-mipsy-225-tuned'):.2f}",
                table.relative_of("ocean", "solo-mipsy-225-tuned") < 1.25),
    ]
    return result


# ---------------------------------------------------------------------------
# Figures 5-7: trend studies
# ---------------------------------------------------------------------------

@experiment("fig5", "FFT speedup: 300 MHz Mipsy is misleading")
def fig5(scale: MachineScale) -> ExperimentResult:
    configs = [hardware_config(), simos_mxs(tuned=True),
               simos_mipsy(225, tuned=True), simos_mipsy(300, tuned=True)]
    workload = make_app("fft", scale, tuned_inputs=True)
    study = speedup_study(configs, workload)
    series = {c.config: c.speedups for c in study.curves}
    rendered = study.format() + "\n\n" + line_chart(
        "Figure 5: FFT speedup", sorted(study.curves[0].times_ps), series)
    hw16 = study.curve_of("hardware").at(16)
    mxs16 = study.curve_of("simos-mxs-150-tuned").at(16)
    m300 = study.curve_of("simos-mipsy-300-tuned").at(16)
    findings = [
        Finding("hardware FFT speedup near-linear", "~15 at 16 CPUs",
                f"{hw16:.1f}", hw16 > 8.5,
                note="transpose communication weighs more at repro scale"),
        Finding("detailed models close to hardware trend",
                "MXS and Mipsy-225 close to hardware, slightly low",
                f"MXS {mxs16:.1f} vs hw {hw16:.1f}",
                abs(mxs16 - hw16) / hw16 < 0.30),
        Finding("Mipsy-300 misleading at 16 CPUs",
                "over-fast requests cause contention absent on hardware",
                f"{m300:.1f} vs hw {hw16:.1f}",
                m300 < 0.92 * hw16),
    ]
    return ExperimentResult("fig5", _TITLES["fig5"], rendered, findings)


@experiment("fig6", "Radix speedup: Solo wrongly predicts good scaling")
def fig6(scale: MachineScale) -> ExperimentResult:
    configs = [hardware_config(), simos_mipsy(225, tuned=True),
               solo_mipsy(225, tuned=True)]
    workload = make_app("radix", scale, tuned_inputs=True)
    study = speedup_study(configs, workload)
    series = {c.config: c.speedups for c in study.curves}
    rendered = study.format() + "\n\n" + line_chart(
        "Figure 6: Radix speedup", sorted(study.curves[0].times_ps), series)
    hw16 = study.curve_of("hardware").at(16)
    simos16 = study.curve_of("simos-mipsy-225-tuned").at(16)
    solo16 = study.curve_of("solo-mipsy-225-tuned").at(16)
    findings = [
        Finding("hardware Radix speedup poor", "5.3 at 16 CPUs",
                f"{hw16:.1f}", hw16 < 10.5,
                note="communication-bound; less severe at repro scale"),
        Finding("SimOS predicts the poor speedup",
                "all SimOS runs accurately predict it",
                f"{simos16:.1f} vs hw {hw16:.1f}",
                abs(simos16 - hw16) / hw16 < 0.35),
        Finding("Solo incorrectly predicts good speedup",
                "Solo's allocation avoids the conflicts IRIX creates",
                f"{solo16:.1f} vs hw {hw16:.1f}",
                solo16 > 1.3 * hw16,
                note="KNOWN DIVERGENCE: the allocation accident does not "
                     "reproduce at repro scale (conflict windows shrink "
                     "with the per-CPU data; see EXPERIMENTS.md)"),
    ]
    return ExperimentResult("fig6", _TITLES["fig6"], rendered, findings)


@experiment("fig7", "unplaced Radix hotspot: FlashLite vs NUMA")
def fig7(scale: MachineScale) -> ExperimentResult:
    base = simos_mipsy(225, tuned=True)
    configs = [
        hardware_config(),
        base,
        simos_mipsy(225, tuned=False).derive(core=base.core),  # untuned FL
        base.derive("-numa", memsys=numa()),
    ]
    workload = make_app("radix", scale, tuned_inputs=True)
    study = hotspot_study(configs, workload, reference_name="hardware")
    rendered = study.format()
    hw16 = study.study.curve_of("hardware").at(16)
    fl16 = study.study.curve_of(base.name).at(16)
    untuned16 = study.study.curve_of(configs[2].name).at(16)
    numa16 = study.study.curve_of(configs[3].name).at(16)
    # Compare the memory-system models on the same (Mipsy) core so the
    # processor-model residual does not contaminate the sensitivity story.
    numa_over_fl = (numa16 - fl16) / fl16
    # One extra reference run under the topo and txn recorders (outside
    # the farm -- recorder state is a simulation side effect the result
    # cache cannot replay) supplies both attributions below.
    observed = evidence(hardware_config(), workload, n_cpus=8,
                        placement=Placement.NODE0, top_k=3)
    findings = [
        Finding("hotspot ruins hardware speedup",
                "~3.3 at 8, ~3.6 at 16 CPUs (vs ~5.3 placed)",
                f"{study.study.curve_of('hardware').at(8):.2f} at 8, "
                f"{hw16:.2f} at 16",
                hw16 < 6.0),
        Finding("both FlashLite variants predict the terrible speedup",
                "tuned within 7%; untuned also predicts it well",
                f"tuned {fl16:.2f}, untuned {untuned16:.2f} vs hw {hw16:.2f}",
                fl16 < 0.75 * 9.5 and untuned16 < 0.75 * 9.5,
                note="larger core-model residual than paper: Mipsy's "
                     "blocking reads amplify hotspot queueing"),
        Finding("NUMA (no occupancy modelling) overpredicts the speedup",
                "off by 31% at 16 CPUs relative to the occupancy model",
                f"+{numa_over_fl:.0%} vs the same-core FlashLite run",
                numa_over_fl > 0.15,
                # The anatomy behind the sensitivity: under node-0
                # placement the slow transactions spend their time queued
                # at the home directory/MAGIC -- exactly the occupancy the
                # NUMA model omits.
                attribution=observed["txn"]),
    ]
    result = ExperimentResult("fig7", _TITLES["fig7"], rendered, findings)
    # Spatial evidence that the hotspot is real: under node-0 placement the
    # traffic matrix collapses onto one home column.
    result.attribution = observed["topo"]
    return result


# ---------------------------------------------------------------------------
# Section 3.1 narratives
# ---------------------------------------------------------------------------

@experiment("tlb_blocking", "application TLB fixes measured on the hardware")
def tlb_blocking(scale: MachineScale) -> ExperimentResult:
    hw = hardware_config()
    rows = []
    gains = {}
    # All eight hardware runs (2 apps x before/after fix x 1/4 CPUs) are
    # independent: one farm batch.
    grid = [(app, n_cpus)
            for n_cpus in (1, 4)
            for app in ("fft_cache", "fft_tlb", "radix_path", "radix_fix")]
    workload_of = {
        "fft_cache": lambda: FftWorkload(scale, blocking="cache"),
        "fft_tlb": lambda: FftWorkload(scale, blocking="tlb"),
        "radix_path": lambda: RadixWorkload(
            scale, radix=pathological_radix(scale)),
        "radix_fix": lambda: RadixWorkload(scale, radix=tuned_radix(scale)),
    }
    outcomes = farm_hooks.dispatch([
        RunRequest(hw, workload_of[app](), n_cpus)
        for app, n_cpus in grid
    ])
    times = {key: result.parallel_ps
             for key, result in zip(grid, outcomes)}
    for n_cpus in (1, 4):
        gains[("fft", n_cpus)] = (
            1 - times[("fft_tlb", n_cpus)] / times[("fft_cache", n_cpus)])
        gains[("radix", n_cpus)] = (
            1 - times[("radix_fix", n_cpus)] / times[("radix_path", n_cpus)])
        rows.append([f"FFT blocked for TLB, P={n_cpus}",
                     "14%" if n_cpus == 1 else "16%",
                     f"{gains[('fft', n_cpus)]:.0%}"])
        rows.append([f"Radix {pathological_radix(scale)} -> "
                     f"{tuned_radix(scale)}, P={n_cpus}",
                     "31%" if n_cpus == 1 else "34%",
                     f"{gains[('radix', n_cpus)]:.0%}"])
    rendered = render_text([
        Para("hardware gains from the application-level TLB fixes"),
        Table("tnn", ["fix", "paper gain", "measured gain"], rows),
        Para("Note: gains exceed the paper's because at repro scale TLB "
             "reach shrinks faster than the n*log(n) compute (DESIGN.md, "
             "scale substitution).")])
    findings = [
        Finding("FFT TLB blocking helps on hardware", "+14% (uni), +16% (4P)",
                f"+{gains[('fft', 1)]:.0%} (uni), +{gains[('fft', 4)]:.0%} (4P)",
                gains[("fft", 1)] > 0.08 and gains[("fft", 4)] > 0.08),
        Finding("reducing the radix helps on hardware", "+31% (uni), +34% (4P)",
                f"+{gains[('radix', 1)]:.0%} (uni), +{gains[('radix', 4)]:.0%} (4P)",
                gains[("radix", 1)] > 0.15 and gains[("radix", 4)] > 0.15),
    ]
    return ExperimentResult("tlb_blocking", _TITLES["tlb_blocking"],
                            rendered, findings)


@experiment("instr_latency", "adding 5-cycle muls / 19-cycle divs to Mipsy")
def instr_latency(scale: MachineScale) -> ExperimentResult:
    workload = make_app("radix", scale, tuned_inputs=True)
    base_cfg = simos_mipsy(225, tuned=True)
    latcore = replace(base_cfg.core, model_instruction_latencies=True)
    ref, base, fixed = farm_hooks.dispatch([
        RunRequest(hardware_config(), workload, 1),
        RunRequest(base_cfg, workload, 1),
        RunRequest(base_cfg.derive("-lat", core=latcore), workload, 1),
    ])
    rel_before = base.parallel_ps / ref.parallel_ps
    rel_after = fixed.parallel_ps / ref.parallel_ps
    rendered = render_text([
        Para("Radix-Sort relative time on SimOS-Mipsy-225"),
        Table("tnn", ["model", "paper", "measured"],
              [["without instruction latencies", "0.71", f"{rel_before:.2f}"],
               ["with 5-cycle IMUL / 19-cycle IDIV", "1.02",
                f"{rel_after:.2f}"]])])
    findings = [
        Finding("latency modelling closes the Radix gap",
                "0.71 -> 1.02",
                f"{rel_before:.2f} -> {rel_after:.2f}",
                rel_before < 0.9 and abs(rel_after - 1.0) < abs(rel_before - 1.0)),
    ]
    return ExperimentResult("instr_latency", _TITLES["instr_latency"],
                            rendered, findings)


@experiment("bugs", "the two MXS performance bugs, injected and measured")
def bugs_experiment(scale: MachineScale) -> ExperimentResult:
    mxs = simos_mxs(tuned=True)
    fast = demonstrate_bug(FAST_ISSUE_BUG, mxs,
                           make_app("fft", scale, tuned_inputs=True))
    flush = demonstrate_bug(CACHEOP_BUG, mxs, CacheFlushWorkload(scale))
    rendered = "\n".join([fast.format(), flush.format()])
    findings = [
        Finding("fast-issue bug quietly speeds up MXS",
                "results believable, wrong",
                f"{fast.distortion:+.1%} on FFT",
                -0.25 < fast.distortion < -0.03),
        Finding("CACHE-instruction bug adds ~1M-cycle stalls",
                "hidden for months (small vs total run time)",
                f"{flush.distortion:+.1%} on the flush kernel",
                flush.distortion > 0.05),
    ]
    return ExperimentResult("bugs", _TITLES["bugs"], rendered, findings)


@experiment("tuning_loop", "the calibration loop end to end")
def tuning_loop(scale: MachineScale) -> ExperimentResult:
    tuned, report = Tuner(scale=scale).fit(simos_mipsy(150, tuned=False))
    findings = [
        Finding("TLB refill calibrated", "25 -> 65 cycles",
                f"{report.before_tlb_cycles:.0f} -> {report.after_tlb_cycles:.0f}",
                abs(report.after_tlb_cycles - report.target_tlb_cycles) < 5),
        Finding("interface occupancy recovered", "~11.5 cycles (77 ns)",
                f"{report.port_occupancy_cycles:.1f} cycles",
                _within(report.port_occupancy_cycles, 9, 14)),
        Finding("all five protocol cases converge", "matched after tuning",
                f"max error {report.max_case_error() * 100:.1f}%",
                report.max_case_error() < 0.05),
    ]
    return ExperimentResult("tuning_loop", _TITLES["tuning_loop"],
                            report.format(), findings,
                            attribution=report.to_dict())
