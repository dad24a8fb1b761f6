"""Self-test of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

The tracer is tested on synthetic call trees under a fake clock, where
every self time is known exactly; the driver through a ``--quick`` run
that must emit every catalogued metric; the catalogue against
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import metrics as catalogue  # noqa: E402
import run as driver  # noqa: E402
import trace as hosttrace  # noqa: E402
from trace import ROOT_LAYER, Tracer  # noqa: E402

assert Path(hosttrace.__file__).parent == HERE, "stdlib trace shadowed ours"


class FakeClock:
    """Every reading is one tick later, so durations are exact integers."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def total_self(tracer: Tracer) -> float:
    return sum(b["self_s"] for b in tracer.boundaries().values())


# -- the tracer on synthetic trees -------------------------------------------

def test_self_times_partition_the_root_span():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.wrap(lambda x: x + 1, "leaf", "mem")
    mid = tracer.wrap(lambda x: leaf(leaf(x)), "mid", "cpu.interface")
    top = tracer.wrap(lambda x: mid(x) + leaf(x), "top", "cpu.core")

    assert tracer.span("pass", ROOT_LAYER, top, 1) == 5
    assert tracer.balanced
    bounds = tracer.boundaries()
    assert bounds["leaf"]["calls"] == 3 and bounds["mid"]["calls"] == 1
    # Each span costs 1 tick itself plus 2 ticks per child boundary.
    assert bounds["leaf"]["self_s"] == 3.0
    assert bounds["mid"]["total_s"] == 5.0 and bounds["mid"]["self_s"] == 3.0
    assert total_self(tracer) == bounds["pass"]["total_s"]
    layers = tracer.layers()
    assert sum(layer["self_s"] for layer in layers.values()) \
        == bounds["pass"]["total_s"]
    report = tracer.report("pass")
    assert report["residual_s"] == bounds["pass"]["self_s"]
    assert report["spans"] == 6 and len(report["raw_spans"]) == 6
    by_id = {span["id"]: span for span in report["raw_spans"]}
    assert by_id[0]["name"] == "pass" and by_id[0]["parent"] is None
    assert all(by_id[s["parent"]]["start"] <= s["start"]
               and s["end"] <= by_id[s["parent"]]["end"]
               for s in by_id.values() if s["parent"] is not None)


def test_generator_resumes_are_spans_and_keep_values():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.wrap(lambda: None, "leaf", "mem")

    def child():
        leaf()
        got = yield "c1"
        return got * 2

    def parent():
        doubled = yield from tracer.proxy(child())
        leaf()
        yield doubled
        return "done"

    wrapped = tracer.wrap(parent, "parent", "memsys")

    def drive():
        gen = wrapped()
        assert next(gen) == "c1"
        assert gen.send(21) == 42
        with pytest.raises(StopIteration) as stop:
            gen.send(None)
        return stop.value.value

    assert tracer.span("pass", ROOT_LAYER, drive) == "done"
    assert tracer.balanced
    bounds = tracer.boundaries()
    assert bounds["parent"]["calls"] == 3          # three resumes
    child_name = next(n for n in bounds if n.startswith("resume:"))
    assert child_name.endswith("child") and bounds[child_name]["calls"] == 2
    assert total_self(tracer) == bounds["pass"]["total_s"]


def test_exceptions_and_throw_keep_the_stack_balanced():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise KeyError("x")

    wrapped_boom = tracer.wrap(boom, "boom", "proto")

    def gen_fn():
        try:
            yield 1
        except ValueError:
            wrapped_boom()

    def drive():
        gen = tracer.proxy(gen_fn())
        assert gen.send(None) == 1
        gen.throw(ValueError("in"))

    with pytest.raises(KeyError):
        tracer.span("pass", ROOT_LAYER, drive)
    assert tracer.balanced
    bounds = tracer.boundaries()
    assert bounds["boom"]["calls"] == 1
    assert total_self(tracer) == bounds["pass"]["total_s"]

    gen = tracer.proxy(gen_fn())
    next(gen)
    gen.close()
    assert tracer.balanced


def test_wrappers_preserve_signature_properties_and_static_methods():
    class Thing:
        def __init__(self):
            self.items = [1, 2]

        def method(self, a, b=2, *rest, **kw):
            """doc"""
            return (a, b, rest, kw)

        @property
        def full(self):
            return len(self.items) >= 2

        @staticmethod
        def static(x):
            return x * 3

        def _private(self):
            return "untouched"

    tracer = Tracer(clock=FakeClock())
    before = dict(vars(Thing))
    for attr in ("method", "full", "static"):
        tracer._patch(Thing, attr, f"Thing.{attr}", "mem", False)
    thing = Thing()
    assert thing.method(1, 3, 4, k=5) == (1, 3, (4,), {"k": 5})
    assert Thing.method.__doc__ == "doc"
    assert thing.full is True
    assert Thing.static(2) == 6 and thing.static(2) == 6
    assert {n: b["calls"] for n, b in tracer.boundaries().items()} == {
        "Thing.method": 1, "Thing.full": 1, "Thing.static": 2}
    tracer.uninstall()
    assert dict(vars(Thing)) == before
    assert thing.method(1) == (1, 2, (), {})
    assert tracer.n_spans == 4                       # no span after uninstall


def test_only_the_first_spans_are_kept_raw():
    tracer = Tracer(clock=FakeClock(), keep_spans=3)
    leaf = tracer.wrap(lambda: None, "leaf", "mem")
    tracer.span("pass", ROOT_LAYER, lambda: [leaf() for _ in range(10)])
    assert tracer.n_spans == 11
    assert sorted(span[0] for span in tracer.raw) == [0, 1, 2]


# -- the tracer over the program ---------------------------------------------

def test_install_patches_and_uninstall_restores():
    from repro.engine.kernel import Engine
    from repro.mem.write_buffer import WriteBuffer
    from repro.workloads.fft import FftWorkload
    originals = (Engine.run, Engine.process, vars(WriteBuffer)["full"],
                 FftWorkload.build)
    tracer = Tracer()
    with tracer:
        assert Engine.run is not originals[0]
        assert vars(WriteBuffer)["full"] is not originals[2]
        assert FftWorkload.build is not originals[3]
        assert tracer.missing == []
    assert (Engine.run, Engine.process, vars(WriteBuffer)["full"],
            FftWorkload.build) == originals


def test_missing_boundaries_are_listed_not_fatal(monkeypatch):
    monkeypatch.setattr(hosttrace, "BOUNDARIES", (
        ("repro.engine.kernel", "Engine.run", "engine"),
        ("repro.engine.kernel", "Engine.renamed_away", "engine"),
        ("repro.engine.kernel", "NoSuchClass.*", "engine"),
        ("repro.no_such_module", "Thing.method", "other"),
    ))
    tracer = Tracer()
    with tracer:
        assert tracer.missing == [
            "repro.engine.kernel:Engine.renamed_away",
            "repro.engine.kernel:NoSuchClass.*",
            "repro.no_such_module:Thing.method",
        ]
        assert len(tracer._patches) == 1


def test_inherited_boundary_is_patched_where_it_is_defined(monkeypatch):
    from repro.cpu.core import CpuCore
    monkeypatch.setattr(hosttrace, "BOUNDARIES", (
        ("repro.cpu.window", "R10kCore.run_trace", "cpu.core"),))
    original = CpuCore.run_trace
    tracer = Tracer()
    with tracer:
        assert tracer.missing == []
        assert CpuCore.run_trace is not original
    assert CpuCore.run_trace is original


def test_traced_simulation_is_bit_identical_and_partitions():
    from repro.common.canonical import stable_hash
    from repro.common.config import TINY_SCALE
    from repro.sim.configs import get_config
    from repro.sim.machine import Machine
    from repro.workloads import make_app

    def simulate():
        machine = Machine(get_config("hardware"), 2, TINY_SCALE)
        return stable_hash(machine.run(make_app("ocean", TINY_SCALE))
                           .to_dict())

    plain = simulate()
    tracer = Tracer()
    with tracer:
        traced = tracer.span("pass", ROOT_LAYER, simulate)
    assert traced == plain and tracer.balanced
    report = tracer.report("pass")
    assert report["residual_frac"] < 0.5        # Machine() is not a boundary
    layers = report["layers"]
    assert {"engine", "cpu.core", "cpu.interface", "mem", "memsys", "proto",
            "network", "sim", "workloads"} <= set(layers)
    assert sum(layer["self_s"] for layer in layers.values()) \
        == pytest.approx(report["wall_s"], rel=1e-6)
    assert simulate() == plain


# -- host-speed calibration ----------------------------------------------------

def test_host_speed_factors_bracket_each_stretch(monkeypatch):
    assert hostspeed.reference() > 0
    readings = iter([0.040, 0.080, 0.020])
    monkeypatch.setattr(hostspeed, "reference", lambda: next(readings))
    monkeypatch.setattr(hostspeed, "NOMINAL_S", 0.040)
    speed = hostspeed.HostSpeed()
    # Slow on average around the first stretch, fast around the next; the
    # middle sample is shared.
    assert speed.since_last() == pytest.approx(0.040 / 0.060)
    assert speed.since_last() == pytest.approx(0.040 / 0.050)


# -- catalogue and contract ----------------------------------------------------

def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == list(catalogue.WORKLOADS.items())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in catalogue.END_TO_END
        if m.name in catalogue.CONTRACT_END_TO_END]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in catalogue.PER_LAYER]
    assert len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] \
        + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))


def result_file(wall, samples, digest="d0", events=10):
    return {"workloads": {"w": {
        "end_to_end": {"wall_s": {"value": wall, "unit": "s", "n": 3},
                       "peak_rss_mb": {"value": 50.0, "unit": "MiB", "n": 1}},
        "samples": {"wall_s": samples},
        "per_layer": {"engine.events": {"value": events, "unit": "count",
                                        "n": 1}},
        "digests": {"sim": digest},
    }}}


def test_compare_verdicts(capsys):
    steady = [10.0, 10.1, 9.9]
    base = result_file(10.0, steady)
    bound = catalogue.END_TO_END_BY_NAME["wall_s"].bound

    def shifted(factor, **kwargs):
        return result_file(10.0 * factor, [v * factor for v in steady],
                           **kwargs)

    assert driver.compare(base, shifted(1 + bound / 2)) == 0
    assert "same" in capsys.readouterr().out
    assert driver.compare(base, shifted(1 + 2 * bound)) == 1
    assert "worse" in capsys.readouterr().out
    assert driver.compare(base, shifted(1 - 2 * bound)) == 0
    assert "better" in capsys.readouterr().out
    noisy = result_file(20.0, [5.0, 20.0, 35.0])
    assert driver.compare(base, noisy) == 0
    assert "unresolved" in capsys.readouterr().out
    # Counts and digests are diffed, but only the repeat check fails on them.
    moved = shifted(1.0, digest="d1", events=11)
    assert driver.compare(base, moved) == 0
    out = capsys.readouterr().out
    assert "engine.events" in out and "digest sim" in out
    assert driver.compare(base, moved, symmetric=True) == 1
    assert driver.compare(base, shifted(1 - 2 * bound), symmetric=True) == 1
    assert driver.compare(base, shifted(1 + bound / 2), symmetric=True) == 0


def run_driver(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_quick_smoke_emits_every_metric(tmp_path):
    out = tmp_path / "quick.json"
    done = run_driver("--quick", "--json", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    results = json.loads(out.read_text())
    assert set(results["env"]) >= {"git_commit", "nproc", "python", "numpy",
                                   "seed", "passes", "loadavg_1m_at_start"}
    assert set(results["workloads"]) == set(catalogue.WORKLOADS)
    for name, workload in results["workloads"].items():
        assert workload["failed"] == 0 and workload["attempted"] >= 1
        assert set(workload["per_layer"]) \
            == {m.name for m in catalogue.PER_LAYER}
        assert set(workload["end_to_end"]) == {
            m.name for m in catalogue.END_TO_END
            if catalogue.applies(m, name)}
        for section in ("end_to_end", "per_layer"):
            for metric, cell in workload[section].items():
                assert set(cell) == {"value", "unit", "n"}, metric
                assert metric in done.stdout
        assert workload["end_to_end"]["sim_digest_stable"]["value"] == 1.0
        samples = workload["samples"]
        assert [raw * speed for raw, speed in
                zip(samples["wall_raw_s"], samples["host_speed"])] \
            == pytest.approx(samples["wall_s"])
        layer = workload["per_layer"]
        assert layer["trace.residual_frac"]["value"] < 0.02
        assert layer["trace.missing_boundaries"]["value"] == 0
        assert (layer["network.self_s"]["value"] > 0) \
            == (name in ("sharing_p16",))
    resident = results["workloads"]["resident_loop"]["per_layer"]
    assert resident["fastpath.identical"]["value"] == 1.0
    assert resident["engine.self_s"]["value"] \
        < 0.02 * sum(resident[f"{layer}.self_s"]["value"] for layer in
                     ("engine", "cpu.core", "cpu.interface", "mem"))
    trace_file = json.loads(out.with_name("quick.trace.json").read_text())
    assert 0 < len(trace_file["splash_p1"]["default"]["raw_spans"]) <= 1000
    assert "raw_spans" not in results["workloads"]["splash_p1"]["trace"][
        "default"]


def test_contract_line_and_bare_directory(tmp_path):
    done = run_driver("--workload", "resident_loop", "--seed", "5",
                      "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == set(catalogue.CONTRACT_END_TO_END)
    assert all(cell["value"] > 0 for cell in line["metrics"].values())

    # Only BENCHMARK.json and the benchmark's own files: no program to run.
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run_driver("--workload", "resident_loop", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=bare,
                      script=bare / "benchmarks" / "e2e" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
