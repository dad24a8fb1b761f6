"""The experiment farm's lock-down net: determinism, caching, pickling.

The farm's whole contract is that parallel fan-out and cached replay are
*indistinguishable* from the historical serial loop.  This module pins
that contract:

* cache keys are stable content addresses (identity in, identity out;
  seeds/scales/shapes change the key);
* serial execution, a ``jobs=2`` pool, and cache-hit replay of the same
  batch produce identical :class:`RunResult` payloads;
* every experiment's result survives a process boundary (pickle), and
  ``RunRequest``/``RunResult`` pickle-round-trip *equal*; together with
  the ``jobs=2`` suite this is the picklability contract (a test, not a
  lint rule).
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.config import REPRO_SCALE, TINY_SCALE
from repro.harness import Farm, ResultCache, run_experiment
from repro.harness.experiments import experiment_ids
from repro.harness.farm import CACHE_DIR_ENV, default_cache_dir
from repro.harness.findings import ExperimentResult
from repro.sim import RunRequest, simos_mipsy
from repro.sim import farm_hooks
from repro.workloads import make_app


def tiny_request(mhz=150, n_cpus=1, seed=None, scale=TINY_SCALE):
    kwargs = {} if seed is None else {"seed": seed}
    return RunRequest(simos_mipsy(mhz), make_app("fft", scale),
                      n_cpus=n_cpus, **kwargs)


def tiny_batch():
    """A small mixed batch: two clock rates x two CPU counts."""
    return [tiny_request(mhz, n_cpus)
            for mhz in (150, 225) for n_cpus in (1, 2)]


class TestCacheKey:
    def test_equal_requests_equal_keys(self):
        assert tiny_request().cache_key() == tiny_request().cache_key()

    def test_key_is_a_content_address(self):
        key = tiny_request().cache_key()
        assert len(key) == 64
        int(key, 16)  # 64 hex chars

    def test_seed_changes_key(self):
        assert (tiny_request(seed=1).cache_key()
                != tiny_request(seed=2).cache_key())

    def test_scale_changes_key(self):
        assert (tiny_request(scale=TINY_SCALE).cache_key()
                != tiny_request(scale=REPRO_SCALE).cache_key())

    def test_shape_changes_key(self):
        base = tiny_request()
        assert base.cache_key() != tiny_request(n_cpus=2).cache_key()
        assert base.cache_key() != tiny_request(mhz=225).cache_key()

    def test_a_batch_under_one_tracer_returns_the_unobserved_results(self):
        # One recorder around a batch sees every run; the results must
        # not carry any of it, so they and their keys are the plain ones.
        from repro.obs.hooks import observing
        from repro.obs.trace import TraceRecorder

        batch = [tiny_request(150), tiny_request(225)]
        keys = [request.cache_key() for request in batch]
        plain = farm_hooks.dispatch(batch)
        tracer = TraceRecorder()
        with observing(tracer):
            assert [request.cache_key() for request in batch] == keys
            observed = farm_hooks.dispatch(batch)
        assert observed == plain
        assert tracer.recorded > 0

    def test_request_seed_tracks_identity(self):
        assert tiny_request().request_seed() == tiny_request().request_seed()
        assert (tiny_request(seed=1).request_seed()
                != tiny_request(seed=2).request_seed())

    def test_map_and_execute_canonicalise_each_request_once(
            self, monkeypatch, tmp_path):
        """The cache key and the run's seed share one canonical form."""
        canonicalised = []
        payload = RunRequest.payload

        def counted(request):
            canonicalised.append(request)
            return payload(request)

        monkeypatch.setattr(RunRequest, "payload", counted)
        batch = [tiny_request(150), tiny_request(225)]
        Farm(jobs=1, cache=ResultCache(tmp_path)).map(batch)
        assert [id(r) for r in canonicalised] == [id(r) for r in batch]


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = tiny_request()
        result = request.execute()
        cache.put(request.cache_key(), result, request)
        assert len(list(tmp_path.glob("*/*.json"))) == 1
        assert cache.get(request.cache_key()) == result

    def test_miss_is_none(self, tmp_path):
        assert ResultCache(tmp_path).get("00" * 32) is None

    def test_default_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"

    def test_summary_reports_an_empty_cache_as_on(self, tmp_path):
        assert "cache=on" in Farm(cache=ResultCache(tmp_path)).summary()
        assert "cache=off" in Farm().summary()


@pytest.mark.farm
class TestDeterminism:
    """Satellite 1: serial == --jobs 2 pool == cache-hit replay."""

    def test_serial_pool_and_replay_identical(self, tmp_path):
        requests = tiny_batch()
        serial = [request.execute() for request in requests]

        farm = Farm(jobs=2, cache=ResultCache(tmp_path / "cache"))
        pooled = farm.map(tiny_batch())
        assert pooled == serial        # full payloads: counters and all
        assert farm.hits == 0
        assert int(farm.counters.get("executed")) == len(requests)

        replayed = farm.map(tiny_batch())
        assert replayed == serial
        assert farm.hits == len(requests)
        assert int(farm.counters.get("executed")) == len(requests)


#: A two-request batch over two workers whose first request's workload
#: kills its worker process.
_DEAD_WORKER = """
import os
from repro.common.config import TINY_SCALE
from repro.common.errors import SimulationError
from repro.harness import Farm
from repro.sim import RunRequest, simos_mipsy
from repro.workloads import make_app
from repro.workloads.base import Workload

class Dies(Workload):
    name = "dies"

    def build(self, n_cpus):
        os._exit(1)

try:
    Farm(jobs=2).map([RunRequest(simos_mipsy(), Dies(TINY_SCALE), 1),
                      RunRequest(simos_mipsy(), make_app("fft", TINY_SCALE),
                                 1)])
except SimulationError as exc:
    print(exc)
"""


@pytest.mark.farm
def test_a_dead_worker_fails_the_batch_instead_of_hanging():
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", _DEAD_WORKER],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "did not return" in done.stdout
    assert "dies@simos-mipsy-150/P1/tiny" in done.stdout


class TestFarmAccounting:
    def test_batch_dedups_identical_requests(self):
        farm = Farm(jobs=1)
        a, b = tiny_request(), tiny_request()
        results = farm.map([a, b])
        assert results[0] == results[1]
        assert int(farm.counters.get("executed")) == 1
        assert int(farm.counters.get("requests")) == 2

    def test_results_line_up_with_requests(self, tmp_path):
        farm = Farm(jobs=1, cache=ResultCache(tmp_path))
        batch = [tiny_request(150), tiny_request(225), tiny_request(150)]
        results = farm.map(batch)
        assert results[0] == results[2]
        assert results[0].config_name != results[1].config_name
        assert results[0].config_name == batch[0].config.name

    def test_no_cache_never_hits(self):
        farm = Farm(jobs=1)
        farm.map([tiny_request()])
        farm.map([tiny_request()])
        assert farm.hits == 0
        assert int(farm.counters.get("executed")) == 2

    def test_summary_reports_counts(self, tmp_path):
        farm = Farm(jobs=1, cache=ResultCache(tmp_path))
        farm.map([tiny_request()])
        assert "1 requests" in farm.summary()
        assert "cache=on" in farm.summary()

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            Farm(jobs=0)


class TestAmbientHooks:
    def test_dispatch_without_farm_is_direct_execution(self):
        request = tiny_request()
        assert farm_hooks.active is None
        assert farm_hooks.dispatch([request]) == [request.execute()]

    def test_farming_restores_previous(self):
        farm = Farm(jobs=1)
        with farm_hooks.farming(farm):
            assert farm_hooks.active is farm
            with farm_hooks.farming(None):
                assert farm_hooks.active is None
            assert farm_hooks.active is farm
        assert farm_hooks.active is None

    def test_dispatch_routes_through_installed_farm(self):
        farm = Farm(jobs=1)
        with farm.activate():
            farm_hooks.dispatch([tiny_request()])
            farm_hooks.run(tiny_request(225))
        assert int(farm.counters.get("requests")) == 2

    def test_experiment_reports_farm_accounting(self, tmp_path):
        farm = Farm(jobs=1, cache=ResultCache(tmp_path))
        with farm.activate():
            cold = run_experiment("tlb_microbench", REPRO_SCALE)
            warm = run_experiment("tlb_microbench", REPRO_SCALE)
        assert cold.farm_runs > 0
        assert cold.farm_hits == 0
        assert warm.farm_runs == 0
        assert warm.farm_hits == cold.farm_runs
        assert "cached" in warm.format()
        # Cached replay reproduces the experiment verbatim.
        assert warm.rendered == cold.rendered
        assert ([f.to_dict() for f in warm.findings]
                == [f.to_dict() for f in cold.findings])


@pytest.mark.slow
def test_every_experiment_result_pickles(tmp_path):
    """Satellite 4: each experiment's result crosses a process boundary.

    Runs under an ambient cached farm so the figure lineups that share
    runs (the same config/workload pair appears in several figures)
    simulate once.
    """
    request = tiny_request()
    # Workloads define no __eq__; a request's identity is its content
    # address.
    assert (pickle.loads(pickle.dumps(request)).cache_key()
            == request.cache_key())
    run = request.execute()
    assert pickle.loads(pickle.dumps(run)) == run
    farm = Farm(jobs=1, cache=ResultCache(tmp_path / "cache"))
    with farm.activate():
        for exp_id in experiment_ids():
            result = run_experiment(exp_id, TINY_SCALE)
            clone = pickle.loads(pickle.dumps(result))
            assert clone.to_dict() == result.to_dict(), exp_id
            restored = ExperimentResult.from_dict(result.to_dict())
            assert restored.findings == result.findings, exp_id
