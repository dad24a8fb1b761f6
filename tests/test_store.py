"""The content-addressed store (``repro.common.store``) under its typed
half, the farm's ``ResultCache``.

A damaged entry -- a torn write, an empty file, JSON of the wrong shape,
even a directory squatting the file's name -- must read as a miss, never
raise, and never hang; the next ``put`` must heal it.  A store that
cannot be written at all is a later miss for the cache (best effort).
"""

import signal
from contextlib import contextmanager

import pytest

from repro.common.store import JsonStore
from repro.harness.farm import ResultCache
from repro.sim.results import RunResult

KEY = "ab" * 32

RESULT = RunResult(config_name="hardware", workload_name="fft", n_cpus=1,
                   scale_name="tiny", total_ps=1000,
                   phase_spans_ps={"parallel": (10, 990)}, instructions=64,
                   stats={"cpu0.instructions": 64})

#: name -> (store class, put the entry under KEY, what get(KEY) returns).
STORES = {
    "ResultCache": (ResultCache,
                    lambda store: store.put(KEY, RESULT), RESULT),
}


def _squat(path):
    path.unlink()
    path.mkdir()


#: name -> what happens to a good entry's file.
DAMAGE = {
    "truncated": lambda path: path.write_text(path.read_text()[:40]),
    "empty": lambda path: path.write_text(""),
    "json-list": lambda path: path.write_text("[]"),
    "json-object": lambda path: path.write_text("{}"),
    "directory": _squat,
}


def entries(store) -> int:
    """Entry files under *store*'s root (the layout ``_path`` writes)."""
    return len(list(store.root.glob("*/*.json")))


@contextmanager
def time_limit(seconds: float):
    """Fail, rather than hang the suite, if the block outlives *seconds*."""
    def expired(_signum, _frame):
        raise AssertionError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("damage", DAMAGE)
@pytest.mark.parametrize("store_name", STORES)
def test_damaged_entry_reads_as_miss_and_put_heals(tmp_path, store_name,
                                                   damage):
    make, put, expected = STORES[store_name]
    store = make(tmp_path)
    with time_limit(10):
        put(store)
        assert store.get(KEY) == expected
        DAMAGE[damage](store._path(KEY))
        assert store.get(KEY) is None
        put(store)
        assert store.get(KEY) == expected
        assert entries(store) == 1


@pytest.mark.parametrize("store_name", STORES)
def test_missing_entry_is_a_miss(tmp_path, store_name):
    make, _put, _expected = STORES[store_name]
    assert make(tmp_path / "never-created").get(KEY) is None
    assert entries(make(tmp_path / "never-created")) == 0


class TestUnwritableStore:
    """The root is an existing *file*: nothing can ever be stored."""

    @pytest.fixture
    def occupied(self, tmp_path):
        root = tmp_path / "occupied"
        root.write_text("not a directory")
        return root

    def test_write_reports_the_failure(self, occupied):
        with pytest.raises(OSError):
            JsonStore(occupied).write(KEY, {"a": 1})
        assert JsonStore(occupied).read(KEY) is None

    def test_result_cache_put_is_best_effort(self, occupied):
        cache = ResultCache(occupied)
        cache.put(KEY, RESULT)           # must not raise
        assert cache.get(KEY) is None    # ... and costs a later miss
