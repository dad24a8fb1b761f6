"""Unit tests for the discrete-event kernel."""

import gc
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.engine import Engine, Resource, Steps
from repro.engine.events import Event
from repro.engine.resources import CALL, FINISH, HOP
from repro.obs import hooks as obs_hooks
from tests import engine_reference as reference


def test_timeout_advances_clock():
    env = Engine()
    done = env.timeout(1500)
    env.run(until=done)
    assert env.now == 1500


def test_events_fire_in_time_order():
    env = Engine()
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(300, "c"))
    env.process(proc(100, "a"))
    env.process(proc(200, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    env = Engine()
    order = []

    def proc(tag):
        yield env.timeout(50)
        order.append(tag)

    for tag in range(5):
        env.process(proc(tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


@given(delays=st.lists(st.integers(0, 3), min_size=1, max_size=12))
@settings(max_examples=8, deadline=None)
def test_engine_tie_order_preserved(delays):
    """Engine.run pops in (when, seq) order: same-tick callbacks fire in
    the order they were scheduled, whatever the interleaving of ticks."""
    engine = Engine()
    log = []
    done = engine.event()
    for index, delay in enumerate(delays):
        engine.schedule_at(delay, lambda tag: log.append((engine.now, tag)),
                           index)
    engine.schedule_at(max(delays) + 1, lambda _: done.succeed(None), None)
    engine.run(until=done)
    assert log == sorted((delay, index) for index, delay in enumerate(delays))
    assert engine.now == max(delays) + 1
    assert engine.events_processed == len(delays) + 1
    assert engine._heap == []


def test_process_return_value_propagates():
    env = Engine()

    def inner():
        yield env.timeout(10)
        return 42

    def outer():
        value = yield env.process(inner())
        return value + 1

    result = env.run(until=env.process(outer()))
    assert result == 43


def test_waiting_on_fired_event_resumes_immediately():
    env = Engine()
    ev = env.event()
    ev.succeed("early")

    def proc():
        value = yield ev
        return (value, env.now)

    assert env.run(until=env.process(proc())) == ("early", 0)


def test_event_cannot_fire_twice():
    env = Engine()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_negative_timeout_rejected():
    env = Engine()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_all_of_waits_for_every_child():
    env = Engine()

    def proc():
        values = yield env.all_of([env.timeout(10), env.timeout(30)])
        return (values, env.now)

    values, now = env.run(until=env.process(proc()))
    assert now == 30
    assert len(values) == 2


def test_deadlock_detected():
    env = Engine()

    def stuck():
        yield env.event()  # never fired

    target = env.process(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=target)


def test_process_yielding_non_event_fails():
    env = Engine()

    def bad():
        yield 123

    with pytest.raises(SimulationError):
        env.run(until=env.process(bad()))


def hold_walk(env, res, hold_ps, *after, txn=None):
    """A walk holding one unit of *res* for *hold_ps*, then *after*."""
    return Steps(env, ((res, hold_ps, None),) + after + (FINISH,), txn)


class GrantLog:
    """A walk's ``txn``: logs each grant it is reported as ``(tag, now,
    waited_ps, units in use)``."""

    def __init__(self, res, log, tag):
        self.res, self.log, self.tag = res, log, tag

    def add_wait(self, _name, waited_ps):
        self.log.append((self.tag, self.res.env.now, waited_ps,
                         self.res.in_use))


class TestResource:
    def test_serializes_two_walks(self):
        env = Engine()
        res = Resource(env, "magic")
        walks = [hold_walk(env, res, 100) for _ in range(2)]
        env.run()
        assert [walk.value for walk in walks] == [100, 200]
        assert res.in_use == 0

    def test_capacity_two_overlaps(self):
        env = Engine()
        res = Resource(env, "dram", capacity=2)
        walks = [hold_walk(env, res, 100) for _ in range(3)]
        env.run()
        assert [walk.value for walk in walks] == [100, 100, 200]
        assert res.in_use == 0

    def test_walk_resumes_after_its_hold(self):
        env = Engine()
        res = Resource(env, "router")
        walk = hold_walk(env, res, 75, (None, 5, None))
        assert env.run(until=walk) == 80
        assert res.in_use == 0

    def test_zero_capacity_refused(self):
        with pytest.raises(SimulationError):
            Resource(Engine(), "x", capacity=0)

    def test_wait_statistics_accumulate(self):
        env = Engine()
        res = Resource(env, "pp")
        for _ in range(2):
            hold_walk(env, res, 100)
        env.run()
        assert res.requests == 2
        assert res.stats.snapshot() == {
            "busy_ps": 200.0, "queued_grants": 1.0, "wait_ps": 100.0}

    def test_fifo_grant_order(self):
        """Queued walks are granted head first, each its measured wait,
        the unit counted in use from its grant."""
        env = Engine()
        res = Resource(env, "link")
        grants = []
        for tag in range(4):
            hold_walk(env, res, 10, txn=GrantLog(res, grants, tag))
        env.run()
        assert grants == [(0, 0, 0, 1), (1, 10, 10, 1), (2, 20, 20, 1),
                          (3, 30, 30, 1)]
        assert res.in_use == 0

    def test_grant_is_armed_before_the_walk_resumes(self):
        """The end of a hold arms the next walk's hold before the walk
        it ends moves on: at a tie, the granted hold ends first."""
        env = Engine()
        res = Resource(env, "pp")
        order = []

        def log(tag):
            return (CALL, lambda _walk: order.append((tag, env.now)), None)

        hold_walk(env, res, 10, (None, 5, None), log("released"))
        hold_walk(env, res, 5, log("granted"))
        env.run()
        assert order == [("granted", 15), ("released", 15)]


class TestOrderingRule:
    """Calendar entries run in ``(when, seq)`` order; callbacks deferred
    during one entry run FIFO; an entry is popped only when that queue is
    empty.  Every fusion in ``repro.engine`` rests on these clauses."""

    def test_deferred_callbacks_run_fifo_across_rounds(self):
        env = Engine()
        log = []
        first, second, third = env.event(), env.event(), env.event()
        first.add_waiter(lambda ev: (log.append("first"), third.succeed()))
        second.add_waiter(lambda ev: log.append("second"))
        third.add_waiter(lambda ev: log.append("third"))
        # One calendar entry fires two events; what the first one's waiter
        # defers ("third") queues behind the second one's waiter.
        env.schedule_at(5, lambda _: (first.succeed(), second.succeed(),
                                      log.append("entry")), None)
        env.run()
        assert log == ["entry", "first", "second", "third"]

    def test_calendar_fired_event_runs_waiters_before_what_they_defer(self):
        env = Engine()
        log = []
        timer, other = env.timeout(5), env.event()
        other.add_waiter(lambda ev: log.append("deferred by w1"))
        timer.add_waiter(lambda ev: (log.append("w1"), other.succeed()))
        timer.add_waiter(lambda ev: log.append("w2"))
        timer.add_waiter(lambda ev: log.append("w3"))
        env.run()
        assert log == ["w1", "w2", "w3", "deferred by w1"]

    def test_queue_is_empty_at_every_pop(self):
        env = Engine()
        pops = []

        class EmptyAtPop:
            def span(self, t_ps, category, name):
                assert not env._queue, f"{len(env._queue)} deferred at pop"
                pops.append(t_ps)

        env.tracer = EmptyAtPop()
        pp, link = Resource(env, "pp"), Resource(env, "link", capacity=2)

        def user(delay):
            yield env.timeout(delay)
            yield hold_walk(env, pp, 7)
            yield Steps(env, ((link, 3, None), (None, 4, None),
                              (pp, 2, None), FINISH))
            yield hold_walk(env, link, delay, (HOP, 0, None))
            yield env.all_of([env.timeout(0), env.timeout(delay)])

        for delay in (0, 5, 5, 9):
            env.process(user(delay))
        env.run()
        assert len(pops) == env.events_processed > 20


class _Kit:
    """One engine implementation behind the names a program needs."""

    def __init__(self, module, steps):
        self.Engine, self.Resource, self.steps = (
            module.Engine, module.Resource, steps)


def _steps(env, sequence, txn=None):
    """A walk of *sequence*, in ``engine_reference.steps``'s terms: a
    ``"hop"`` is a ``HOP`` and an event a ``CALL`` that waits on it."""
    stages = []
    for who, ps, seg in sequence:
        if who == "hop":
            stages.append((HOP, 0, seg))
        elif isinstance(who, Event):
            stages.append((CALL, lambda walk, event=who: walk.wait(event),
                           None))
        else:
            stages.append((who, ps, seg))
    return Steps(env, tuple(stages) + (FINISH,), txn)


KITS = (_Kit(reference, reference.steps),
        _Kit(__import__("repro.engine", fromlist=["Engine"]), _steps))

#: Three delays, zero included, so that ties are the common case.
_DELAY = st.sampled_from((0, 10, 25))
_RES = st.integers(0, 1)
_LEAF_OPS = st.one_of(
    st.tuples(st.just("timeout"), _DELAY),
    st.tuples(st.just("all_of"), st.lists(_DELAY, max_size=3)),
    # A stage: a delay, a use, a HOP or a wait on the shared timer.
    st.tuples(st.just("steps"), st.lists(
        st.tuples(st.one_of(st.none(), _RES, st.just("hop"),
                            st.just("tick")), _DELAY), max_size=4)),
    st.tuples(st.just("tick")),
    st.tuples(st.just("fired")),
    st.tuples(st.just("fire"), _RES),
    st.tuples(st.just("wait"), _RES),
)
_CHILD_OPS = st.lists(_LEAF_OPS, max_size=4)
_OPS = st.lists(st.one_of(_LEAF_OPS, st.tuples(
    st.just("spawn"), _CHILD_OPS, st.booleans())), max_size=6)


def _run_program(kit, capacities, program):
    """Interpret *program* on *kit*; everything an engine could reorder."""
    env = kit.Engine()
    log = []
    resources = [kit.Resource(env, f"r{i}", capacity=capacity)
                 for i, capacity in enumerate(capacities)]
    shared = [env.event(), env.event()]
    #: One calendar-fired event that walks and processes may share.
    timer = env.timeout(10)

    class Txn:
        def add_wait(self, name, waited_ps):
            log.append(("add_wait", name, waited_ps, env.now))

        def cut(self, seg, now):
            log.append(("cut", seg, now, env.now))

    txn = Txn()

    def body(tag, ops):
        for index, op in enumerate(ops):
            kind = op[0]
            if kind == "timeout":
                yield env.timeout(op[1])
            elif kind == "all_of":
                yield env.all_of([env.timeout(d) for d in op[1]])
            elif kind == "steps":
                # A CALL has no segment, so a wait on the timer cuts none.
                yield kit.steps(env, [
                    (timer, 0, None) if r == "tick" else
                    (r if r is None or r == "hop"
                     else resources[r % len(resources)], ps,
                     f"{tag}.{index}.{k}")
                    for k, (r, ps) in enumerate(op[1])], txn)
            elif kind == "tick":
                yield timer
            elif kind == "fired":
                yield env.event().succeed(tag)
            elif kind == "fire":
                if not shared[op[1]].fired:
                    shared[op[1]].succeed(tag)
            elif kind == "wait":
                yield shared[op[1]]
            elif kind == "spawn":
                child = env.process(body(f"{tag}.{index}", op[1]))
                if op[2]:
                    yield child
            log.append((tag, index, env.now))
        return tag

    for tag, ops in enumerate(program):
        env.process(body(str(tag), ops))
    env.run()
    return (log, env.now, env.events_processed,
            [(res.requests, res.in_use, len(res._queue),
              res.stats.get("queued_grants"), res.stats.get("wait_ps"),
              res.stats.get("busy_ps")) for res in resources])


@given(capacities=st.lists(st.integers(1, 2), min_size=1, max_size=2),
       program=st.lists(_OPS, min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
# A walk and a process share the calendar-fired timer, the walk first
# among its waiters: the process's timeout must draw its ``seq`` before
# the walk's grant arms, as it would had the walk deferred.
@example(capacities=[1], program=[
    [("steps", [("tick", 0), (0, 0), ("hop", 0)])],
    [("timeout", 0), ("tick",), ("timeout", 0)]])
# A HOP, then a free resource stage, reached with a process's resume
# still queued: each must defer behind it, not run in place.
@example(capacities=[1], program=[
    [("steps", [("hop", 0), (None, 0)])], [("fired",), ("timeout", 0)]])
@example(capacities=[1], program=[
    [("steps", [(0, 0)])], [("fired",), ("timeout", 0)]])
# A walk's hold ends and grants a queued walk: the walk's resume must
# queue behind that grant.
@example(capacities=[1], program=[
    [("steps", [(0, 0), (None, 0)])], [("fired",), ("steps", [(0, 0)])]])
def test_engine_matches_reference_engine(capacities, program):
    """Random process graphs -- tied timeouts, ``all_of``, child
    processes, step sequences (delays, contended holds, HOPs and waits
    on a shared calendar-fired timer, with segment cuts), waits on fired
    events -- complete in the same order, at the same times, over the
    same number of calendar entries as on the pre-fusion reference
    engine."""
    expected, actual = (_run_program(kit, capacities, program)
                        for kit in KITS)
    assert actual == expected


class TestPlanCallCount:
    """A deferral that would run next runs in place: in a walk entered
    from the engine loop, an uncontended resource stage and a HOP into
    an empty queue cost no deferral.  Counts repeat exactly where
    timings do not."""

    @staticmethod
    def _walk(stages, profiled):
        """Python ``call`` events (*profiled*) or deferrals while the
        engine walks one plan of *stages* on a free resource."""
        env = Engine()
        res = Resource(env, "pp")
        count = 0
        if not profiled:
            append = env._queue.append

            def defer(item):
                nonlocal count
                count += 1
                append(item)

            env._defer = defer
        walk = Steps(env, tuple((res if who == "pp" else who, arg, seg)
                                for who, arg, seg in stages) + (FINISH,))

        def profile(_frame, event, _arg):
            nonlocal count
            count += event == "call"

        # A cyclic collection inside the run would enter ``gc.callbacks``
        # (Hypothesis registers one) and the finalizers of generators
        # earlier tests left suspended: calls that are not the model's.
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        if profiled:
            sys.setprofile(profile)
        try:
            env.run(until=walk)
        finally:
            sys.setprofile(None)
            if enabled:
                gc.enable()
        return count

    def _extra(self, stage, profiled):
        """What 100 more *stage* stages cost; the start cancels."""
        return (self._walk((stage,) * 200, profiled)
                - self._walk((stage,) * 100, profiled))

    def test_hop_into_an_empty_queue_costs_nothing(self):
        hop = (HOP, 0, None)
        assert self._extra(hop, profiled=False) == 0
        assert self._extra(hop, profiled=True) == 0

    def test_uncontended_stage_costs_only_its_hold(self):
        """Each stage's one calling chain is its hold's calendar entry:
        ``_finish_hold`` (the release and its ``busy_ps`` bump inline)
        and the walk it resumes in place, which grants the next stage's
        unit itself.  A grant or release out of line, or a call to
        ``CounterSet.add``, would each cost one more."""
        stage = ("pp", 5, None)
        assert self._extra(stage, profiled=False) == 0
        assert self._extra(stage, profiled=True) == 2 * 100

    def test_contended_stage_grant_costs_no_deferral(self):
        """Two walks queue on one unit.  The end of the first's hold is
        a calendar entry, so the grant it makes to the second is armed
        in place and the first's walk resumes in place behind it:
        nothing is deferred from then on.  Deferring the arm put the
        resume behind it, two deferrals."""
        env = Engine()
        res = Resource(env, "pp")
        deferred = []
        append = env._queue.append

        def defer(item):
            deferred.append((env.now, item[0].__name__))
            append(item)

        env._defer = defer
        walks = [Steps(env, ((res, 5, None), FINISH)) for _ in range(2)]
        env.run()
        assert [walk.value for walk in walks] == [5, 10]
        assert res.stats.snapshot() == {
            "busy_ps": 10.0, "queued_grants": 1.0, "wait_ps": 5.0}
        assert all(now == 0 for now, _name in deferred), deferred


class TestEngineObserver:
    def test_one_span_per_calendar_event_and_nothing_else(self):
        """The engine's whole observer surface is one ``span`` per
        calendar event: none in ``schedule_at``, no other attribute."""

        class SpanOnly:
            def __init__(self):
                self.spans = []

            def span(self, t_ps, category, name):
                self.spans.append((t_ps, category, name))

            def __getattr__(self, name):
                raise AssertionError(f"engine touched observer.{name}")

        env = Engine()
        env.tracer = observer = SpanOnly()
        res = Resource(env, "pp")

        def user(delay):
            yield env.timeout(delay)
            yield hold_walk(env, res, 50)
            yield env.all_of([env.timeout(5), env.timeout(9)])

        for delay in (10, 10, 30):
            env.process(user(delay), name=f"user{delay}")
        env.run()
        assert env.events_processed > 0
        assert len(observer.spans) == env.events_processed
        assert all(category == "engine" for _t, category, _n in observer.spans)
        assert [t for t, _c, _n in observer.spans] == sorted(
            t for t, _c, _n in observer.spans)

    def test_probe_vocabulary_is_nine_events(self):
        assert len(obs_hooks.EVENTS) == 9
