"""Unit tests for the discrete-event engine: scheduling, determinism,
blocking, resources, abort, failure and stall handling."""

import pytest

from repro import vmpi
from repro.vmpi.engine import Engine, TaskState
from repro.vmpi.errors import EngineError, SimulationDeadlock, TaskFailed


def run_single(fn, **kw):
    """Run one task to completion and return (result, engine)."""
    eng = Engine(**kw)
    task = eng.spawn(fn, rank=0)
    res = eng.run()
    return res.results[0], eng, task


class TestTimeAdvance:
    def test_advance_moves_virtual_time(self):
        def body():
            return None

        eng = Engine()
        trace = []

        def fn():
            trace.append(eng.now)
            eng.advance(1.5)
            trace.append(eng.now)
            eng.advance(0.25)
            trace.append(eng.now)

        eng.spawn(fn, rank=0)
        eng.run()
        assert trace == [0.0, 1.5, 1.75]

    def test_zero_advance_is_a_scheduling_point(self):
        eng = Engine()
        order = []

        def a():
            order.append("a1")
            eng.advance(0.0)
            order.append("a2")

        def b():
            order.append("b1")

        eng.spawn(a, rank=0)
        eng.spawn(b, rank=1)
        eng.run()
        # b gets to run between a's two halves.
        assert order == ["a1", "b1", "a2"]

    def test_negative_advance_rejected(self):
        eng = Engine()

        def fn():
            eng.advance(-1.0)

        eng.spawn(fn, rank=0)
        with pytest.raises(TaskFailed) as ei:
            eng.run()
        assert isinstance(ei.value.original, EngineError)

    def test_advance_outside_task_rejected(self):
        eng = Engine()
        with pytest.raises(EngineError):
            eng.advance(1.0)

    def test_interleaving_is_by_time_order(self):
        eng = Engine()
        order = []

        def make(rank, dt):
            def fn():
                eng.advance(dt)
                order.append(rank)
            return fn

        eng.spawn(make(0, 0.3), rank=0)
        eng.spawn(make(1, 0.1), rank=1)
        eng.spawn(make(2, 0.2), rank=2)
        eng.run()
        assert order == [1, 2, 0]


class TestDeterminism:
    def test_same_seed_same_history(self):
        def program(eng):
            samples = []

            def fn():
                task = eng.current_task
                for _ in range(5):
                    eng.advance(task.rng.random())
                    samples.append((task.rank, eng.now))

            for r in range(4):
                eng.spawn(fn, rank=r)
            eng.run()
            return samples, eng.now

        e1, e2 = Engine(seed=42), Engine(seed=42)
        assert program(e1) == program(e2)

    def test_different_seed_different_history(self):
        def total(seed):
            eng = Engine(seed=seed)

            def fn():
                eng.advance(eng.current_task.rng.random())

            eng.spawn(fn, rank=0)
            eng.run()
            return eng.now

        assert total(1) != total(2)

    def test_equal_time_events_run_in_schedule_order(self):
        eng = Engine()
        order = []

        def make(tag):
            def fn():
                eng.advance(1.0)
                order.append(tag)
            return fn

        for i in range(5):
            eng.spawn(make(i), rank=i)
        eng.run()
        assert order == [0, 1, 2, 3, 4]


class TestBlockWake:
    def test_wake_payload_delivered(self):
        eng = Engine()
        got = []

        def sleeper():
            got.append(eng.block("waiting for a present"))

        def waker():
            eng.advance(2.0)
            eng.wake(eng.tasks[0], payload="present")

        eng.spawn(sleeper, rank=0)
        eng.spawn(waker, rank=1)
        eng.run()
        assert got == ["present"]
        assert eng.now == 2.0

    def test_wake_with_delay(self):
        eng = Engine()
        t = []

        def sleeper():
            eng.block("zzz")
            t.append(eng.now)

        def waker():
            eng.wake(eng.tasks[0], delay=3.0)

        eng.spawn(sleeper, rank=0)
        eng.spawn(waker, rank=1)
        eng.run()
        assert t == [3.0]

    def test_wake_of_done_task_is_noop(self):
        eng = Engine()

        def quick():
            pass

        def late():
            eng.advance(1.0)
            eng.wake(eng.tasks[0])  # rank 0 finished long ago

        eng.spawn(quick, rank=0)
        eng.spawn(late, rank=1)
        eng.run()  # must not raise


class TestStallAndDeadlock:
    def test_stall_raises_simulation_deadlock_with_reasons(self):
        eng = Engine()

        def fn():
            eng.block("waiting forever")

        eng.spawn(fn, rank=0)
        with pytest.raises(SimulationDeadlock) as ei:
            eng.run()
        assert ei.value.blocked == {0: "waiting forever"}

    def test_stall_hook_can_rescue(self):
        eng = Engine()

        def fn():
            assert eng.block("rescue me") == "rescued"

        eng.spawn(fn, rank=0)
        eng.on_stall.append(lambda e: e.wake(e.tasks[0], "rescued"))
        eng.run()


class TestAbortAndFailure:
    def test_abort_unwinds_all_tasks(self):
        eng = Engine()

        def victim():
            eng.block("never woken normally")

        def killer():
            eng.advance(1.0)
            eng.abort(7, origin_rank=1, reason="test")

        eng.spawn(victim, rank=0)
        eng.spawn(killer, rank=1)
        res = eng.run()
        assert res.aborted is not None
        assert res.aborted.errorcode == 7
        assert res.aborted.origin_rank == 1
        assert all(t.state is TaskState.DONE for t in eng.tasks.values())

    def test_abort_marks_tasks_aborted(self):
        eng = Engine()

        def victim():
            eng.block("x")

        def killer():
            eng.abort(1, origin_rank=1)

        eng.spawn(victim, rank=0)
        eng.spawn(killer, rank=1)
        eng.run()
        assert eng.tasks[0].aborted
        assert eng.tasks[1].aborted

    def test_unhandled_exception_becomes_taskfailed(self):
        eng = Engine()

        def boom():
            raise RuntimeError("kapow")

        eng.spawn(boom, rank=0)
        with pytest.raises(TaskFailed) as ei:
            eng.run()
        assert ei.value.rank == 0
        assert isinstance(ei.value.original, RuntimeError)

    def test_crash_takes_blocked_peers_down(self):
        eng = Engine()

        def waiter():
            eng.block("peer")

        def boom():
            eng.advance(0.5)
            raise ValueError("dead")

        eng.spawn(waiter, rank=0)
        eng.spawn(boom, rank=1)
        with pytest.raises(TaskFailed):
            eng.run()
        assert all(t.state is TaskState.DONE for t in eng.tasks.values())


class TestResource:
    def test_capacity_one_serialises(self):
        eng = Engine()
        disk = eng.resource(capacity=1, name="disk")
        spans = {}

        def fn():
            task = eng.current_task
            with disk:
                start = eng.now
                eng.advance(1.0)
                spans[task.rank] = (start, eng.now)

        for r in range(3):
            eng.spawn(fn, rank=r)
        eng.run()
        # Three one-second holds on a capacity-1 resource take 3 seconds
        # with no overlap.
        intervals = sorted(spans.values())
        assert eng.now == 3.0
        for (s1, e1), (s2, _) in zip(intervals, intervals[1:]):
            assert s2 >= e1

    def test_capacity_two_allows_two_concurrent(self):
        eng = Engine()
        pool = eng.resource(capacity=2, name="pool")

        def fn():
            with pool:
                eng.advance(1.0)

        for r in range(4):
            eng.spawn(fn, rank=r)
        eng.run()
        assert eng.now == 2.0

    def test_fifo_ordering(self):
        eng = Engine()
        res = eng.resource(capacity=1)
        order = []

        def fn():
            rank = eng.current_task.rank
            eng.advance(rank * 0.001)  # stagger arrival: 0, then 1, then 2
            with res:
                order.append(rank)
                eng.advance(1.0)

        for r in range(3):
            eng.spawn(fn, rank=r)
        eng.run()
        assert order == [0, 1, 2]

    def test_release_without_acquire_fails(self):
        eng = Engine()
        res = eng.resource()

        def fn():
            res.release()

        eng.spawn(fn, rank=0)
        with pytest.raises(TaskFailed):
            eng.run()

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Engine().resource(capacity=0)


class TestMisc:
    def test_spawn_duplicate_rank_rejected(self):
        eng = Engine()
        eng.spawn(lambda: None, rank=0)
        with pytest.raises(EngineError):
            eng.spawn(lambda: None, rank=0)

    def test_run_not_reentrant(self):
        eng = Engine()

        def fn():
            eng.run()

        eng.spawn(fn, rank=0)
        with pytest.raises(TaskFailed) as ei:
            eng.run()
        assert isinstance(ei.value.original, EngineError)

    def test_cannot_schedule_in_past(self):
        eng = Engine()

        def fn():
            eng.advance(5.0)
            eng.call_at(1.0, lambda: None)

        eng.spawn(fn, rank=0)
        with pytest.raises(TaskFailed):
            eng.run()

    def test_results_collected_per_rank(self):
        eng = Engine()
        for r in range(3):
            eng.spawn(lambda r=r: r * r, rank=r)
        res = eng.run()
        assert res.results == {0: 0, 1: 1, 2: 4}

    def test_wtime_uses_local_skewed_clock(self):
        eng = Engine(skews={0: vmpi.ClockSkew(offset=5.0)},
                     clock_resolution=1e-9)
        reads = []

        def fn():
            eng.advance(1.0)
            reads.append(eng.wtime())

        eng.spawn(fn, rank=0)
        eng.run()
        assert reads[0] == pytest.approx(6.0, abs=1e-6)

    def test_stats_count_events_and_switches(self):
        eng = Engine()

        def fn():
            for _ in range(10):
                eng.advance(0.1)

        eng.spawn(fn, rank=0)
        eng.run()
        assert eng.stats["switches"] >= 10
        assert eng.stats["events"] >= 10
