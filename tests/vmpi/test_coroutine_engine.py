"""The engine's one task backend: golden history and weave edges.

Every rank is a generator driven by one trampoline;
``repro.vmpi.weave`` rewrites task code so blocking calls ``yield``.
These tests pin the contract down at the engine level: a history
(results, finish times, event/switch counts) and deadlock diagnostics
equal to the committed golden in ``tests/golden/engine_history.json``
(recorded when the engine still had a thread-per-rank backend too, and
equal on both); blocking lambdas that suspend like named functions;
twins that take their defaults from the original; loud errors — not
silent deadlocks — when code the weave cannot reach blocks; and the
comprehension desugaring that keeps the common
``xs = [blocking(i) for i in ...]`` idiom working.
"""

import json
import os

import pytest

from repro.pilot import PI_Configure, PI_StartAll, PI_StopMain, run_pilot
from repro.vmpi.engine import Engine
from repro.vmpi.errors import EngineError, SimulationDeadlock, TaskFailed

GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "golden",
                      "engine_history.json")


def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def pipeline_history():
    """A little app exercising advance, resources and rng determinism."""
    eng = Engine(seed=7)
    disk = eng.resource(capacity=1, name="disk")
    trace = []

    def body(rank):
        task = eng.current_task
        for step in range(3):
            eng.advance(task.rng.random() * 1e-3, "compute")
            with disk:
                eng.advance(2e-4, "io")
            trace.append([rank, step, round(eng.now, 9)])
        return rank * 10

    def make(rank):
        def fn():
            return body(rank)
        return fn

    for r in range(4):
        eng.spawn(make(r), rank=r)
    res = eng.run()
    return {"trace": trace,
            "results": {str(r): v for r, v in sorted(res.results.items())},
            "finished_at": res.finished_at, "stats": dict(eng.stats)}


class TestGoldenHistory:
    def test_history_matches_golden(self):
        assert pipeline_history() == golden()["pipeline_history"]

    def test_deadlock_diagnostics_match_golden(self):
        eng = Engine()

        def fn():
            eng.block("waiting for a message that never comes")

        eng.spawn(fn, rank=0, name="lonely")
        eng.spawn(fn, rank=1, name="lonelier")
        with pytest.raises(SimulationDeadlock) as ei:
            eng.run()
        exc, ref = ei.value, golden()["stalled"]
        assert str(exc) == ref["message"]
        assert {str(r): why for r, why in exc.blocked.items()} \
            == ref["blocked"]
        assert {str(r): list(d) for r, d in exc.details.items()} \
            == ref["details"]
        assert exc.now == ref["now"]


class TestBlockingLambdas:
    """A lambda that blocks is woven like a named function: it suspends
    its task, so ranks interleave in virtual-time order."""

    def test_spawn_body(self):
        eng = Engine()
        order = []
        for r in range(2):
            eng.spawn(lambda r=r: (order.append((r, 0)), eng.advance(1e-4),
                                   order.append((r, 1)), eng.advance(1e-4),
                                   eng.now)[-1], rank=r)
        res = eng.run()
        assert order == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert res.results == {0: pytest.approx(2e-4), 1: pytest.approx(2e-4)}

    def test_defined_inside_a_woven_def(self):
        eng = Engine()
        order = []

        def fn():
            rank = eng.current_task.rank
            step = lambda i: (order.append((rank, i)),  # noqa: E731
                              eng.advance(1e-4))
            for i in range(2):
                step(i)
            return eng.now

        eng.spawn(fn, rank=0)
        eng.spawn(fn, rank=1)
        res = eng.run()
        assert order == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert res.results == {0: pytest.approx(2e-4), 1: pytest.approx(2e-4)}

    def test_run_pilot_main(self):
        order = []

        def app(argv, rounds):
            PI_Configure(argv)
            PI_StartAll()
            for i in range(rounds):
                order.append(i)
            PI_StopMain(0)
            return rounds

        res = run_pilot(lambda argv: app(argv, 3), 2)
        assert res.ok and res.vmpi.results[0] == 3
        assert order == [0, 1, 2]


class TestWovenTwins:
    def test_nested_def_default_names_enclosing_local(self):
        # ``dt`` is a local of this test, not a free variable of
        # ``tick``: the defaults were evaluated here, where ``dt`` is
        # visible.  The woven twin must reuse those values, not evaluate
        # the defaults again where ``dt`` does not exist.
        eng = Engine()
        dt = 3e-4

        def tick(step=dt, *, label=str(dt)):
            eng.advance(step)
            return eng.now, label

        eng.spawn(tick, rank=0)
        now, label = eng.run().results[0]
        assert now == pytest.approx(dt) and label == str(dt)


class TestWeaveEdges:
    def test_blocking_lambda_called_from_c_raises_loudly(self):
        # map() calls the lambda from C code, which cannot yield.
        eng = Engine()

        def fn():
            steps = list(map(lambda i: eng.advance(1e-4) or i, range(3)))
            return steps

        eng.spawn(fn, rank=0)
        with pytest.raises(TaskFailed) as ei:
            eng.run()
        assert isinstance(ei.value.original, EngineError)
        assert "blocking call" in str(ei.value.original)

    def test_blocking_comprehension_in_call_position_raises(self):
        # Not the whole value of an assignment => not desugared; that
        # must fail loudly, never deadlock.
        eng = Engine()

        def fn():
            return sum([eng.advance(1e-4) or i for i in range(3)])

        eng.spawn(fn, rank=0)
        with pytest.raises(TaskFailed) as ei:
            eng.run()
        assert "comprehension" in str(ei.value.original)


class TestComprehensionDesugaring:
    """Blocking list/set/dict comprehensions in assignment/return
    position are desugared into loops that suspend per element."""

    def test_assigned_listcomp_blocks_and_interleaves(self):
        eng = Engine(seed=1)
        order = []

        def fn():
            rank = eng.current_task.rank
            stamps = [(order.append((rank, i)), eng.advance(1e-4), eng.now)[2]
                      for i in range(3)]
            return stamps

        eng.spawn(fn, rank=0)
        eng.spawn(fn, rank=1)
        res = eng.run()
        # Both ranks advance in lockstep: the comprehension really
        # yielded between elements (rather than running to completion
        # synchronously), so appends interleave.
        assert order == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        assert res.results[0] == res.results[1]
        assert res.results[0] == [pytest.approx(1e-4 * (i + 1))
                                  for i in range(3)]

    def test_returned_dictcomp_with_conditions(self):
        eng = Engine()

        def cost(i):
            eng.advance(i * 1e-4)
            return eng.now

        def fn():
            return {i: cost(i) for i in range(5) if i % 2}

        eng.spawn(fn, rank=0)
        assert eng.run().results[0] == {1: pytest.approx(1e-4),
                                        3: pytest.approx(4e-4)}

    def test_nested_generators_and_setcomp(self):
        eng = Engine()

        def tick(x):
            eng.advance(1e-5)
            return x

        def fn():
            pairs = [tick((a, b)) for a in range(3) for b in range(a)
                     if a + b != 3]
            seen = {tick(a + b) for a, b in pairs}
            return pairs, sorted(seen)

        eng.spawn(fn, rank=0)
        pairs, seen = eng.run().results[0]
        assert pairs == [(1, 0), (2, 0)]  # (2,1) filtered by the if
        assert seen == [1, 2]

    def test_loop_variables_do_not_leak_or_clobber(self):
        eng = Engine()

        def tick(x):
            eng.advance(1e-5)
            return x

        def fn():
            i = "outer"
            doubled = [tick(i * 2) for i in range(3)]
            return i, doubled

        eng.spawn(fn, rank=0)
        assert eng.run().results[0] == ("outer", [0, 2, 4])
