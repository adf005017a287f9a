"""Chaos matrix for the live streaming service (PR 9 acceptance).

Every scenario ends with the same oracle: after the run finishes (or
dies), the live service's tiles must be **byte-identical** to tiles
rendered straight off the batch pipeline over the same on-disk
artifacts — modulo the documented salvage banner, which is carried in
``/status``, never in the tile bytes.  The matrix covers rank crashes,
a silently killed engine, a torn partial tail, a partial damaged inside
a complete chunk, and a service that is itself killed and restarted
(the new one re-reads every partial from byte 0).

Run with ``make chaos-stream`` or ``pytest tests/chaos/test_stream.py``.
"""

from __future__ import annotations

import json
import os
import time
import urllib.request

import pytest

from repro._util.retry import RetryPolicy
from repro.mpe.clog2 import read_log
from repro.mpe.salvage import merge_partial_logs, partial_path
from repro.pilot import PilotConfig, run_pilot
from repro.pilotlog.integration import JumpshotOptions
from repro.slog2.convert import convert_with_tree
from repro.stream.service import StreamService
from repro.stream.tiles import render_tile
from repro.vmpi.faults import CrashFault, FaultPlan

from tests.chaos.test_chaos import pipeline_app

LEVELS = 4  # compare every tile at levels 0..3 (15 tiles)

#: Standalone-service policy for scenarios where the writer is already
#: dead: a short stall deadline keeps the matrix fast.
SHORT = RetryPolicy(deadline=0.25, initial=0.005, max_delay=0.02, jitter=0.0)


def all_tiles(tile_fn) -> dict[tuple[int, int], bytes]:
    return {(level, frame): tile_fn(level, frame)
            for level in range(LEVELS) for frame in range(1 << level)}


def records_delivered(service: StreamService) -> int:
    return sum(c.records for c in service.follower.ranks.values())


def assert_tiles_match_batch(service: StreamService, tree) -> None:
    batch = all_tiles(lambda lv, fr: render_tile(tree, lv, fr))
    live = all_tiles(lambda lv, fr: service.tile(lv, fr)[0])
    mismatched = [addr for addr in batch if batch[addr] != live[addr]]
    assert mismatched == [], (
        f"{len(mismatched)} tile(s) diverge from the batch pipeline: "
        f"{mismatched[:5]}")


def launch_streamed(tmp_path, *, faults=None, rounds=12, workers=2,
                    name="stream"):
    base = str(tmp_path / f"{name}.clog2")
    cfg = PilotConfig(services="j", stream=True, mpe_log_path=base,
                      faults=faults)
    res = run_pilot(pipeline_app(workers, rounds), workers + 1, config=cfg,
                    mpe_options=JumpshotOptions(salvage=True,
                                                salvage_interval=8))
    return base, res


def launch_unstreamed(tmp_path, *, faults, rounds=20, workers=2,
                      name="dead"):
    """A run nobody was watching: partials on disk, no exit sidecar."""
    base = str(tmp_path / f"{name}.clog2")
    cfg = PilotConfig(services="j", mpe_log_path=base, faults=faults)
    res = run_pilot(pipeline_app(workers, rounds), workers + 1, config=cfg,
                    mpe_options=JumpshotOptions(salvage=True,
                                                salvage_interval=8))
    return base, res


class TestCleanConvergence:
    def test_clean_run_tiles_converge_over_http(self, tmp_path):
        base, res = launch_streamed(tmp_path, rounds=10)
        service = res.stream
        assert service is not None
        try:
            assert res.aborted is None
            assert service.wait_finalized(30.0)

            # The batch reference: the exact pipeline the service ran.
            log, recovery = read_log(base)
            _doc, _report, tree = convert_with_tree(log, recovery=recovery)

            with urllib.request.urlopen(service.url + "status",
                                        timeout=10.0) as resp:
                status = json.loads(resp.read())
            assert status["state"] == "final"
            assert status["banner"] == ""
            assert status["num_ranks"] == 3

            def http_tile(level: int, frame: int) -> bytes:
                url = service.url + f"tiles/{level}/{frame}"
                with urllib.request.urlopen(url, timeout=10.0) as resp:
                    assert resp.headers["X-Final"] == "1"
                    return resp.read()

            batch = all_tiles(lambda lv, fr: render_tile(tree, lv, fr))
            live = all_tiles(http_tile)
            assert batch == live
        finally:
            service.stop()

    def test_live_fold_saw_records_before_the_end(self, tmp_path):
        _base, res = launch_streamed(tmp_path, rounds=16)
        service = res.stream
        try:
            assert service.wait_finalized(30.0)
            # Not just a batch render at the end: the provisional fold
            # really processed the stream while it grew.
            assert service.fold.records_folded > 0
            assert records_delivered(service) > 0
        finally:
            service.stop()

    def test_streamed_run_leaves_no_follow_state_on_disk(self, tmp_path):
        _base, res = launch_streamed(tmp_path, rounds=6)
        service = res.stream
        try:
            assert service.wait_finalized(30.0)
        finally:
            service.stop()
        # The follower keeps its per-rank state in memory only.
        leftovers = sorted(name for name in os.listdir(tmp_path)
                           if name.endswith(".json"))
        assert leftovers == ["stream.clog2.exit.json"]


class TestRankCrashMatrix:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_crash_tiles_converge_with_banner(self, tmp_path, seed):
        plan = FaultPlan(seed=seed, rules=(
            CrashFault(rank=1, at=4e-3, reason="injected rank failure"),))
        base, res = launch_streamed(tmp_path, faults=plan, rounds=20,
                                    name=f"crash{seed}")
        service = res.stream
        assert service is not None
        try:
            assert res.aborted is not None
            assert service.wait_finalized(30.0)

            status = service.status()
            assert status["state"] == "degraded"
            assert status["banner"]  # the documented salvage banner
            assert any(m["rank"] == 1 and m["kind"] == "crashed"
                       for m in status["markers"])

            # The batch reference with the same inputs the service used.
            log, recovery = merge_partial_logs(
                base, out_path=str(tmp_path / f"ref{seed}.clog2"),
                errors="salvage", expected_ranks=3,
                crashed_ranks=service.follower.crashed_ranks)
            _doc, _report, tree = convert_with_tree(
                log, recovery=recovery,
                crashed_ranks=service.follower.crashed_ranks)
            assert_tiles_match_batch(service, tree)
        finally:
            service.stop()


class TestEngineKill:
    def test_silent_writer_degrades_and_converges(self, tmp_path):
        # The engine died and nothing recorded it: no exit sidecar, no
        # journal.  The follower's stall deadline is the only signal.
        plan = FaultPlan(seed=7, rules=(CrashFault(rank=1, at=4e-3),))
        base, res = launch_unstreamed(tmp_path, faults=plan)
        assert res.aborted is not None
        assert os.path.exists(partial_path(base, 0))

        service = StreamService(base, policy=SHORT,
                                expected_ranks=3).start()
        try:
            assert service.wait_finalized(30.0)
            status = service.status()
            assert status["state"] == "degraded"
            assert "silent" in service.follower.reason

            log, recovery = merge_partial_logs(
                base, out_path=str(tmp_path / "ref.clog2"),
                errors="salvage", expected_ranks=3,
                crashed_ranks=service.follower.crashed_ranks)
            _doc, _report, tree = convert_with_tree(
                log, recovery=recovery,
                crashed_ranks=service.follower.crashed_ranks or None)
            assert_tiles_match_batch(service, tree)
        finally:
            service.stop()


class TestTornTail:
    def test_torn_partial_converges_with_drop_banner(self, tmp_path):
        from repro._util.fsio import atomic_write_json
        from repro.stream.follow import exit_path

        plan = FaultPlan(seed=7, rules=(CrashFault(rank=1, at=4e-3),))
        base, res = launch_unstreamed(tmp_path, faults=plan, name="torn")
        assert res.aborted is not None
        # The abort landed mid-write on rank 2: tear its final chunk.
        victim = partial_path(base, 2)
        with open(victim, "r+b") as fh:
            fh.truncate(os.path.getsize(victim) - 9)
        atomic_write_json(exit_path(base), {
            "finished": True, "ok": False, "reason": "engine aborted",
            "crashed_ranks": {"1": 4e-3}})

        service = StreamService(base, policy=SHORT,
                                expected_ranks=3).start()
        try:
            assert service.wait_finalized(30.0)
            status = service.status()
            assert status["state"] == "degraded"
            assert "dropped" in status["banner"]

            log, recovery = merge_partial_logs(
                base, out_path=str(tmp_path / "ref.clog2"),
                errors="salvage", expected_ranks=3,
                crashed_ranks=service.follower.crashed_ranks)
            assert recovery is not None and recovery.records_dropped > 0
            _doc, _report, tree = convert_with_tree(
                log, recovery=recovery,
                crashed_ranks=service.follower.crashed_ranks)
            assert_tiles_match_batch(service, tree)
        finally:
            service.stop()


class TestDamagedPartial:
    def test_damaged_rank_degrades_alone_and_converges(self, tmp_path):
        from repro._util.fsio import atomic_write_json
        from repro.mpe.salvage import AppendPartialWriter
        from repro.stream.follow import LogFollower, exit_path

        from tests.stream.test_follow import append_bad_chunk, rank_log

        base = str(tmp_path / "damaged.clog2")
        for rank in range(2):
            AppendPartialWriter(partial_path(base, rank), rank,
                                1e-6).checkpoint(rank_log(rank, 5))
        append_bad_chunk(partial_path(base, 1))

        update = LogFollower(base, policy=SHORT).poll()  # must not raise
        assert len(update.new_records[0]) == 5
        assert list(update.damaged_ranks) == [1]

        atomic_write_json(exit_path(base), {
            "finished": True, "ok": True, "crashed_ranks": {}})
        service = StreamService(base, policy=SHORT,
                                expected_ranks=2).start()
        try:
            assert service.wait_finalized(30.0)
            status = service.status()
            assert status["state"] == "degraded"
            assert status["reason"].startswith("rank 1 partial damaged")
            ranks = service.ranks()["ranks"]
            assert [r["damaged"] for r in ranks] == [False, True]
            assert ranks[0]["records"] == 5

            log, recovery = merge_partial_logs(
                base, out_path=str(tmp_path / "ref.clog2"),
                errors="salvage", expected_ranks=2)
            _doc, _report, tree = convert_with_tree(log, recovery=recovery)
            assert_tiles_match_batch(service, tree)
        finally:
            service.stop()


class TestServiceRestart:
    def test_kill_and_restart_reattaches_with_zero_dup_or_loss(
            self, tmp_path):
        from types import SimpleNamespace

        from repro._util.fsio import atomic_write_json
        from repro.mpe.clocksync import SyncPoint
        from repro.mpe.records import BareEvent, EventDef
        from repro.mpe.salvage import AppendPartialWriter
        from repro.stream.follow import exit_path

        base = str(tmp_path / "restart.clog2")
        logs, writers = {}, {}
        for rank in range(2):
            logs[rank] = SimpleNamespace(
                definitions=[EventDef(9, "tick", "red")],
                sync_points=[SyncPoint(0.0, 0.0)],
                records=[])
            writers[rank] = AppendPartialWriter(
                partial_path(base, rank), rank, 1e-6)

        def emit(rank: int, n: int) -> None:
            start = len(logs[rank].records)
            logs[rank].records.extend(
                BareEvent(1e-4 * (start + i + 1), rank, 9,
                          f"r{rank}.{start + i}")
                for i in range(n))
            writers[rank].checkpoint(logs[rank])

        for rank in range(2):
            emit(rank, 10)

        first = StreamService(base, policy=RetryPolicy(
            deadline=60.0, initial=0.002, max_delay=0.02,
            jitter=0.0)).start()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if records_delivered(first) == 20:
                break
            time.sleep(0.002)
        else:
            pytest.fail("first service never consumed the stream")
        first.stop()  # killed mid-run; its follow state dies with it

        # The writer keeps going while no service is watching.
        for rank in range(2):
            emit(rank, 7)
        atomic_write_json(exit_path(base), {
            "finished": True, "ok": True, "crashed_ranks": {}})

        second = StreamService(base, policy=SHORT,
                               expected_ranks=2).start()
        try:
            assert second.wait_finalized(30.0)
            # Zero duplicates, zero losses: the restarted service
            # re-read every partial from byte 0 into its fresh fold.
            assert records_delivered(second) == 34
            ranks = second.ranks()["ranks"]
            assert [r["records"] for r in ranks] == [17, 17]

            log, recovery = merge_partial_logs(
                base, out_path=str(tmp_path / "ref.clog2"),
                errors="salvage", expected_ranks=2,
                crashed_ranks=second.follower.crashed_ranks)
            _doc, _report, tree = convert_with_tree(
                log, recovery=recovery)
            assert_tiles_match_batch(second, tree)
        finally:
            second.stop()
