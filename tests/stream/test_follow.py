"""LogFollower edge cases: torn tails, late ranks, restarts, damage.

A tail cut exactly on (and inside) a chunk boundary, a rank's ``.part``
appearing late, a restarted follower re-reading every partial with zero
duplicate records, and one rank's partial damaged inside a complete
chunk while the other ranks keep flowing.
"""

from __future__ import annotations

import os
import struct
from types import SimpleNamespace

from repro._util.fsio import atomic_write_json
from repro._util.retry import RetryPolicy
from repro.mpe.clocksync import SyncPoint
from repro.mpe.records import BareEvent, EventDef, RankName
from repro.mpe.salvage import AppendPartialWriter, partial_path, write_partial
from repro.stream.follow import LogFollower, exit_path

POLICY = RetryPolicy(deadline=0.5, initial=0.001, max_delay=0.01, jitter=0.0)


def rank_log(rank: int, n: int, *, t0: float = 0.0) -> SimpleNamespace:
    """A duck-typed RankLog: the writers only touch these three lists."""
    return SimpleNamespace(
        definitions=[EventDef(9, "tick", "red"), RankName(rank, f"P{rank}")],
        sync_points=[SyncPoint(t0, 0.0)],
        records=[BareEvent(t0 + i * 1e-3, rank, 9, f"r{rank}.{i}")
                 for i in range(n)])


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_follower(tmp_path, **kw) -> tuple[LogFollower, str]:
    base = str(tmp_path / "run.clog2")
    kw.setdefault("policy", POLICY)
    return LogFollower(base, **kw), base


def all_new_records(update) -> list:
    return [r for recs in update.new_records.values() for r in recs]


def test_append_partial_tailed_incrementally(tmp_path):
    follower, base = make_follower(tmp_path)
    log = rank_log(0, 5)
    writer = AppendPartialWriter(partial_path(base, 0), 0, 1e-6)
    writer.checkpoint(log)

    update = follower.poll()
    assert update.new_ranks == [0]
    assert update.grew
    assert len(update.new_records.get(0, [])) == 5
    assert update.new_definitions  # the defs ride the first chunk

    # No growth: the next poll is empty but not finished.
    update = follower.poll()
    assert not update.grew
    assert not update.finished
    assert update.record_count == 0

    # Append five more: only the new ones come out.
    log.records.extend(BareEvent(1.0 + i * 1e-3, 0, 9, f"x{i}")
                       for i in range(5))
    writer.checkpoint(log)
    update = follower.poll()
    assert [r.text for r in update.new_records[0]] == [
        f"x{i}" for i in range(5)]


def test_tail_cut_inside_and_on_chunk_boundary(tmp_path):
    follower, base = make_follower(tmp_path)
    path = partial_path(base, 0)
    writer = AppendPartialWriter(path, 0, 1e-6)
    writer.checkpoint(rank_log(0, 8))
    with open(path, "rb") as fh:
        full = fh.read()

    # Cut in the middle of the record chunk: the whole chunk is held.
    with open(path, "wb") as fh:
        fh.write(full[: len(full) - 7])
    update = follower.poll()
    cur = follower.ranks[0]
    assert update.new_records.get(0, []) == []  # held, never emitted
    assert cur.torn_bytes > 0
    held_offset = cur.offset

    # The writer finishes the flush: exactly the held records appear,
    # resuming from the clean-boundary offset — no byte re-read, no
    # record duplicated.
    with open(path, "r+b") as fh:
        fh.seek(0, os.SEEK_END)
        fh.write(full[len(full) - 7:])
    update = follower.poll()
    assert len(update.new_records[0]) == 8
    assert follower.ranks[0].torn_bytes == 0
    assert follower.ranks[0].offset == len(full) > held_offset

    # A cut exactly *on* a chunk boundary is indistinguishable from a
    # fully flushed file: zero torn bytes, everything before it emitted.
    log2 = rank_log(1, 3)
    path2 = partial_path(base, 1)
    w2 = AppendPartialWriter(path2, 1, 1e-6)
    w2.checkpoint(log2)
    boundary = os.path.getsize(path2)
    log2.records.append(BareEvent(9.0, 1, 9, "later"))
    w2.checkpoint(log2)
    with open(path2, "rb") as fh:
        full2 = fh.read()
    with open(path2, "wb") as fh:
        fh.write(full2[:boundary])
    update = follower.poll()
    assert len(update.new_records[1]) == 3
    assert follower.ranks[1].torn_bytes == 0


def test_rank_part_appearing_late(tmp_path):
    follower, base = make_follower(tmp_path)
    AppendPartialWriter(partial_path(base, 0), 0, 1e-6).checkpoint(
        rank_log(0, 4))
    update = follower.poll()
    assert update.new_ranks == [0]

    # Rank 2's partial shows up only later (it buffered longer).
    AppendPartialWriter(partial_path(base, 2), 2, 1e-6).checkpoint(
        rank_log(2, 6, t0=0.5))
    update = follower.poll()
    assert update.new_ranks == [2]
    assert len(update.new_records[2]) == 6
    assert update.new_records.get(0, []) == []  # rank 0 did not re-emit
    assert follower.ranks[2].frontier > 0.5


def test_restart_rereads_from_byte_zero_with_zero_duplicates(tmp_path):
    first, base = make_follower(tmp_path)
    path = partial_path(base, 0)
    log = rank_log(0, 10)
    writer = AppendPartialWriter(path, 0, 1e-6)
    writer.checkpoint(log)
    update = first.poll()
    assert len(update.new_records[0]) == 10

    # The service dies; more records land while nobody is watching.
    log.records.extend(BareEvent(2.0 + i * 1e-3, 0, 9, f"late{i}")
                       for i in range(4))
    writer.checkpoint(log)

    # A restarted follower starts from byte 0, like a fresh one: every
    # record once, in order, for the restarted fold to absorb.
    second = LogFollower(base, policy=POLICY)
    update = second.poll()
    assert [r.text for r in update.new_records[0]] == (
        [f"r0.{i}" for i in range(10)] + [f"late{i}" for i in range(4)])
    assert second.ranks[0].records == 14
    assert second.ranks[0].offset == os.path.getsize(path)

    # A third poll emits nothing: every byte has been consumed.
    update = second.poll()
    assert update.record_count == 0


def append_bad_chunk(path: str) -> None:
    """A complete 7-byte chunk of unknown kind 'Z' (5-byte frame plus a
    2-byte payload): damage that waiting cannot heal."""
    with open(path, "ab") as fh:
        fh.write(struct.pack("<BI", ord("Z"), 2) + b"ZZ")


def test_damaged_rank_stops_alone_and_the_others_keep_flowing(tmp_path):
    follower, base = make_follower(tmp_path)
    log0 = rank_log(0, 5)
    writer0 = AppendPartialWriter(partial_path(base, 0), 0, 1e-6)
    writer0.checkpoint(log0)
    AppendPartialWriter(partial_path(base, 1), 1, 1e-6).checkpoint(
        rank_log(1, 5))
    append_bad_chunk(partial_path(base, 1))

    update = follower.poll()  # must not raise
    assert [r.text for r in update.new_records[0]] == [
        f"r0.{i}" for i in range(5)]
    assert update.new_ranks == [0, 1]
    assert list(update.damaged_ranks) == [1]
    assert "unknown chunk kind 0x5a" in update.damaged_ranks[1]
    assert follower.ranks[1].damage == update.damaged_ranks[1]
    assert not follower.ranks[0].damage

    # Rank 1 is no longer tailed (and reported once); rank 0 still is.
    log0.records.append(BareEvent(1.0, 0, 9, "later"))
    writer0.checkpoint(log0)
    update = follower.poll()
    assert [r.text for r in update.new_records[0]] == ["later"]
    assert update.damaged_ranks == {}
    assert not update.finished


def test_rewrite_mode_partial_resumes_by_record_count(tmp_path):
    follower, base = make_follower(tmp_path)
    path = partial_path(base, 0)
    log = rank_log(0, 4)
    write_partial(path, 0, log, 1e-6)
    update = follower.poll()
    assert follower.ranks[0].mode == "rewrite"
    assert len(update.new_records[0]) == 4

    # Rewrite checkpoints replace the file wholesale; the record list
    # is a growing prefix, so only the suffix is new.
    log.records.extend(BareEvent(5.0 + i, 0, 9, f"n{i}") for i in range(3))
    write_partial(path, 0, log, 1e-6)
    update = follower.poll()
    assert [r.text for r in update.new_records[0]] == ["n0", "n1", "n2"]


def test_exit_sidecar_clean_finish(tmp_path):
    follower, base = make_follower(tmp_path)
    AppendPartialWriter(partial_path(base, 0), 0, 1e-6).checkpoint(
        rank_log(0, 2))
    atomic_write_json(exit_path(base), {"finished": True, "ok": True,
                                        "crashed_ranks": {}})
    update = follower.poll()
    assert update.finished and not update.degraded
    assert follower.reason == "clean"
    # Once finished, polls stay finished (and cheap).
    assert follower.poll().finished


def test_exit_sidecar_abort_reports_crashed_ranks(tmp_path):
    follower, base = make_follower(tmp_path)
    AppendPartialWriter(partial_path(base, 1), 1, 1e-6).checkpoint(
        rank_log(1, 2))
    atomic_write_json(exit_path(base), {
        "finished": True, "ok": False, "reason": "rank 1 exploded",
        "crashed_ranks": {"1": 0.004}})
    update = follower.poll()
    assert update.finished and update.degraded
    assert "rank 1 exploded" in update.reason
    assert update.crashed_ranks == {1: 0.004}


def test_journal_abort_record_detected(tmp_path):
    from repro.vmpi.journal import K_ABORT, WORLD_WAL, _WalWriter

    journal_dir = str(tmp_path / "journal")
    os.makedirs(journal_dir)
    wal = _WalWriter(os.path.join(journal_dir, WORLD_WAL))
    wal.append(K_ABORT, {"errorcode": 77, "origin": 2, "reason": "boom",
                         "t": 0.25})
    wal.close()

    follower, base = make_follower(tmp_path, journal_dir=journal_dir)
    AppendPartialWriter(partial_path(base, 0), 0, 1e-6).checkpoint(
        rank_log(0, 2))
    update = follower.poll()
    assert update.finished and update.degraded
    assert "journal abort" in update.reason
    assert update.crashed_ranks == {2: 0.25}


def test_silent_writer_stall_declares_death(tmp_path):
    clock = FakeClock()
    follower, base = make_follower(tmp_path, clock=clock)
    path = partial_path(base, 0)
    writer = AppendPartialWriter(path, 0, 1e-6)
    writer.checkpoint(rank_log(0, 3))
    assert not follower.poll().finished

    # Still inside the deadline: waiting, not dead.
    clock.now += POLICY.deadline * 0.5
    assert not follower.poll().finished

    # Way past the deadline with no growth: the writer is gone.
    clock.now += POLICY.deadline * 2
    update = follower.poll()
    assert update.finished and update.degraded
    assert "silent" in update.reason

    # But growth resets the stall clock — a slow writer is not a dead
    # one.  (Fresh follower; the first declared death sticks.)
    clock2 = FakeClock()
    follower2 = LogFollower(base, policy=POLICY, clock=clock2)
    follower2.poll()
    clock2.now += POLICY.deadline * 0.9
    log = rank_log(0, 3)
    log.records.append(BareEvent(1.0, 0, 9, "alive"))
    writer.checkpoint(log)
    assert follower2.poll().grew
    clock2.now += POLICY.deadline * 0.9
    assert not follower2.poll().finished


def test_no_partials_yet_is_patience_not_death(tmp_path):
    clock = FakeClock()
    follower, _base = make_follower(tmp_path, clock=clock)
    clock.now += POLICY.deadline * 10
    update = follower.poll()
    assert not update.finished  # nothing attached: keep waiting
