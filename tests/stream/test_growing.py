"""Tailing a growing append-mode partial: a mid-write tail is held,
never corrupted.

:func:`repro.mpe.salvage.tail_partial` is the reader the live service
polls (through :class:`repro.stream.follow.LogFollower`) while ranks
are still checkpointing.  Reading a partial while its writer appends
must return the clean prefix plus a resumable offset — the torn last
chunk is *held* until the writer's next flush, not dropped and not
misparsed — while damage inside a complete chunk raises, because
waiting will not heal it.
"""

from __future__ import annotations

import os
import struct
import threading
import time

import pytest

from repro.mpe.api import RankLog
from repro.mpe.clocksync import SyncPoint
from repro.mpe.clog2 import Clog2FormatError
from repro.mpe.records import BareEvent, EventDef, MsgEvent, StateDef
from repro.mpe.salvage import AppendPartialWriter, tail_partial

#: Size of the append-partial header (magic, rank, resolution, reserved).
HEADER = 24


def sample_partial(tmp_path, n_records: int = 40, *, with_sync: bool,
                   batch: int = 7) -> tuple[bytes, RankLog]:
    """Checkpoint a rank's log in batches the way a running rank does;
    returns the finished partial's bytes and the log it holds."""
    log = RankLog(definitions=[StateDef(1, 2, "work", "RoyalBlue"),
                               EventDef(9, "tick", "red")])
    path = str(tmp_path / "full.part")
    writer = AppendPartialWriter(path, rank=2, clock_resolution=1e-6)
    for i in range(n_records):
        if with_sync and i % 10 == 0:
            log.sync_points.append(SyncPoint(i * 1e-3, i * 1e-6))
        if i % 3 == 2:
            log.records.append(MsgEvent(i * 1e-3, 2, i % 2, (i + 1) % 4,
                                        7, 128))
        else:
            log.records.append(BareEvent(i * 1e-3, 2, 9, f"tick {i}"))
        if i % batch == batch - 1:
            writer.checkpoint(log)
    writer.checkpoint(log)
    with open(path, "rb") as fh:
        return fh.read(), log


def grow(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


@pytest.mark.parametrize("magic_written", [False, True])
def test_shorter_than_header_returns_none(tmp_path, magic_written):
    data, _ = sample_partial(tmp_path, 4, with_sync=False)
    path = str(tmp_path / "grow.part")
    grow(path, data[:12 if magic_written else 5])
    assert tail_partial(path) is None


@pytest.mark.parametrize("with_sync", [False, True])
def test_every_cut_point_yields_clean_prefix(tmp_path, with_sync):
    """Truncate the partial at *every* byte boundary: no cut may ever
    produce a wrong item, a raise, or a non-resumable offset."""
    data, log = sample_partial(tmp_path, 12, with_sync=with_sync, batch=4)
    path = str(tmp_path / "grow.part")
    for cut in range(HEADER, len(data) + 1):
        grow(path, data[:cut])
        got = tail_partial(path)
        assert got is not None
        # The held tail plus the consumed prefix always account for
        # every byte on disk — nothing silently vanishes.
        assert got.offset + got.torn_bytes == cut
        assert got.offset >= HEADER
        assert got.records == log.records[:len(got.records)]
        assert got.sync_points == log.sync_points[:len(got.sync_points)]
        assert got.definitions in ([], log.definitions)
    # The final (complete) cut parses everything.
    assert got.records == log.records
    assert got.sync_points == log.sync_points
    assert got.definitions == log.definitions
    assert got.torn_bytes == 0


@pytest.mark.parametrize("with_sync", [False, True])
def test_resume_from_offset_sees_no_duplicates(tmp_path, with_sync):
    data, log = sample_partial(tmp_path, 30, with_sync=with_sync)
    path = str(tmp_path / "grow.part")
    records: list = []
    syncs: list = []
    defs: list = []
    offset = 0
    # Grow the file in awkward 37-byte steps, polling after each.
    for cut in list(range(HEADER, len(data), 37)) + [len(data)]:
        grow(path, data[:cut])
        got = tail_partial(path, offset)
        assert got is not None
        assert got.offset >= offset
        offset = got.offset
        records.extend(got.records)
        syncs.extend(got.sync_points)
        defs.extend(got.definitions)
    assert records == log.records
    assert syncs == log.sync_points
    assert defs == log.definitions


def test_background_writer_thread_regression(tmp_path):
    """Poll ``tail_partial`` while a real writer thread appends — the
    reader must converge on exactly the written items, once each, with
    only clean-prefix views on the way."""
    data, log = sample_partial(tmp_path, 60, with_sync=True)
    path = str(tmp_path / "live.part")
    done = threading.Event()

    def writer():
        with open(path, "wb") as fh:
            for start in range(0, len(data), 23):
                fh.write(data[start:start + 23])
                fh.flush()
                time.sleep(0.0005)
        done.set()

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    try:
        records: list = []
        syncs: list = []
        offset = 0
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            got = tail_partial(path, offset) if os.path.exists(path) else None
            if got is not None:
                offset = got.offset
                records.extend(got.records)
                syncs.extend(got.sync_points)
                if done.is_set() and offset == len(data):
                    assert got.torn_bytes == 0
                    break
            time.sleep(0.001)
        else:
            pytest.fail("reader never caught up with the writer")
    finally:
        thread.join(timeout=30.0)
    assert records == log.records
    assert syncs == log.sync_points


def test_unknown_chunk_kind_on_complete_chunk_raises(tmp_path):
    """A *complete* chunk of an unknown kind is damage, not growth —
    waiting will not heal it, so the tail must raise, not hold.  The
    same chunk cut short is still growth and is held."""
    data, _ = sample_partial(tmp_path, 8, with_sync=False)
    path = str(tmp_path / "bad.part")
    bogus = struct.pack("<BI", ord("Z"), 4) + b"zzzz"
    grow(path, data + bogus[:6])
    held = tail_partial(path)
    assert held is not None and held.torn_bytes == 6
    grow(path, data + bogus)
    with pytest.raises(Clog2FormatError, match="unknown chunk kind 0x5a"):
        tail_partial(path)
    with pytest.raises(Clog2FormatError, match="unknown chunk kind"):
        tail_partial(path, held.offset)


def test_v1_unknown_type_byte_raises(tmp_path):
    """Record chunks carry a raw (version-1) item stream: an unknown
    type byte inside a complete one raises at its offset."""
    data, _ = sample_partial(tmp_path, 8, with_sync=False)
    # The first record chunk's frame sits right after the header; its
    # payload starts with the StateDef type byte.
    body = HEADER + 5
    assert data[body] == 0x01
    path = str(tmp_path / "bad.part")
    grow(path, data[:body] + b"\xee" + data[body + 1:])
    # Offsets count from where the poll started reading.
    with pytest.raises(Clog2FormatError, match=(
            rf"unknown record type byte 0xee at offset {body - HEADER} "
            rf"\(counted from byte {HEADER}\)")):
        tail_partial(path)
