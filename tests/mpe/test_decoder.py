"""One CLOG2 decoder, three damage policies.

Every reader decodes through the same item scanner and meets damage at
a byte offset.  Strict raises :class:`Clog2FormatError` there (never a
``UnicodeDecodeError`` or ``struct.error`` leaking out of the decode),
salvage resyncs and accounts the span, and the append-partial tail
holds an unfinished chunk as ``torn_bytes``.  The property test at the
bottom drives all three over generated images of every layout.
"""

from __future__ import annotations

import os
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jumpshot.__main__ import main as jumpshot_main
from repro.mpe.api import RankLog
from repro.mpe.clocksync import SyncPoint
from repro.mpe.clog2 import (
    Clog2File,
    Clog2FormatError,
    read_log,
    write_clog2,
)
from repro.mpe.records import BareEvent, EventDef, MsgEvent, RankName, StateDef
from repro.mpe.salvage import (
    AppendPartialWriter,
    read_partial_log,
    tail_partial,
    write_partial,
)
from repro.pilotcheck.__main__ import main as pilotcheck_main

DEFS = [StateDef(1, 2, "work", "RoyalBlue"), EventDef(9, "tick", "red"),
        RankName(0, "wörker")]


def small_log(n: int = 8) -> Clog2File:
    records = [BareEvent(i * 1e-3, i % 2, 9, f"text {i}") if i % 3
               else MsgEvent(i * 1e-3, i % 2, i % 2, 1 - i % 2, 4, 64)
               for i in range(n)]
    return Clog2File(1e-6, 2, list(DEFS), records)


def v1_with_bad_utf8(tmp_path) -> tuple[str, int]:
    """A v1 log whose first BareEvent text has one byte set to 0xff;
    returns the path and that record's offset."""
    path = str(tmp_path / "bad.clog2")
    write_clog2(path, small_log())
    data = bytearray(Path(path).read_bytes())
    text = data.index(b"text 1")
    data[text] = 0xFF
    Path(path).write_bytes(bytes(data))
    return path, text - 19  # type byte, f64, i32, i32, u16 length


class TestStrictRaisesFormatErrorOnly:
    def test_bad_utf8_text_in_v1_log(self, tmp_path):
        path, record = v1_with_bad_utf8(tmp_path)
        with pytest.raises(Clog2FormatError, match=f"at offset {record}$"):
            read_log(path)
        log, report = read_log(path, errors="salvage")
        assert [r.text for r in log.records if type(r) is BareEvent][:1] \
            == ["text 2"]
        assert report.dropped_ranges[0].start == record

    def test_lint_trace_reports_tr005_and_salvages(self, tmp_path, capsys):
        path, _ = v1_with_bad_utf8(tmp_path)
        assert pilotcheck_main(["lint-trace", path]) == 2
        out = capsys.readouterr().out
        assert "TR005" in out and "strict parse failed" in out

    def test_jumpshot_cli_refuses_instead_of_crashing(self, tmp_path):
        path, _ = v1_with_bad_utf8(tmp_path)
        with pytest.raises(SystemExit, match="neither an SLOG2 nor a CLOG2"):
            jumpshot_main([path])

    def test_stream_finalize_falls_back_to_salvage(self, tmp_path):
        from repro._util.fsio import atomic_write_json
        from repro._util.retry import RetryPolicy
        from repro.stream.follow import exit_path
        from repro.stream.service import StreamService

        path, _ = v1_with_bad_utf8(tmp_path)
        atomic_write_json(exit_path(path), {
            "finished": True, "ok": True, "reason": "",
            "crashed_ranks": {}})
        svc = StreamService(path, policy=RetryPolicy(
            deadline=5.0, initial=0.001, max_delay=0.01, jitter=0.0),
            expected_ranks=2).start()
        try:
            assert svc.wait_finalized(30.0)
            # The batch tree comes from the salvage read, not from the
            # provisional fold a failed finalize falls back to.
            assert "batch finalize failed" not in (svc.reason or "")
            assert svc.banner.startswith("salvaged")
        finally:
            svc.stop()

    @pytest.mark.parametrize("cut", [20, 40])
    def test_rewrite_partial_torn_in_sync_section(self, tmp_path, cut):
        path = str(tmp_path / "r.part")
        log = RankLog(records=list(small_log().records),
                      definitions=list(DEFS),
                      sync_points=[SyncPoint(0.0, 0.0), SyncPoint(1.0, 2e-6),
                                   SyncPoint(2.0, 3e-6)])
        write_partial(path, 1, log, 1e-6)
        with open(path, "r+b") as fh:
            fh.truncate(cut)
        with pytest.raises(Clog2FormatError, match="torn sync section"):
            read_partial_log(path)
        part, report = read_partial_log(path, errors="salvage")
        assert part.rank == 1 and part.records == []
        assert part.sync_points == log.sync_points[:(cut - 16) // 16]

    @pytest.mark.parametrize("cut", range(16, 24))
    def test_append_partial_cut_inside_its_header(self, tmp_path, cut):
        path = str(tmp_path / "a.part")
        log = RankLog(records=list(small_log().records),
                      definitions=list(DEFS))
        AppendPartialWriter(path, 0, 1e-6).checkpoint(log)
        with open(path, "r+b") as fh:
            fh.truncate(cut)
        with pytest.raises(Clog2FormatError, match="too short"):
            read_partial_log(path)
        part, report = read_partial_log(path, errors="salvage")
        assert part.rank == -1 and not report.clean
        assert tail_partial(path) is None

    def test_strict_append_read_is_the_tail_policy(self, tmp_path):
        """A strict read of an append partial returns exactly what a
        tail poll holds as clean: the torn final chunk is left out."""
        path = str(tmp_path / "a.part")
        log = RankLog(records=list(small_log().records),
                      definitions=list(DEFS))
        writer = AppendPartialWriter(path, 0, 1e-6)
        writer.checkpoint(log)
        whole = os.path.getsize(path)
        log.records.append(BareEvent(1.0, 0, 9, "late"))
        writer.checkpoint(log)
        with open(path, "r+b") as fh:
            fh.truncate(whole + 9)
        tail = tail_partial(path)
        assert tail is not None and tail.torn_bytes == 9
        part = read_partial_log(path).partial
        assert part.records == tail.records == log.records[:-1]

    def test_salvage_never_resyncs_into_a_torn_tail(self, tmp_path):
        """The last record is cut inside a text that looks like a whole
        MsgEvent ending exactly at the cut.  Resyncing into those bytes
        would emit a record nobody wrote; salvage drops the torn tail."""
        path = str(tmp_path / "cut.clog2")
        log = small_log()
        log.records.append(BareEvent(1.0, 0, 9, "\x04" + "A" * 29 + "tail"))
        write_clog2(path, log)
        data = Path(path).read_bytes()
        text = data.index(b"\x04AAAA")
        Path(path).write_bytes(data[:text + 30])
        salvaged, report = read_log(path, errors="salvage")
        assert salvaged.records == log.records[:-1]
        assert [(r.start, r.end) for r in report.dropped_ranges] \
            == [(text - 19, text + 30)]

    def test_bad_sync_chunk_length_is_damage(self, tmp_path):
        path = str(tmp_path / "s.part")
        AppendPartialWriter(path, 0, 1e-6).checkpoint(
            RankLog(records=list(small_log(3).records),
                    definitions=list(DEFS)))
        with open(path, "ab") as fh:
            fh.write(struct.pack("<BI", ord("S"), 8) + b"\0" * 8)
        with pytest.raises(Clog2FormatError, match="sync chunk of 8 bytes"):
            read_partial_log(path)
        part, report = read_partial_log(path, errors="salvage")
        assert len(part.records) == 3 and not report.clean


# -- the three policies over generated images --------------------------------

# Type bytes and NULs in the text make a torn tail full of look-alike
# items, the case where a careless resync would emit a bogus record.
texts = st.text(st.sampled_from("\x00\x01\x03\x04\x05Aé"), max_size=40)
times = st.floats(0, 1e3, allow_nan=False)
records_st = st.lists(st.one_of(
    st.builds(BareEvent, times, st.integers(0, 3), st.sampled_from((1, 2, 9)),
              texts),
    st.builds(MsgEvent, times, st.integers(0, 3), st.integers(0, 1),
              st.integers(0, 3), st.integers(0, 9), st.integers(0, 1 << 20)),
), max_size=14)
#: Either every cut of the image, or one single-bit flip at a drawn spot.
damage_st = st.one_of(
    st.just(("cut",)),
    st.tuples(st.just("flip"), st.floats(0, 0.999), st.integers(0, 7)),
)


def write_image(kind: str, path: str, records: list) -> None:
    log = Clog2File(1e-6, 4, list(DEFS), records)
    if kind in ("v1", "v2"):
        write_clog2(path, log, checksum=kind == "v2")
        return
    rank_log = RankLog(definitions=list(DEFS),
                       sync_points=[SyncPoint(0.0, 0.0)])
    if kind == "rewrite":
        rank_log.records.extend(records)
        write_partial(path, 0, rank_log, 1e-6)
        return
    writer = AppendPartialWriter(path, 0, 1e-6)
    for i, rec in enumerate(records):
        rank_log.records.append(rec)
        if i % 4 == 3:
            rank_log.sync_points.append(SyncPoint(rec.timestamp, 1e-6 * i))
            writer.checkpoint(rank_log)
    writer.checkpoint(rank_log)


def is_subsequence(got: list, written: list) -> bool:
    it = iter(written)
    return all(any(g == w for w in it) for g in got)


def read(kind: str, path: str, errors: str):
    if kind in ("v1", "v2"):
        return read_log(path, errors=errors)
    return read_partial_log(path, errors=errors)


@settings(deadline=None, max_examples=40)
@given(kind=st.sampled_from(("v1", "v2", "rewrite", "append")),
       records=records_st, damage=damage_st)
def test_damage_policies(kind, records, damage):
    """Strict raises only Clog2FormatError (Clog2ChecksumError
    included); salvage never raises and, wherever damage can be told
    from data, keeps a subsequence of what was written; the tail
    accounts for every byte at every cut.

    A flipped byte in an unframed (version-1 or partial) image can
    decode as a different well-formed record, which no reader can tell
    apart without a checksum, so the subsequence check covers cuts of
    every layout and flips of the CRC-framed version 2.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "image")
        write_image(kind, path, records)
        image = Path(path).read_bytes()
        if damage[0] == "cut":
            damaged = [image[:cut] for cut in range(len(image) + 1)]
        else:
            pos = int(damage[1] * len(image))
            damaged = [image[:pos] + bytes([image[pos] ^ (1 << damage[2])])
                       + image[pos + 1:]]
        told = damage[0] == "cut" or kind == "v2"
        for data in damaged:
            Path(path).write_bytes(data)
            try:
                strict = read(kind, path, "strict")[0]
            except Clog2FormatError:
                pass
            else:
                if told:
                    assert strict.records == records[:len(strict.records)]
            salvaged, report = read(kind, path, "salvage")
            assert report is not None
            if told:
                assert is_subsequence(salvaged.records, records)
            if kind == "append" and damage[0] == "cut":
                tail = tail_partial(path)
                if tail is None:
                    assert len(data) < 24
                    continue
                assert tail.offset + tail.torn_bytes == len(data)
                assert tail.records == records[:len(tail.records)]
