"""CLOG2 binary file format: streaming writer and reader.

A real on-disk format, struct-packed, with a round-trippable reader —
the paper's workflow keeps CLOG2 as an inspectable intermediate
("diagnosing problems with the log contents", Section II.A), and so do
we.  Layout:

``header`` — magic ``CLOG2PY1``, version u16, clock resolution f64,
rank count i32, record count u32.

Version 1 stores the item stream raw after the header.  Version 2
(``checksum=True`` on the writers) frames the same item stream into
CRC32-checked blocks: each block is ``length u32, crc32 u32`` followed
by ``length`` bytes holding whole items (a block boundary never splits
an item — blocks are exactly the writer's flush slabs).  The framing
makes silent corruption detectable: a flipped byte anywhere in a block
fails that block's checksum instead of decoding into a plausible but
wrong record, and the salvage reader drops *exactly* the damaged block
because the frame lengths tell it where the next one starts.  Old
version-1 files remain readable byte-for-byte.

Each record starts with a type byte:

=====  ==========  =======================================================
byte   kind        payload
=====  ==========  =======================================================
0x01   StateDef    start i32, end i32, name str, color str
0x02   EventDef    id i32, name str, color str
0x03   BareEvent   t f64, rank i32, id i32, text str (<= 40 bytes)
0x04   MsgEvent    t f64, rank i32, kind u8, other i32, tag i32, size i64
0x05   RankName    rank i32, name str
=====  ==========  =======================================================

Strings are u16 length-prefixed UTF-8.  All integers little-endian.

Writing is batched: every ``struct`` format is precompiled at import
time, the type byte is fused into the record pack (one C call per
record), and :func:`write_items` / :class:`Clog2Writer` flush in
~256 KiB slabs; :class:`Clog2Writer` streams records to disk without
ever holding the whole log (the header's record count is patched on
close).  Byte-for-byte output compatibility with the original eager
writer is a contract (see ``benchmarks/_legacy.py`` and the
equivalence tests).

Reading has one decoder: :func:`_scan` decodes items until the first
one that does not parse whole, the version-2 block walker and the
append-partial chunk walker (:mod:`repro.mpe.salvage`) wrap it, and
every reader meets damage at a byte offset.  The one reader entry
point is :func:`read_log` with ``errors="strict"`` (raise
:class:`Clog2FormatError` at the offset) or ``errors="salvage"``
(resync past torn spans and account them in a RecoveryReport); it
always returns a :class:`Clog2ReadResult` ``(log, recovery)`` pair.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple

from repro.mpe.records import (
    BareEvent,
    Definition,
    EventDef,
    LogRecord,
    MsgEvent,
    RankName,
    StateDef,
)
from repro.perf import stage

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpe.recovery import RecoveryReport
    from repro.perf import PerfRecorder

MAGIC = b"CLOG2PY1"
VERSION = 1
#: Header version of CRC32-block-framed files (``checksum=True``).
CHECKSUM_VERSION = 2
_KNOWN_VERSIONS = (VERSION, CHECKSUM_VERSION)

_T_STATEDEF = 0x01
_T_EVENTDEF = 0x02
_T_BARE = 0x03
_T_MSG = 0x04
_T_RANKNAME = 0x05

_HDR = struct.Struct("<8sHdiI")
#: Version-2 block frame: payload length u32, crc32-of-payload u32.
_BLOCK = struct.Struct("<II")
_U16 = struct.Struct("<H")

# Fused type-byte + payload formats ("<" means no padding, so packing
# the type byte together with the fields yields exactly the same bytes
# as writing them separately — the equivalence tests hold us to it).
_MSG_FULL = struct.Struct("<BdiBiiq")
_STATEDEF_FULL = struct.Struct("<Bii")
_IDONLY_FULL = struct.Struct("<Bi")  # EventDef / RankName heads
# BareEvent head with the text's u16 length prefix fused in as well:
# one pack (or unpack) call covers everything but the text bytes.
_BARE_FULL_U16 = struct.Struct("<BdiiH")

#: Flush threshold for the batched writer (bytes of packed parts).
_WRITE_BATCH = 256 * 1024


class Clog2FormatError(ValueError):
    """The bytes do not look like a CLOG2 file we wrote."""


class Clog2ChecksumError(Clog2FormatError):
    """A version-2 block's CRC32 does not match its payload."""


class _BlockWriter:
    """File-like adapter that frames every ``write`` as one CRC block.

    The batched writers already call ``write`` only at item boundaries
    (a flush slab always ends on a whole item), so one write = one
    valid version-2 block.  Empty writes emit nothing.
    """

    __slots__ = ("_out",)

    def __init__(self, out) -> None:
        self._out = out

    def write(self, data) -> int:
        if not data:
            return 0
        self._out.write(_BLOCK.pack(len(data), zlib.crc32(data)))
        self._out.write(data)
        return len(data)


def _str_bytes(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise Clog2FormatError(f"string too long for CLOG2 ({len(raw)} bytes)")
    return _U16.pack(len(raw)) + raw


@dataclass
class Clog2File:
    """Parsed contents of a CLOG2 file."""

    clock_resolution: float
    num_ranks: int
    definitions: list[Definition]
    records: list[LogRecord]

    @property
    def states(self) -> list[StateDef]:
        return [d for d in self.definitions if isinstance(d, StateDef)]

    @property
    def events(self) -> list[EventDef]:
        return [d for d in self.definitions if isinstance(d, EventDef)]

    @property
    def rank_names(self) -> dict[int, str]:
        return {d.rank: d.name for d in self.definitions
                if isinstance(d, RankName)}


class Clog2ReadResult(NamedTuple):
    """What :func:`read_log` hands back: the log plus the recovery
    accounting (``None`` under ``errors="strict"``, where damage raises
    instead of being accounted)."""

    log: Clog2File
    recovery: "RecoveryReport | None"


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def _pack_definition(d: Definition) -> bytes:
    if isinstance(d, StateDef):
        return (_STATEDEF_FULL.pack(_T_STATEDEF, d.start_id, d.end_id)
                + _str_bytes(d.name) + _str_bytes(d.color))
    if isinstance(d, EventDef):
        return (_IDONLY_FULL.pack(_T_EVENTDEF, d.event_id)
                + _str_bytes(d.name) + _str_bytes(d.color))
    return _IDONLY_FULL.pack(_T_RANKNAME, d.rank) + _str_bytes(d.name)


def write_items(fh, definitions: Iterable[Definition],
                records: Iterable[LogRecord], *,
                perf: "PerfRecorder | None" = None) -> int:
    """Serialise a headerless definition+record stream (shared by the
    file writer and the salvage partials).

    Accepts any iterables; packs into an in-memory batch flushed in
    slabs so the caller pays one ``write`` per ~256 KiB instead of per
    field.  Returns the number of records written.
    """
    parts: list[bytes] = []
    append = parts.append
    pending = 0
    total = 0
    nrecords = 0
    bare_pack = _BARE_FULL_U16.pack
    msg_pack = _MSG_FULL.pack
    msg_size = _MSG_FULL.size
    bare_head = _BARE_FULL_U16.size
    batch = _WRITE_BATCH
    write = fh.write
    join = b"".join
    for d in definitions:
        piece = _pack_definition(d)
        append(piece)
        pending += len(piece)
    for r in records:
        nrecords += 1
        if type(r) is MsgEvent:
            append(msg_pack(_T_MSG, r.timestamp, r.rank, r.kind,
                            r.other_rank, r.tag, r.size))
            pending += msg_size
        elif type(r) is BareEvent:
            raw = r.text.encode("utf-8")
            n = len(raw)
            if n > 0xFFFF:
                raise Clog2FormatError(
                    f"string too long for CLOG2 ({n} bytes)")
            append(bare_pack(_T_BARE, r.timestamp, r.rank, r.event_id, n))
            append(raw)
            pending += bare_head + n
        else:
            raise Clog2FormatError(f"unknown record {r!r}")
        if pending >= batch:
            write(join(parts))
            parts.clear()
            total += pending
            pending = 0
    if parts:
        write(join(parts))
        total += pending
    if perf is not None:
        perf.count("clog2-write", records=nrecords, bytes=total)
    return nrecords


class Clog2Writer:
    """Stream a CLOG2 file to disk without holding the whole log.

    The header's record count is not known until the stream ends, so a
    placeholder is written up front and patched in :meth:`close` — the
    finished file is byte-identical to an eager :func:`write_clog2` of
    the same items.

    Usable as a context manager::

        with Clog2Writer(path, resolution, num_ranks) as w:
            w.write_definitions(defs)
            w.write_retimed_records(merge_rank_streams(streams))
    """

    def __init__(self, path: str, clock_resolution: float, num_ranks: int, *,
                 checksum: bool = False,
                 perf: "PerfRecorder | None" = None) -> None:
        self.path = path
        self.checksum = checksum
        self.records_written = 0
        self.bytes_written = 0
        self._perf = perf
        self._raw = open(path, "wb")
        version = CHECKSUM_VERSION if checksum else VERSION
        self._raw.write(_HDR.pack(MAGIC, version, clock_resolution,
                                  num_ranks, 0))
        self._fh = _BlockWriter(self._raw) if checksum else self._raw
        self._parts: list[bytes] = []
        self._pending = 0

    def _flush(self) -> None:
        if self._parts:
            self._fh.write(b"".join(self._parts))
            self.bytes_written += self._pending
            self._parts.clear()
            self._pending = 0

    def write_definitions(self, definitions: Iterable[Definition]) -> None:
        for d in definitions:
            piece = _pack_definition(d)
            self._parts.append(piece)
            self._pending += len(piece)
            if self._pending >= _WRITE_BATCH:
                self._flush()

    def write_retimed_records(
            self, items: "Iterable[tuple[float, int, LogRecord]]") -> None:
        """Serialise merge tuples ``(corrected time, rank, record)``
        directly, packing the corrected time in place of the record's
        own timestamp.

        This is the fused merge→write hot path: the k-way merge
        (:mod:`repro.mpe.merge`) hands over original record objects
        plus corrected times, and nothing is ever rebuilt just to be
        serialised — the bytes are identical to writing the corrected
        records one by one.
        """
        parts = self._parts
        append = parts.append
        pending = self._pending
        nrecords = 0
        bare_pack = _BARE_FULL_U16.pack
        msg_pack = _MSG_FULL.pack
        msg_size = _MSG_FULL.size
        bare_head = _BARE_FULL_U16.size
        batch = _WRITE_BATCH
        write = self._fh.write
        join = b"".join
        total = 0
        for t, _rank, r in items:
            nrecords += 1
            if type(r) is MsgEvent:
                append(msg_pack(_T_MSG, t, r.rank, r.kind,
                                r.other_rank, r.tag, r.size))
                pending += msg_size
            elif type(r) is BareEvent:
                raw = r.text.encode("utf-8")
                n = len(raw)
                if n > 0xFFFF:
                    raise Clog2FormatError(
                        f"string too long for CLOG2 ({n} bytes)")
                append(bare_pack(_T_BARE, t, r.rank, r.event_id, n))
                append(raw)
                pending += bare_head + n
            else:
                raise Clog2FormatError(f"unknown record {r!r}")
            if pending >= batch:
                write(join(parts))
                parts.clear()
                total += pending
                pending = 0
        self._pending = pending
        self.bytes_written += total
        self.records_written += nrecords

    def close(self) -> None:
        if self._raw.closed:
            return
        self._flush()
        # Patch the record count into the header (offset of the trailing
        # u32 in "<8sHdiI").  The header is never block-framed, so the
        # patch goes straight to the file in both versions.
        self._raw.seek(_HDR.size - 4)
        self._raw.write(struct.pack("<I", self.records_written))
        self._raw.close()
        if self._perf is not None:
            self._perf.count("clog2-write", records=self.records_written,
                             bytes=self.bytes_written)

    def __enter__(self) -> "Clog2Writer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_clog2_to(fh, log: Clog2File, *, checksum: bool = False,
                   perf: "PerfRecorder | None" = None) -> None:
    """Serialise a whole CLOG2 image (header + items) to an open binary
    stream — the same bytes :func:`write_clog2` puts in a file.  The
    salvage partials embed CLOG2 bodies this way."""
    version = CHECKSUM_VERSION if checksum else VERSION
    fh.write(_HDR.pack(MAGIC, version, log.clock_resolution,
                       log.num_ranks, len(log.records)))
    body = _BlockWriter(fh) if checksum else fh
    write_items(body, log.definitions, log.records, perf=perf)


def write_clog2(path: str, log: Clog2File, *, checksum: bool = False,
                perf: "PerfRecorder | None" = None) -> None:
    """Serialise definitions + merged records to ``path``.

    ``checksum=True`` writes version-2 CRC32 block framing (see the
    module docstring); the default stays version 1 so existing logs and
    golden hashes are bit-stable.
    """
    with stage(perf, "clog2-write"), open(path, "wb") as fh:
        write_clog2_to(fh, log, checksum=checksum, perf=perf)


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------
#
# Every reader decodes with _scan and meets damage at a byte offset.
# The caller applies one policy to it: strict (no report) raises
# Clog2FormatError at the offset; salvage resyncs with _resync_offset
# and accounts the skipped span in a RecoveryReport; the append-partial
# tail (repro.mpe.salvage.tail_partial) holds an unfinished chunk as
# torn bytes.

#: The cause :func:`_scan` gives for an item that runs past the end of
#: its region.  That is a torn tail, not corruption: salvage drops it
#: and never resyncs into its bytes, so a cut never yields a bogus item.
_TORN = "truncated CLOG2 file"

_VALID_TYPE_BYTES = frozenset(
    (_T_STATEDEF, _T_EVENTDEF, _T_BARE, _T_MSG, _T_RANKNAME))


class Clog2Header(NamedTuple):
    """The fixed header of a CLOG2 file."""

    clock_resolution: float
    num_ranks: int
    num_records: int
    version: int = VERSION

    @property
    def checksummed(self) -> bool:
        return self.version >= CHECKSUM_VERSION


def _header_at(data: bytes, start: int) -> tuple[Clog2Header | None, str]:
    """``(header, "")`` for a valid CLOG2 header at ``start``, else
    ``(None, why not)``."""
    if start + _HDR.size > len(data):
        return None, f"too short for a CLOG2 header ({len(data) - start} bytes)"
    magic, version, resolution, num_ranks, nrecords = _HDR.unpack_from(
        data, start)
    if magic != MAGIC:
        return None, f"bad magic {magic!r}"
    if version not in _KNOWN_VERSIONS:
        return None, f"unsupported CLOG2 version {version}"
    return Clog2Header(resolution, num_ranks, nrecords, version), ""


def read_header(fh) -> Clog2Header:
    """Parse and validate the CLOG2 header from an open binary file."""
    header, reason = _header_at(fh.read(_HDR.size), 0)
    if header is None:
        raise Clog2FormatError(reason)
    return header


def _strs(data: bytes, pos: int, end: int, count: int
          ) -> tuple[list[str], int]:
    """Decode ``count`` u16-prefixed strings at ``pos``:
    ``(strings, offset after them)``."""
    out = []
    for _ in range(count):
        start = pos + 2
        (n,) = _U16.unpack_from(data, pos)
        pos = start + n
        if pos > end:
            raise Clog2FormatError(_TORN)
        out.append(data[start:pos].decode("utf-8"))
    return out, pos


def _scan(data: bytes, pos: int, end: int, defs: list[Definition],
          recs: list[LogRecord]) -> tuple[int, str | None]:
    """Decode the items in ``data[pos:end]`` into ``defs`` and ``recs``
    — the one CLOG2 item decoder.

    Returns ``(end, None)`` when every item decoded whole.  Otherwise
    returns ``(stop, cause)``: ``stop`` is the offset of the first item
    that did not (torn at ``end``, an unknown type byte, text that is
    not UTF-8), and every item before it has been kept.  BareEvent and
    MsgEvent, the bulk of any log, decode inline with one fused unpack
    each.
    """
    drec = defs.append
    rrec = recs.append
    bare_unpack = _BARE_FULL_U16.unpack_from
    msg_unpack = _MSG_FULL.unpack_from
    bare_head = _BARE_FULL_U16.size
    msg_size = _MSG_FULL.size
    try:
        while pos < end:
            t = data[pos]
            if t == _T_BARE:
                _, ts, rank, eid, n = bare_unpack(data, pos)
                cursor = pos + bare_head
                nxt = cursor + n
                if nxt > end:
                    return pos, _TORN
                rrec(BareEvent(ts, rank, eid,
                               data[cursor:nxt].decode("utf-8")))
            elif t == _T_MSG:
                nxt = pos + msg_size
                if nxt > end:
                    return pos, _TORN
                _, ts, rank, kind, other, tag, size = msg_unpack(data, pos)
                rrec(MsgEvent(ts, rank, kind, other, tag, size))
            elif t == _T_STATEDEF:
                _, start_id, end_id = _STATEDEF_FULL.unpack_from(data, pos)
                (name, color), nxt = _strs(
                    data, pos + _STATEDEF_FULL.size, end, 2)
                drec(StateDef(start_id, end_id, name, color))
            elif t == _T_EVENTDEF:
                _, eid = _IDONLY_FULL.unpack_from(data, pos)
                (name, color), nxt = _strs(
                    data, pos + _IDONLY_FULL.size, end, 2)
                drec(EventDef(eid, name, color))
            elif t == _T_RANKNAME:
                _, rank = _IDONLY_FULL.unpack_from(data, pos)
                (name,), nxt = _strs(data, pos + _IDONLY_FULL.size, end, 1)
                drec(RankName(rank, name))
            else:
                return pos, f"unknown record type byte 0x{t:02x}"
            pos = nxt
    except struct.error:
        return pos, _TORN  # an unpack ran past the end of the buffer
    except (Clog2FormatError, UnicodeDecodeError) as exc:
        return pos, str(exc)
    return pos, None


def _resync_offset(data: bytes, start: int, end: int,
                   defs: list[Definition], recs: list[LogRecord]
                   ) -> tuple[int, int, str | None]:
    """Find the first offset >= ``start`` where an item decodes whole
    and is followed by ``end`` or another plausible item start, and
    decode on from there.

    Returns ``(offset, stop, cause)``: the resync point and the outcome
    of :func:`_scan` from it, whose items join ``defs``/``recs``.
    ``(end, end, None)`` when no such point exists (the rest of the
    region is unrecoverable).
    """
    for off in range(start, end):
        if data[off] not in _VALID_TYPE_BYTES:
            continue
        d: list[Definition] = []
        r: list[LogRecord] = []
        stop, cause = _scan(data, off, end, d, r)
        decoded = len(d) + len(r)
        if decoded > 1 or (decoded == 1 and (
                stop == end or data[stop] in _VALID_TYPE_BYTES)):
            defs.extend(d)
            recs.extend(r)
            return off, stop, cause
    return end, end, None


def _damage(report: "RecoveryReport | None", source: str, start: int,
            stop: int, reason: str, error=Clog2FormatError) -> None:
    """Meet damage spanning ``[start, stop)``: strict (no ``report``)
    raises ``error`` at the offset, salvage accounts the span."""
    if report is None:
        raise error(f"{reason} at offset {start}")
    report.drop(source, start, stop, reason)


def _decode_items(data: bytes, pos: int, end: int, defs: list[Definition],
                  recs: list[LogRecord], report: "RecoveryReport | None",
                  source: str) -> None:
    """Decode the headerless item stream ``data[pos:end]`` into
    ``defs``/``recs`` under one damage policy: strict (no ``report``)
    raises at the first damaged item; salvage skips to the next point
    where items decode again and accounts the skipped span.  An item
    torn at ``end`` is dropped with everything after it."""
    stop, cause = _scan(data, pos, end, defs, recs)
    while cause is not None:
        if report is None:
            raise Clog2FormatError(f"{cause} at offset {stop}")
        skip, nxt, next_cause = ((end, end, None) if cause == _TORN else
                                 _resync_offset(data, stop + 1, end,
                                                defs, recs))
        report.drop(source, stop, skip, f"unparseable record ({cause})")
        stop, cause = nxt, next_cause


def _walk_blocks(data: bytes, pos: int, defs: list[Definition],
                 recs: list[LogRecord], report: "RecoveryReport | None",
                 source: str) -> None:
    """Decode the version-2 block sequence from ``pos`` to the end of
    ``data``; each block's CRC is checked before its items are decoded.

    Under salvage a CRC mismatch drops *exactly* the damaged block —
    the frame length says where the next one starts, so corruption is
    localised instead of smeared forward the way the version-1 resync
    has to — and a torn frame drops the tail.
    """
    end = len(data)
    view = memoryview(data)
    while pos < end:
        body = pos + _BLOCK.size
        if body > end:
            _damage(report, source, pos, end, "truncated block header")
            return
        length, crc = _BLOCK.unpack_from(data, pos)
        nxt = body + length
        if nxt > end:
            _damage(report, source, pos, end,
                    f"truncated block (promised {length} bytes, "
                    f"got {end - body})")
            return
        computed = zlib.crc32(view[body:nxt])
        if computed != crc:
            _damage(report, source, pos, nxt,
                    f"block checksum mismatch (stored 0x{crc:08x}, "
                    f"computed 0x{computed:08x})", Clog2ChecksumError)
        else:
            _decode_items(data, body, nxt, defs, recs, report, source)
        pos = nxt


def _parse_image(data: bytes, start: int,
                 report: "RecoveryReport | None", source: str) -> Clog2File:
    """Parse the CLOG2 image (header, then items) at ``data[start:]``.

    Strict without a ``report``: any damage raises
    :class:`Clog2FormatError`.  With one, damage is skipped and
    accounted there (offsets are positions in ``data``).  Shared by
    :func:`read_log` and the rewrite-mode partials, which embed a
    whole image after their sync section.
    """
    header, reason = _header_at(data, start)
    if header is None:
        _damage(report, source, start, len(data), reason)
        return Clog2File(1e-6, 0, [], [])
    definitions: list[Definition] = []
    records: list[LogRecord] = []
    body = start + _HDR.size
    if header.checksummed:
        _walk_blocks(data, body, definitions, records, report, source)
    else:
        _decode_items(data, body, len(data), definitions, records, report,
                     source)
    promised = header.num_records
    if report is None and len(records) != promised:
        raise Clog2FormatError(
            f"header promised {promised} records, found {len(records)}")
    if report is not None and len(records) < promised:
        # The header knows how many records the writer meant to store;
        # anything the torn spans swallowed is exactly the difference.
        report.records_dropped = max(report.records_dropped,
                                     promised - len(records))
        report.note(f"{source}: header promised {promised} records, "
                    f"salvaged {len(records)}")
    return Clog2File(header.clock_resolution, header.num_ranks,
                     definitions, records)


def _check_errors_mode(errors: str) -> None:
    if errors not in ("strict", "salvage"):
        raise ValueError(
            f"errors must be 'strict' or 'salvage', got {errors!r}")


def read_log(path: str, *, errors: str = "strict",
             perf: "PerfRecorder | None" = None) -> Clog2ReadResult:
    """Parse a CLOG2 file — the one reader entry point.

    ``errors="strict"`` raises :class:`Clog2FormatError` on any damage
    and returns ``(log, None)``; ``errors="salvage"`` skips torn and
    corrupt spans, never raises on damage, and returns ``(log, report)``
    with a byte-accurate :class:`~repro.mpe.recovery.RecoveryReport`.
    Strict remains the right mode for logs that are supposed to be
    intact — silent tolerance of a writer bug would be a regression,
    not robustness.
    """
    _check_errors_mode(errors)
    report: RecoveryReport | None = None
    if errors == "salvage":
        from repro.mpe.recovery import RecoveryReport

        report = RecoveryReport(source=os.path.basename(path))
    with stage(perf, "clog2-read"):
        with open(path, "rb") as fh:
            data = fh.read()
        log = _parse_image(data, 0, report,
                                report.source if report else "")
    if report is not None:
        report.records_kept += len(log.records)
    if perf is not None:
        perf.count("clog2-read", records=len(log.records), bytes=len(data))
    return Clog2ReadResult(log, report)
