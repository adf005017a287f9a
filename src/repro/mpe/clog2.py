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

The I/O layer is the pipeline's hot path, so it is streaming and
batched:

* every ``struct`` format is precompiled at import time, and the type
  byte is fused into the record pack (one C call per record instead of
  two-to-four Python-level writes);
* :func:`write_items` packs into an in-memory batch and flushes in
  ~256 KiB slabs; :class:`Clog2Writer` streams records to disk without
  ever holding the whole log (the header's record count is patched on
  close);
* :func:`iter_items` / :func:`iter_clog2` parse out of a refillable
  chunk buffer with ``unpack_from`` — a log never needs to be fully
  resident to read it either.

Byte-for-byte output compatibility with the original eager writer is a
contract (see ``benchmarks/_legacy.py`` and the equivalence tests).

The one reader entry point is :func:`read_log` with
``errors="strict"`` (raise on damage) or ``errors="salvage"``
(skip torn spans, account them in a RecoveryReport); it always returns
a :class:`Clog2ReadResult` ``(log, recovery)`` pair.
"""

from __future__ import annotations

import io
import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from repro.mpe.records import (
    BareEvent,
    Definition,
    EventDef,
    LogRecord,
    MsgEvent,
    RankName,
    StateDef,
)

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
_STATEDEF = struct.Struct("<ii")
_EVENTDEF = struct.Struct("<i")
_BARE = struct.Struct("<dii")
_MSG = struct.Struct("<diBiiq")
_U16 = struct.Struct("<H")

# Fused type-byte + payload formats ("<" means no padding, so packing
# the type byte together with the fields yields exactly the same bytes
# as writing them separately — the equivalence tests hold us to it).
_BARE_FULL = struct.Struct("<Bdii")
_MSG_FULL = struct.Struct("<BdiBiiq")
_STATEDEF_FULL = struct.Struct("<Bii")
_IDONLY_FULL = struct.Struct("<Bi")  # EventDef / RankName heads
# BareEvent head with the text's u16 length prefix fused in as well:
# one pack call covers everything but the text bytes themselves.
_BARE_FULL_U16 = struct.Struct("<BdiiH")

#: Flush threshold for the batched writer (bytes of packed parts).
_WRITE_BATCH = 256 * 1024
#: Refill chunk size for the streaming reader.
_READ_CHUNK = 1 << 20


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


def _pack_str(out: io.BufferedIOBase, s: str) -> None:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise Clog2FormatError(f"string too long for CLOG2 ({len(raw)} bytes)")
    out.write(_U16.pack(len(raw)))
    out.write(raw)


def _str_bytes(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise Clog2FormatError(f"string too long for CLOG2 ({len(raw)} bytes)")
    return _U16.pack(len(raw)) + raw


def _unpack_str(buf: io.BufferedIOBase) -> str:
    (n,) = _U16.unpack(_read_exact(buf, 2))
    return _read_exact(buf, n).decode("utf-8")


def _read_exact(buf: io.BufferedIOBase, n: int) -> bytes:
    data = buf.read(n)
    if len(data) != n:
        raise Clog2FormatError("truncated CLOG2 file")
    return data


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
            for rec in stream:
                w.write_record(rec)
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

    def _push(self, piece: bytes) -> None:
        self._parts.append(piece)
        self._pending += len(piece)
        if self._pending >= _WRITE_BATCH:
            self._flush()

    def _flush(self) -> None:
        if self._parts:
            self._fh.write(b"".join(self._parts))
            self.bytes_written += self._pending
            self._parts.clear()
            self._pending = 0

    def write_definition(self, d: Definition) -> None:
        self._push(_pack_definition(d))

    def write_definitions(self, definitions: Iterable[Definition]) -> None:
        for d in definitions:
            self._push(_pack_definition(d))

    def write_record(self, r: LogRecord) -> None:
        if type(r) is MsgEvent:
            piece = _MSG_FULL.pack(_T_MSG, r.timestamp, r.rank, r.kind,
                                   r.other_rank, r.tag, r.size)
        elif type(r) is BareEvent:
            piece = (_BARE_FULL.pack(_T_BARE, r.timestamp, r.rank, r.event_id)
                     + _str_bytes(r.text))
        else:
            raise Clog2FormatError(f"unknown record {r!r}")
        self._push(piece)
        self.records_written += 1

    def write_records(self, records: Iterable[LogRecord]) -> None:
        for r in records:
            self.write_record(r)

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
    if perf is not None:
        with perf.stage("clog2-write"):
            with open(path, "wb") as fh:
                write_clog2_to(fh, log, checksum=checksum, perf=perf)
    else:
        with open(path, "wb") as fh:
            write_clog2_to(fh, log, checksum=checksum)


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


def _parse_item_at(data, pos: int, end: int):
    """Parse one item out of ``data[pos:end]``.

    Returns ``(item, next_pos)``, or ``None`` when the remaining bytes
    cannot hold the whole item (the streaming reader refills and
    retries; the eager reader treats it as truncation).  Raises
    :class:`Clog2FormatError` on an unknown type byte.
    """
    t = data[pos]
    if t == _T_MSG:
        if pos + 1 + _MSG.size > end:
            return None
        ts, rank, kind, other, tag, size = _MSG.unpack_from(data, pos + 1)
        return MsgEvent(ts, rank, kind, other, tag, size), pos + 1 + _MSG.size
    if t == _T_BARE:
        cursor = pos + 1 + _BARE.size
        if cursor + 2 > end:
            return None
        ts, rank, eid = _BARE.unpack_from(data, pos + 1)
        (n,) = _U16.unpack_from(data, cursor)
        cursor += 2
        if cursor + n > end:
            return None
        text = bytes(data[cursor:cursor + n]).decode("utf-8")
        return BareEvent(ts, rank, eid, text), cursor + n
    if t == _T_STATEDEF:
        cursor = pos + 1 + _STATEDEF.size
        if cursor > end:
            return None
        start, sto = _STATEDEF.unpack_from(data, pos + 1)
        parsed = _parse_strs(data, cursor, end, 2)
        if parsed is None:
            return None
        (name, color), cursor = parsed
        return StateDef(start, sto, name, color), cursor
    if t == _T_EVENTDEF:
        cursor = pos + 1 + _EVENTDEF.size
        if cursor > end:
            return None
        (eid,) = _EVENTDEF.unpack_from(data, pos + 1)
        parsed = _parse_strs(data, cursor, end, 2)
        if parsed is None:
            return None
        (name, color), cursor = parsed
        return EventDef(eid, name, color), cursor
    if t == _T_RANKNAME:
        cursor = pos + 1 + _EVENTDEF.size
        if cursor > end:
            return None
        (rank,) = _EVENTDEF.unpack_from(data, pos + 1)
        parsed = _parse_strs(data, cursor, end, 1)
        if parsed is None:
            return None
        (name,), cursor = parsed
        return RankName(rank, name), cursor
    raise Clog2FormatError(f"unknown record type byte 0x{t:02x}")


def _parse_strs(data, pos: int, end: int, count: int):
    """Parse ``count`` length-prefixed strings; None if bytes run out."""
    out = []
    for _ in range(count):
        if pos + 2 > end:
            return None
        (n,) = _U16.unpack_from(data, pos)
        pos += 2
        if pos + n > end:
            return None
        out.append(bytes(data[pos:pos + n]).decode("utf-8"))
        pos += n
    return out, pos


def iter_items(fh) -> Iterator[Definition | LogRecord]:
    """Lazily parse a headerless item stream from a binary file object.

    Reads in ~1 MiB chunks and keeps only the unparsed tail resident, so
    arbitrarily large streams cost constant memory.  Raises
    :class:`Clog2FormatError` on a record torn at EOF or an unknown
    type byte, exactly like the eager reader.
    """
    buf = b""
    pos = 0
    eof = False
    while True:
        end = len(buf)
        while pos < end:
            parsed = _parse_item_at(buf, pos, end)
            if parsed is None:
                break
            item, pos = parsed
            yield item
        if pos >= end and eof:
            return
        chunk = fh.read(_READ_CHUNK)
        if chunk:
            buf = buf[pos:] + chunk
            pos = 0
        elif eof or pos >= len(buf):
            # No growth possible and a partial item remains.
            if pos < len(buf):
                raise Clog2FormatError("truncated CLOG2 file")
            return
        else:
            eof = True


class Clog2Header(NamedTuple):
    """The fixed header of a CLOG2 file."""

    clock_resolution: float
    num_ranks: int
    num_records: int
    version: int = VERSION

    @property
    def checksummed(self) -> bool:
        return self.version >= CHECKSUM_VERSION


def read_header(fh) -> Clog2Header:
    """Parse and validate the CLOG2 header from an open binary file."""
    magic, version, resolution, num_ranks, nrecords = _HDR.unpack(
        _read_exact(fh, _HDR.size))
    if magic != MAGIC:
        raise Clog2FormatError(f"bad magic {magic!r}")
    if version not in _KNOWN_VERSIONS:
        raise Clog2FormatError(f"unsupported CLOG2 version {version}")
    return Clog2Header(resolution, num_ranks, nrecords, version)


def iter_framed_items(fh) -> Iterator[Definition | LogRecord]:
    """Lazily parse a version-2 block-framed item stream.

    One block is read and CRC-verified at a time, so memory stays
    bounded by the writer's flush slab.  Raises
    :class:`Clog2ChecksumError` on a CRC mismatch and
    :class:`Clog2FormatError` on a torn frame.
    """
    while True:
        head = fh.read(_BLOCK.size)
        if not head:
            return
        if len(head) < _BLOCK.size:
            raise Clog2FormatError("truncated CLOG2 block header")
        length, crc = _BLOCK.unpack(head)
        payload = fh.read(length)
        if len(payload) < length:
            raise Clog2FormatError(
                f"truncated CLOG2 block (promised {length} bytes, "
                f"got {len(payload)})")
        if zlib.crc32(payload) != crc:
            raise Clog2ChecksumError(
                f"block checksum mismatch (stored 0x{crc:08x}, "
                f"computed 0x{zlib.crc32(payload):08x})")
        pos = 0
        end = length
        while pos < end:
            parsed = _parse_item_at(payload, pos, end)
            if parsed is None:
                # Blocks end on item boundaries by construction; a
                # partial item inside a CRC-valid block is a writer bug.
                raise Clog2FormatError("item torn across a block boundary")
            item, pos = parsed
            yield item


def iter_clog2(path: str) -> tuple[Clog2Header, Iterator[Definition | LogRecord]]:
    """Open a CLOG2 file for streaming: ``(header, item iterator)``.

    The iterator owns the file handle and closes it on exhaustion,
    error, or garbage collection.  Item order is exactly file order
    (definitions first, as the writers emit them).  Version-2 files are
    de-framed and CRC-verified block by block as they stream.
    """
    fh = open(path, "rb")
    try:
        header = read_header(fh)
    except Exception:
        fh.close()
        raise

    def _gen():
        try:
            if header.checksummed:
                yield from iter_framed_items(fh)
            else:
                yield from iter_items(fh)
        finally:
            fh.close()

    return header, _gen()


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
    if errors == "salvage":
        return _read_log_salvage(path)
    if perf is not None:
        with perf.stage("clog2-read"):
            log = _read_log_strict(path, perf)
    else:
        log = _read_log_strict(path, None)
    return Clog2ReadResult(log, None)


def _check_errors_mode(errors: str) -> None:
    if errors not in ("strict", "salvage"):
        raise ValueError(
            f"errors must be 'strict' or 'salvage', got {errors!r}")


def _read_log_strict(path: str, perf: "PerfRecorder | None") -> Clog2File:
    with open(path, "rb") as fh:
        data = fh.read()
    log = parse_clog2_bytes(data)
    if perf is not None:
        perf.count("clog2-read", records=len(log.records), bytes=len(data))
    return log


def parse_clog2_bytes(data: bytes) -> Clog2File:
    """Strictly parse a complete CLOG2 image (header + items) held in
    memory.  Raises :class:`Clog2FormatError` on any damage.

    BareEvent/MsgEvent (the overwhelming bulk of any log) are decoded
    inline with pre-bound ``unpack_from``; definitions fall through to
    :func:`_parse_item_at`.
    """
    header = read_header(io.BytesIO(data[:_HDR.size]))
    if header.checksummed:
        data = _deframe_strict(data)
    definitions: list[Definition] = []
    records: list[LogRecord] = []
    drec = definitions.append
    rrec = records.append
    pos = _HDR.size
    end = len(data)
    bare_unpack = _BARE.unpack_from
    msg_unpack = _MSG.unpack_from
    u16_unpack = _U16.unpack_from
    bare_size = _BARE.size
    msg_size = _MSG.size
    try:
        while pos < end:
            t = data[pos]
            if t == _T_BARE:
                ts, rank, eid = bare_unpack(data, pos + 1)
                cursor = pos + 1 + bare_size
                (n,) = u16_unpack(data, cursor)
                cursor += 2
                tail = cursor + n
                if tail > end:
                    raise Clog2FormatError("truncated CLOG2 file")
                rrec(BareEvent(ts, rank, eid,
                               data[cursor:tail].decode("utf-8")))
                pos = tail
            elif t == _T_MSG:
                ts, rank, kind, other, tag, size = msg_unpack(data, pos + 1)
                rrec(MsgEvent(ts, rank, kind, other, tag, size))
                pos += 1 + msg_size
            else:
                parsed = _parse_item_at(data, pos, end)
                if parsed is None:
                    raise Clog2FormatError("truncated CLOG2 file")
                item, pos = parsed
                drec(item)
    except struct.error:
        # unpack_from ran past the buffer: a record torn at EOF.
        raise Clog2FormatError("truncated CLOG2 file") from None
    if len(records) != header.num_records:
        raise Clog2FormatError(
            f"header promised {header.num_records} records, "
            f"found {len(records)}")
    return Clog2File(header.clock_resolution, header.num_ranks,
                     definitions, records)


def _deframe_strict(data: bytes) -> bytes:
    """Strictly unwrap a version-2 image's blocks into a version-1-shaped
    image (header + raw item bytes).  Raises on torn frames and CRC
    mismatches."""
    parts = [data[:_HDR.size]]
    pos = _HDR.size
    end = len(data)
    while pos < end:
        if pos + _BLOCK.size > end:
            raise Clog2FormatError("truncated CLOG2 block header")
        length, crc = _BLOCK.unpack_from(data, pos)
        pos += _BLOCK.size
        if pos + length > end:
            raise Clog2FormatError(
                f"truncated CLOG2 block (promised {length} bytes, "
                f"got {end - pos})")
        payload = data[pos:pos + length]
        if zlib.crc32(payload) != crc:
            raise Clog2ChecksumError(
                f"block checksum mismatch at offset {pos - _BLOCK.size} "
                f"(stored 0x{crc:08x}, computed 0x{zlib.crc32(payload):08x})")
        parts.append(payload)
        pos += length
    return b"".join(parts)


def _read_log_salvage(path: str) -> Clog2ReadResult:
    import os

    from repro.mpe.recovery import RecoveryReport

    report = RecoveryReport(source=os.path.basename(path))
    with open(path, "rb") as fh:
        data = fh.read()
    log = parse_clog2_bytes_tolerant(data, report, report.source)
    return Clog2ReadResult(log, report)


def read_one_item(fh) -> Definition | LogRecord | None:
    """Parse one definition or record; ``None`` on clean EOF.

    Raises :class:`Clog2FormatError` on an unknown type byte or a
    record torn mid-field — the tolerant reader catches exactly these.
    """
    tbyte = fh.read(1)
    if not tbyte:
        return None
    t = tbyte[0]
    if t == _T_STATEDEF:
        start, end = _STATEDEF.unpack(_read_exact(fh, _STATEDEF.size))
        name = _unpack_str(fh)
        color = _unpack_str(fh)
        return StateDef(start, end, name, color)
    if t == _T_EVENTDEF:
        (eid,) = _EVENTDEF.unpack(_read_exact(fh, _EVENTDEF.size))
        name = _unpack_str(fh)
        color = _unpack_str(fh)
        return EventDef(eid, name, color)
    if t == _T_BARE:
        ts, rank, eid = _BARE.unpack(_read_exact(fh, _BARE.size))
        text = _unpack_str(fh)
        return BareEvent(ts, rank, eid, text)
    if t == _T_RANKNAME:
        (rank,) = _EVENTDEF.unpack(_read_exact(fh, _EVENTDEF.size))
        name = _unpack_str(fh)
        return RankName(rank, name)
    if t == _T_MSG:
        ts, rank, kind, other, tag, size = _MSG.unpack(
            _read_exact(fh, _MSG.size))
        return MsgEvent(ts, rank, kind, other, tag, size)
    raise Clog2FormatError(f"unknown record type byte 0x{t:02x}")


def read_items(fh) -> tuple[list[Definition], list[LogRecord]]:
    """Parse a headerless definition+record stream until EOF."""
    definitions: list[Definition] = []
    records: list[LogRecord] = []
    for item in iter_items(fh):
        if isinstance(item, (BareEvent, MsgEvent)):
            records.append(item)
        else:
            definitions.append(item)
    return definitions, records


# -- growing files (live tailing) --------------------------------------------


class GrowingRead(NamedTuple):
    """What :func:`read_growing` hands back for one poll of a file that
    a writer may still be appending to.

    ``items`` is every whole item parsed since the given offset;
    ``offset`` is the first byte *not* consumed — pass it back on the
    next poll to resume without re-reading; ``torn_bytes`` counts the
    bytes currently held at the tail because they do not yet form a
    complete item (version 1) or a complete CRC-valid block (version
    2).  A non-zero ``torn_bytes`` is not damage: it is "the writer has
    not finished this flush yet", and the held bytes are re-examined on
    the next poll once the file has grown."""

    items: list[Definition | LogRecord]
    offset: int
    torn_bytes: int


def open_growing(path: str) -> tuple[Clog2Header, int] | None:
    """Read the header of a possibly-still-being-written CLOG2 file.

    Returns ``(header, body_offset)`` once the fixed header is fully on
    disk, or ``None`` while the file is still shorter than a header
    (the writer has opened it but not flushed yet).  Bad magic or an
    unknown version still raise — a file that *starts* wrong will not
    become right by growing.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HDR.size)
    if len(head) < _HDR.size:
        return None
    return read_header(io.BytesIO(head)), _HDR.size


def read_growing(path: str, offset: int, *,
                 checksummed: bool = False) -> GrowingRead:
    """Parse whole items from ``offset`` to the current end of ``path``.

    The growing-file contract (unlike :func:`iter_items` /
    :func:`iter_framed_items`, which treat a torn tail as a format
    error): a partial item or partial block at the tail is *held*, not
    raised and not dropped — the returned offset stops at the last
    clean boundary so the caller can re-poll after the writer's next
    flush.  Real damage still raises: an unknown type byte, or a
    version-2 block whose bytes are all present but whose CRC does not
    match, cannot be healed by waiting.
    """
    with open(path, "rb") as fh:
        fh.seek(offset)
        data = fh.read()
    items: list[Definition | LogRecord] = []
    pos = 0
    end = len(data)
    if checksummed:
        while pos < end:
            if pos + _BLOCK.size > end:
                break  # block header still being written
            length, crc = _BLOCK.unpack_from(data, pos)
            body = pos + _BLOCK.size
            if body + length > end:
                break  # block payload still being written
            payload = data[body:body + length]
            if zlib.crc32(payload) != crc:
                raise Clog2ChecksumError(
                    f"block checksum mismatch at offset {offset + pos} "
                    f"(stored 0x{crc:08x}, "
                    f"computed 0x{zlib.crc32(payload):08x})")
            ipos = 0
            while ipos < length:
                parsed = _parse_item_at(payload, ipos, length)
                if parsed is None:
                    # Blocks end on item boundaries by construction.
                    raise Clog2FormatError(
                        "item torn across a block boundary")
                item, ipos = parsed
                items.append(item)
            pos = body + length
    else:
        while pos < end:
            parsed = _parse_item_at(data, pos, end)
            if parsed is None:
                break  # item still being written
            item, pos = parsed
            items.append(item)
    return GrowingRead(items, offset + pos, end - pos)


# -- tolerant reading (the crash-tolerant pipeline) -------------------------

_PARSE_ERRORS = (Clog2FormatError, struct.error, UnicodeDecodeError,
                 IndexError)

_VALID_TYPE_BYTES = frozenset(
    (_T_STATEDEF, _T_EVENTDEF, _T_BARE, _T_MSG, _T_RANKNAME))


def _resync_offset(data: bytes, start: int) -> int:
    """First offset >= ``start`` where a whole item parses and is
    followed by EOF or another plausible item start; ``len(data)`` when
    no such point exists (the rest of the file is unrecoverable)."""
    end = len(data)
    for off in range(start, end):
        if data[off] not in _VALID_TYPE_BYTES:
            continue
        try:
            parsed = _parse_item_at(data, off, end)
        except _PARSE_ERRORS:
            continue
        if parsed is None:
            continue
        pos = parsed[1]
        if pos >= end or data[pos] in _VALID_TYPE_BYTES:
            return off
    return end


def read_items_tolerant(data: bytes, report, source: str,
                        base_offset: int = 0
                        ) -> tuple[list[Definition], list[LogRecord]]:
    """Parse a headerless item stream, skipping torn/corrupt spans.

    ``data`` is the stream body only; offsets recorded in ``report``
    (a :class:`repro.mpe.recovery.RecoveryReport`) are shifted by
    ``base_offset`` so they refer to positions in the enclosing file.
    """
    definitions: list[Definition] = []
    records: list[LogRecord] = []
    pos = 0
    end = len(data)
    while pos < end:
        try:
            parsed = _parse_item_at(data, pos, end)
            if parsed is None:
                raise Clog2FormatError("truncated CLOG2 file")
        except _PARSE_ERRORS as exc:
            skip_to = _resync_offset(data, pos + 1)
            report.drop(source, base_offset + pos, base_offset + skip_to,
                        f"unparseable record ({exc})")
            if skip_to >= end:
                break
            pos = skip_to
            continue
        item, pos = parsed
        if isinstance(item, (BareEvent, MsgEvent)):
            records.append(item)
        else:
            definitions.append(item)
    return definitions, records


def _read_framed_tolerant(data: bytes, report, source: str,
                          base_offset: int
                          ) -> tuple[list[Definition], list[LogRecord]]:
    """Tolerantly walk a version-2 block sequence.

    A CRC mismatch drops *exactly* the damaged block — the frame length
    tells us where the next one starts, so corruption is localised
    instead of smeared forward the way the version-1 resync scan has to.
    A torn frame at EOF drops the tail.
    """
    definitions: list[Definition] = []
    records: list[LogRecord] = []
    pos = _HDR.size
    end = len(data)
    while pos < end:
        frame_start = pos
        if pos + _BLOCK.size > end:
            report.drop(source, base_offset + frame_start, base_offset + end,
                        "truncated block header")
            break
        length, crc = _BLOCK.unpack_from(data, pos)
        pos += _BLOCK.size
        if pos + length > end:
            report.drop(source, base_offset + frame_start, base_offset + end,
                        f"truncated block (promised {length} bytes, "
                        f"got {end - pos})")
            break
        payload = data[pos:pos + length]
        pos += length
        if zlib.crc32(payload) != crc:
            report.drop(source, base_offset + frame_start, base_offset + pos,
                        f"block checksum mismatch (stored 0x{crc:08x}, "
                        f"computed 0x{zlib.crc32(payload):08x})")
            continue
        # CRC passed: the payload is exactly what the writer flushed.
        # Any parse failure inside it would be a writer bug, which the
        # tolerant item walk still surfaces as a dropped span.
        defs, recs = read_items_tolerant(
            payload, report, source,
            base_offset=base_offset + frame_start + _BLOCK.size)
        definitions.extend(defs)
        records.extend(recs)
    return definitions, records


def parse_clog2_bytes_tolerant(data: bytes, report, source: str,
                               base_offset: int = 0) -> Clog2File:
    """Tolerantly parse a complete CLOG2 image (header + items) held in
    memory, accounting losses into ``report``.  Shared by the salvage
    modes of :func:`read_log` and the partial reader (whose
    rewrite-mode partials embed a whole CLOG2 body)."""
    empty = Clog2File(1e-6, 0, [], [])
    if len(data) < _HDR.size:
        report.drop(source, base_offset, base_offset + len(data),
                    f"too short for a CLOG2 header ({len(data)} bytes)")
        return empty
    magic, version, resolution, num_ranks, nrecords = _HDR.unpack(
        data[:_HDR.size])
    if magic != MAGIC:
        report.drop(source, base_offset, base_offset + len(data),
                    f"bad magic {magic!r}")
        return empty
    if version not in _KNOWN_VERSIONS:
        report.drop(source, base_offset, base_offset + len(data),
                    f"unsupported CLOG2 version {version}")
        return empty
    if version >= CHECKSUM_VERSION:
        definitions, records = _read_framed_tolerant(
            data, report, source, base_offset)
    else:
        definitions, records = read_items_tolerant(
            data[_HDR.size:], report, source,
            base_offset=base_offset + _HDR.size)
    report.records_kept += len(records)
    if len(records) < nrecords:
        missing = nrecords - len(records)
        # The header knows how many records the writer meant to store;
        # anything the torn spans swallowed is exactly the difference.
        report.records_dropped = max(report.records_dropped, missing)
        report.note(f"{source}: header promised {nrecords} records, "
                    f"salvaged {len(records)}")
    return Clog2File(resolution, num_ranks, definitions, records)
