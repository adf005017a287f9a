"""Abort-surviving MPE logs — the paper's stated future work.

Section V: "we would like to solve the problem of losing the MPE
logfile if the program aborts ... it would be better if the MPE log
could be finalized in all cases, and this will be a subject of future
efforts."

The root cause (Section III.B) is that MPE's merge *needs MPI
messaging*, which ``MPI_Abort`` destroys.  The fix implemented here
sidesteps messaging entirely:

* each rank periodically **checkpoints its buffer to a per-rank partial
  file** (rank-local disk I/O needs no messages — the same property
  that makes Pilot's native log abort-proof);
* on abort, whatever was checkpointed survives;
* an offline tool, :func:`merge_partial_logs`, later collects the
  partial files into one CLOG2 — including timestamp correction from
  whatever sync points were checkpointed.

The cost is the paper's trade-off in reverse: buffering stays cheap,
but every checkpoint pays a disk write during the run (measured in
benchmark A5).

Two partial-file layouts exist:

* **rewrite mode** (:func:`write_partial`) — the whole buffer is
  re-serialised every checkpoint.  Simple and atomic, but O(buffer)
  per checkpoint: benchmark A5b measures the quadratic blow-up on
  communication-bound runs.
* **append mode** (:class:`AppendPartialWriter`) — sync points and new
  records are appended as framed chunks, O(new records) per
  checkpoint.  A torn final chunk (the abort can land mid-write) is
  detected by its length frame and dropped.

Reading and merging go through two entry points, each taking
``errors="strict"`` (damage raises) or ``errors="salvage"`` (damage is
skipped and accounted):

* :func:`read_partial_log` parses one partial of either layout and
  returns ``(Partial, RecoveryReport | None)``;
* :func:`merge_partial_logs` collects every rank's partial into one
  CLOG2 via a heap-based k-way merge (see :mod:`repro.mpe.merge`) and
  returns ``(Clog2File, RecoveryReport | None)``.

Rewrite layout: magic ``CLOGPART``, sync section, one CLOG2 body.
Append layout: magic ``CLOGPARA``, then framed chunks — each chunk is
``u8 kind ('S' sync point | 'R' record block)``, ``u32 length``,
payload (sync: packed floats; records: a headerless CLOG2 record
stream).
"""

from __future__ import annotations

import glob
import os
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.mpe.api import RankLog
from repro.mpe.clocksync import SyncPoint
from repro.mpe.clog2 import (
    Clog2File,
    Clog2FormatError,
    parse_clog2_bytes,
    write_clog2,
    write_clog2_to,
)
from repro.mpe.merge import dedup_definitions, merged_records, rank_stream
from repro.mpe.records import Definition, LogRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpe.recovery import RecoveryReport
    from repro.perf import PerfRecorder

PARTIAL_MAGIC = b"CLOGPART"
APPEND_MAGIC = b"CLOGPARA"
_PHDR = struct.Struct("<8sII")  # magic, rank, number of sync points
_AHDR = struct.Struct("<8sIdI")  # magic, rank, clock resolution, reserved
_CHUNK = struct.Struct("<BI")  # kind, payload length
_SYNC = struct.Struct("<dd")

_K_SYNC = ord("S")
_K_RECORDS = ord("R")


def partial_path(base_path: str, rank: int) -> str:
    """Naming convention for per-rank partials of ``base_path``."""
    return f"{base_path}.rank{rank:04d}.part"


def write_partial(path: str, rank: int, log: RankLog,
                  clock_resolution: float) -> None:
    """Checkpoint one rank's buffer (atomic via rename)."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_PHDR.pack(PARTIAL_MAGIC, rank, len(log.sync_points)))
        for p in log.sync_points:
            fh.write(_SYNC.pack(p.local_time, p.offset))
        # The payload is a complete CLOG2 image, streamed straight after
        # the partial header.
        write_clog2_to(fh, Clog2File(clock_resolution, rank + 1,
                                     list(log.definitions),
                                     list(log.records)))
    os.replace(tmp, path)


class AppendPartialWriter:
    """O(new records) checkpointing: framed chunks appended to one file.

    Create once per rank; call :meth:`checkpoint` with the rank's
    :class:`~repro.mpe.api.RankLog` whenever enough new records have
    accumulated.  Each call appends only what is new since the last
    call.  A torn final chunk (abort mid-write) is detected at read
    time by its length frame and dropped.
    """

    def __init__(self, path: str, rank: int, clock_resolution: float) -> None:
        self.path = path
        self.rank = rank
        self._records_written = 0
        self._syncs_written = 0
        with open(path, "wb") as fh:
            fh.write(_AHDR.pack(APPEND_MAGIC, rank, clock_resolution, 0))

    def checkpoint(self, log: RankLog) -> int:
        """Append new sync points and records; returns records appended."""
        import io

        from repro.mpe.clog2 import write_items

        new_records = log.records[self._records_written:]
        new_syncs = log.sync_points[self._syncs_written:]
        if not new_records and not new_syncs:
            return 0
        with open(self.path, "ab") as fh:
            for p in new_syncs:
                fh.write(_CHUNK.pack(_K_SYNC, _SYNC.size))
                fh.write(_SYNC.pack(p.local_time, p.offset))
            if new_records or self._records_written == 0:
                buf = io.BytesIO()
                # Definitions ride in the first record chunk (they are
                # complete before any event is logged).
                defs = log.definitions if self._records_written == 0 else []
                write_items(buf, defs, new_records)
                payload = buf.getvalue()
                fh.write(_CHUNK.pack(_K_RECORDS, len(payload)))
                fh.write(payload)
        self._records_written = len(log.records)
        self._syncs_written = len(log.sync_points)
        return len(new_records)


@dataclass
class Partial:
    rank: int
    sync_points: list[SyncPoint]
    definitions: list[Definition]
    records: list[LogRecord]
    clock_resolution: float


class PartialReadResult(NamedTuple):
    """What :func:`read_partial_log` hands back."""

    partial: Partial
    recovery: "RecoveryReport | None"


class MergeResult(NamedTuple):
    """What :func:`merge_partial_logs` hands back."""

    log: Clog2File
    recovery: "RecoveryReport | None"


def _check_errors_mode(errors: str) -> None:
    if errors not in ("strict", "salvage"):
        raise ValueError(
            f"errors must be 'strict' or 'salvage', got {errors!r}")


def _read_append_partial(path: str) -> Partial:
    import io

    from repro.mpe.clog2 import read_items

    with open(path, "rb") as fh:
        head = fh.read(_AHDR.size)
        magic, rank, resolution, _ = _AHDR.unpack(head)
        sync_points: list[SyncPoint] = []
        definitions: list[Definition] = []
        records: list[LogRecord] = []
        while True:
            frame = fh.read(_CHUNK.size)
            if len(frame) < _CHUNK.size:
                break  # clean EOF or torn frame header: stop here
            kind, length = _CHUNK.unpack(frame)
            payload = fh.read(length)
            if len(payload) < length:
                break  # torn chunk from an abort mid-write: drop it
            if kind == _K_SYNC:
                local_time, offset = _SYNC.unpack(payload)
                sync_points.append(SyncPoint(local_time, offset))
            elif kind == _K_RECORDS:
                defs, recs = read_items(io.BytesIO(payload))
                definitions.extend(defs)
                records.extend(recs)
            else:
                raise Clog2FormatError(
                    f"unknown partial chunk kind 0x{kind:02x}")
    return Partial(rank, sync_points, definitions, records, resolution)


class PartialTail(NamedTuple):
    """One poll of a growing append-mode partial (see
    :func:`tail_partial`).  ``offset`` resumes the next poll at the
    first unconsumed byte; ``torn_bytes`` counts the held tail (a chunk
    the writer has not finished appending — re-examined next poll, not
    damage)."""

    rank: int
    clock_resolution: float
    sync_points: list[SyncPoint]
    definitions: list[Definition]
    records: list[LogRecord]
    offset: int
    torn_bytes: int


def tail_partial(path: str, offset: int = 0) -> PartialTail | None:
    """Incrementally read an append-mode partial that a rank may still
    be checkpointing to.

    Pass ``offset=0`` on first attach, then the returned ``offset`` on
    every later poll — whole chunks between the two are parsed, a
    partial chunk at the tail is held (never emitted, never dropped).
    Returns ``None`` while the file is still shorter than its header.
    Rewrite-mode partials (magic ``CLOGPART``) are atomically replaced
    wholesale on every checkpoint, so byte offsets mean nothing across
    polls there; this function refuses them — re-read those with
    :func:`read_partial_log` instead.
    """
    with open(path, "rb") as fh:
        if offset == 0:
            head = fh.read(_AHDR.size)
            if len(head) < 8:
                return None
            if head[:8] == PARTIAL_MAGIC:
                raise Clog2FormatError(
                    f"{path}: rewrite-mode partials are replaced wholesale "
                    "per checkpoint; tail_partial only supports append mode")
            if head[:8] != APPEND_MAGIC:
                raise Clog2FormatError(f"bad partial magic {head[:8]!r}")
            if len(head) < _AHDR.size:
                return None
            _, rank, resolution, _ = _AHDR.unpack(head)
            offset = _AHDR.size
        else:
            head = fh.read(_AHDR.size)
            if len(head) < _AHDR.size:
                raise Clog2FormatError(f"{path}: shrank below its header")
            _, rank, resolution, _ = _AHDR.unpack(head)
            fh.seek(offset)
        data = fh.read()
    import io as _io

    from repro.mpe.clog2 import read_items

    sync_points: list[SyncPoint] = []
    definitions: list[Definition] = []
    records: list[LogRecord] = []
    pos = 0
    end = len(data)
    while pos < end:
        if pos + _CHUNK.size > end:
            break  # chunk frame still being written
        kind, length = _CHUNK.unpack_from(data, pos)
        body = pos + _CHUNK.size
        if body + length > end:
            break  # chunk payload still being written
        payload = data[body:body + length]
        if kind == _K_SYNC:
            local_time, off = _SYNC.unpack(payload)
            sync_points.append(SyncPoint(local_time, off))
        elif kind == _K_RECORDS:
            defs, recs = read_items(_io.BytesIO(payload))
            definitions.extend(defs)
            records.extend(recs)
        else:
            raise Clog2FormatError(
                f"unknown partial chunk kind 0x{kind:02x}")
        pos = body + length
    return PartialTail(rank, resolution, sync_points, definitions, records,
                       offset + pos, end - pos)


def read_partial_log(path: str, *, errors: str = "strict"
                     ) -> PartialReadResult:
    """Parse one partial of either layout — the one entry point.

    ``errors="strict"`` raises on damage and returns
    ``(partial, None)``; ``errors="salvage"`` skips torn/corrupt spans
    and returns ``(partial, report)``.  Under salvage a file too
    damaged to identify (no readable header) yields a ``Partial`` with
    ``rank == -1`` and everything accounted as dropped.
    """
    _check_errors_mode(errors)
    if errors == "salvage":
        return PartialReadResult(*_read_partial_salvage(path))
    with open(path, "rb") as fh:
        head = fh.read(_PHDR.size)
        if len(head) != _PHDR.size:
            raise Clog2FormatError("truncated partial header")
        magic, rank, nsync = _PHDR.unpack(head)
        if magic == APPEND_MAGIC:
            return PartialReadResult(_read_append_partial(path), None)
        if magic != PARTIAL_MAGIC:
            raise Clog2FormatError(f"bad partial magic {magic!r}")
        points = []
        for _ in range(nsync):
            local_time, offset = _SYNC.unpack(fh.read(_SYNC.size))
            points.append(SyncPoint(local_time, offset))
        clog = parse_clog2_bytes(fh.read())
    return PartialReadResult(
        Partial(rank, points, clog.definitions, clog.records,
                clog.clock_resolution), None)


def find_partials(base_path: str) -> list[str]:
    return sorted(glob.glob(f"{base_path}.rank[0-9][0-9][0-9][0-9].part"))


def _merge_partial_objects(partials: list[Partial], *,
                           perf: "PerfRecorder | None" = None) -> Clog2File:
    """Dedup definitions, correct timestamps, and k-way merge records
    from already-parsed partials (shared strict/salvage merge core)."""
    definitions = dedup_definitions(p.definitions for p in partials)
    num_ranks = max((p.rank + 1 for p in partials), default=0)
    resolution = partials[0].clock_resolution if partials else 1e-6
    streams = [rank_stream(p.rank, p.records, p.sync_points)
               for p in partials]
    records = list(merged_records(streams))
    if perf is not None:
        perf.count("merge", records=len(records))
    return Clog2File(resolution, num_ranks, definitions, records)


def merge_partial_logs(base_path: str, out_path: str | None = None, *,
                       errors: str = "strict",
                       expected_ranks: int | None = None,
                       crashed_ranks: "dict[int, float | None] | None" = None,
                       perf: "PerfRecorder | None" = None) -> MergeResult:
    """Post-mortem merge of per-rank partials into one CLOG2 — the one
    entry point.

    Equivalent to what ``MPE_Finish_log`` would have produced up to the
    last checkpoint before the abort.  Writes ``out_path`` (default:
    the base path itself).

    ``errors="strict"`` raises on a missing or corrupt partial and
    returns ``(log, None)``.  ``errors="salvage"`` salvages every
    readable partial, skips the unreadable, and returns
    ``(log, report)`` saying exactly what happened; ``expected_ranks``
    widens the missing-rank check beyond the highest rank seen (an
    all-ranks-crashed run may have no partial for the top ranks at
    all), and ``crashed_ranks`` annotates the report with crash times
    from a fault plan or an :class:`~repro.vmpi.errors.AbortedError`
    so the viewers can mark the timelines.
    """
    _check_errors_mode(errors)
    if errors == "salvage":
        return MergeResult(*_merge_partials_salvage(
            base_path, out_path, expected_ranks=expected_ranks,
            crashed_ranks=crashed_ranks, perf=perf))
    paths = find_partials(base_path)
    if not paths:
        raise FileNotFoundError(
            f"no partial logs found for {base_path!r} "
            f"(pattern {base_path}.rankNNNN.part)")
    if perf is not None:
        with perf.stage("merge"):
            partials = [read_partial_log(p).partial for p in paths]
            log = _merge_partial_objects(partials, perf=perf)
    else:
        partials = [read_partial_log(p).partial for p in paths]
        log = _merge_partial_objects(partials)
    write_clog2(out_path or base_path, log, perf=perf)
    return MergeResult(log, None)


# -- tolerant salvage (the crash-tolerant pipeline) -------------------------


def _read_partial_salvage(path: str) -> "tuple[Partial, RecoveryReport]":
    from repro.mpe.clog2 import parse_clog2_bytes_tolerant
    from repro.mpe.recovery import RecoveryReport

    source = os.path.basename(path)
    report = RecoveryReport(source=source)
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _PHDR.size:
        report.drop(source, 0, len(data),
                    f"too short for a partial header ({len(data)} bytes)")
        return Partial(-1, [], [], [], 1e-6), report
    magic = data[:8]
    if magic == APPEND_MAGIC:
        return _read_append_partial_tolerant(data, report, source)
    if magic != PARTIAL_MAGIC:
        report.drop(source, 0, len(data), f"bad partial magic {magic!r}")
        return Partial(-1, [], [], [], 1e-6), report
    _, rank, nsync = _PHDR.unpack(data[:_PHDR.size])
    points: list[SyncPoint] = []
    pos = _PHDR.size
    for i in range(nsync):
        if pos + _SYNC.size > len(data):
            report.drop(source, pos, len(data),
                        f"torn sync section ({nsync - i} points lost)")
            return Partial(rank, points, [], [], 1e-6), report
        local_time, offset = _SYNC.unpack(data[pos:pos + _SYNC.size])
        points.append(SyncPoint(local_time, offset))
        pos += _SYNC.size
    clog = parse_clog2_bytes_tolerant(data[pos:], report, source,
                                      base_offset=pos)
    return (Partial(rank, points, clog.definitions, clog.records,
                    clog.clock_resolution), report)


def _read_append_partial_tolerant(data: bytes, report, source: str
                                  ) -> "tuple[Partial, RecoveryReport]":
    from repro.mpe.clog2 import read_items_tolerant

    if len(data) < _AHDR.size:
        report.drop(source, 0, len(data),
                    f"too short for an append header ({len(data)} bytes)")
        return Partial(-1, [], [], [], 1e-6), report
    _, rank, resolution, _ = _AHDR.unpack(data[:_AHDR.size])
    sync_points: list[SyncPoint] = []
    definitions = []
    records = []
    pos = _AHDR.size
    while pos < len(data):
        if pos + _CHUNK.size > len(data):
            report.drop(source, pos, len(data), "torn chunk frame header")
            break
        kind, length = _CHUNK.unpack(data[pos:pos + _CHUNK.size])
        payload_start = pos + _CHUNK.size
        payload_end = payload_start + length
        payload = data[payload_start:min(payload_end, len(data))]
        torn = payload_end > len(data)
        if kind == _K_SYNC:
            if len(payload) < _SYNC.size:
                report.drop(source, pos, len(data), "torn sync chunk")
                break
            local_time, offset = _SYNC.unpack(payload[:_SYNC.size])
            sync_points.append(SyncPoint(local_time, offset))
        elif kind == _K_RECORDS:
            # Even a torn record chunk holds complete records before the
            # tear; salvage those and account the tail.
            defs, recs = read_items_tolerant(payload, report, source,
                                             base_offset=payload_start)
            definitions.extend(defs)
            records.extend(recs)
            if torn:
                report.note(f"{source}: final record chunk torn at byte "
                            f"{len(data)} (frame promised {length} bytes)")
        else:
            if torn:
                report.drop(source, pos, len(data),
                            f"torn chunk with unknown kind 0x{kind:02x}")
                break
            report.drop(source, pos, payload_end,
                        f"unknown chunk kind 0x{kind:02x}, skipped")
        if torn:
            if kind == _K_RECORDS:
                # The missing tail held at least one record we cannot
                # recover (possibly cut mid-write by the abort).
                report.drop(source, len(data), payload_end,
                            "torn final chunk (abort mid-write)", records=1)
            break
        pos = payload_end
    report.records_kept += len(records)
    return Partial(rank, sync_points, definitions, records, resolution), report


def _merge_partials_salvage(base_path: str, out_path: str | None, *,
                            expected_ranks: int | None,
                            crashed_ranks: "dict[int, float | None] | None",
                            perf: "PerfRecorder | None" = None
                            ) -> "tuple[Clog2File, RecoveryReport]":
    from repro.mpe.recovery import RecoveryReport

    report = RecoveryReport(source=os.path.basename(base_path))
    paths = find_partials(base_path)
    if not paths:
        report.note(f"no partial logs found for {base_path!r}")
        log = Clog2File(1e-6, 0, [], [])
        return log, report
    usable: list[Partial] = []
    for p in paths:
        try:
            part, sub = _read_partial_salvage(p)
        except OSError as exc:
            report.note(f"{os.path.basename(p)}: unreadable ({exc})")
            continue
        report.absorb(sub)
        if part.rank < 0:
            report.note(f"{os.path.basename(p)}: unidentifiable, skipped")
            continue
        usable.append(part)
        report.note(f"{os.path.basename(p)}: rank {part.rank}, "
                    f"{len(part.records)} records, "
                    f"{len(part.sync_points)} sync points")
    if perf is not None:
        with perf.stage("merge"):
            log = _merge_partial_objects(usable, perf=perf)
    else:
        log = _merge_partial_objects(usable)
    have = {part.rank for part in usable}
    width = max(expected_ranks or 0, (max(have) + 1) if have else 0)
    for rank in range(width):
        if rank not in have:
            report.missing_ranks.append(rank)
    if width > log.num_ranks:
        log = Clog2File(log.clock_resolution, width, log.definitions,
                        log.records)
    for rank, at in (crashed_ranks or {}).items():
        report.mark_crashed(rank, at)
    write_clog2(out_path or base_path, log, perf=perf)
    return log, report


def cleanup_partials(base_path: str) -> int:
    """Remove per-rank partials (after a successful normal finalize)."""
    removed = 0
    for path in find_partials(base_path):
        os.remove(path)
        removed += 1
    return removed
