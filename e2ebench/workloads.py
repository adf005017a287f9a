"""The three workloads, one session per worker process.

Every session drives the system only through public entry points
(``run_pilot``, ``read_log``, ``convert``, ``write_slog2``, ``View``,
``render_svg`` and ``StreamService`` over HTTP) and checks what it
produces.  All runs use the coroutine scheduler: it repeats within a
few percent on a 2-core machine where the thread backend does not, and
it is the backend the project is converging on.

The end-to-end metrics are defined by role so that every workload
reports each of them:

=============  ===========================  ===========================
metric         thumbnail / fleet            live
=============  ===========================  ===========================
``run_s``      ``run_pilot`` call to         the writer's busy (CPU) time:
               return                        its checkpoint appends, the
                                             merged CLOG2 write, partial
                                             removal and exit sidecar
``view_s``     CLOG2 on disk to the first    exit sidecar on disk to
               full-window SVG               ``/status`` reporting final
``op_*_ms``    one zoom/scroll step plus     one checkpoint batch, from
               ``render_svg`` (closed loop)  when it was due to the tile
                                             GET that reflects it (open
                                             loop)
=============  ===========================  ===========================

Times are reported in reference-speed seconds.  The machines this
runs on share their cores with other tenants and change speed by up to
2x in phases lasting seconds to minutes, which no run length averages
away.  So each timed step is bracketed by a fixed pure-Python
calibration task (:func:`calibration_task`, no project code), and its
wall time is scaled by ``CALIBRATION_REF_S`` over the mean of the two
calibrations: the time the step takes on a machine where the task takes
``CALIBRATION_REF_S``.  Over ten minutes of one repeated view path on
2 vCPUs, the medians of 20 s stretches spread 17% as wall times and 4%
scaled (quartile distance over the median).  ``live``'s batch latencies
stay wall times: they are mostly the replay's schedule, which does not
run slower on a slower machine.

``fleet`` runs with logging off; its picture metrics come from a
logged run of the same fleet.  ``live`` replays the thumbnail log at
the same seed.  Both inputs are made once per benchmark run by an
unmeasured prepare step (:data:`PREPARE`) in its own process, so every
measured session does the same work.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import os
import random
import resource
import statistics
import threading
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator

from repro import jumpshot, mpe, slog2, stream
from repro.apps import ThumbnailConfig, thumbnail_main
from repro.apps.fleet import DEFAULT_TASK_COST, make_fleet_main
from repro.mpe import RECV, MsgEvent, RankLog, StateDef, SyncPoint
from repro.mpe.salvage import AppendPartialWriter, find_partials, partial_path
from repro.pilot import PilotConfig, run_pilot
from repro.pilotlog.integration import JumpshotOptions

SCHEDULER = "coroutine"

THUMB_FILES = 1058
THUMB_RANKS = 11

FLEET_WORKERS = 100
FLEET_TASKS_PER_WORKER = 3

#: Zoom script: each step drags the window to a seeded width and centre,
#: then scrolls it.  Widths are stratified over ZOOM_DEPTH halvings of
#: the full span, so every run holds the same spread of cheap narrow and
#: costly wide windows and the high percentiles fall on a smooth part of
#: the latency curve, not between two clusters.
ZOOM_WINDOWS = 100
ZOOM_DEPTH = 8.0
#: View-path samples per session (each reads the log afresh).  The
#: fleet's 101-timeline picture takes about a tenth of the thumbnail's.
VIEW_REPEATS = {"thumbnail": 2, "fleet": 10}

#: Live replay, derived from a real ``-pisvc=v`` thumbnail run: each
#: rank flushes its new records to its partial once SALVAGE_INTERVAL
#: have piled up, at the first state end or receive after that (the
#: rule of the logging hook's checkpoints).  A batch is due when the run
#: reaches its last record's virtual time, at LIVE_PACE wall seconds per
#: virtual second; the clean end (merged CLOG2, partials removed, exit
#: sidecar) follows LIVE_END_GAP after the last batch.  Measured on
#: 2 vCPUs over seeds 1-3 of the logged thumbnail run with streaming on:
#: 0.39-0.46 wall s per virtual s between the first and last
#: checkpoints, and 0.33-0.41 s from the last checkpoint to the merged
#: CLOG2 on disk.  The gap takes the top of that range: the service
#: re-polls 0.02, 0.06, 0.14, 0.30 and 0.62 s after it last saw growth,
#: and a sidecar landing near 0.30 s would be picked up at once in one
#: session and 0.3 s later in the next.
SALVAGE_INTERVAL = JumpshotOptions().salvage_interval
LIVE_PACE = 0.41
LIVE_END_GAP = 0.41
#: Calibrations taken after the replay, for its scaled times.
LIVE_CALIBRATIONS = 5
#: The first batch is due this long after the schedule is fixed.
LIVE_LEAD = 0.05
#: The calibration task's time on the reference machine; see the module
#: docstring.
CALIBRATION_REF_S = 0.02
#: Zoom steps between two calibrations.
ZOOM_BLOCK = 10
#: Tiles compared against the batch pipeline after the run: levels 0-3.
LIVE_FINAL_LEVELS = 4
#: A batch not reflected this long after it was due has failed.
LIVE_TIMEOUT = 30.0


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Mark:
    __slots__ = ("x", "y", "label")

    def __init__(self, x: int, y: float, label: str) -> None:
        self.x, self.y, self.label = x, y, label


def calibration_task() -> float:
    """Wall seconds of a fixed slice of the interpreter work the tool
    does (objects, dict updates, f-strings, a sort), using no project
    code, so that a change to the program cannot move it.

    The cyclic collector is off meanwhile: a collection started here
    would traverse the session's heap, and the task would time that
    heap rather than the machine.  Everything it allocates is freed
    before it returns, so the collector's counts are left as found."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _calibration_rounds()
    finally:
        if enabled:
            gc.enable()


def _calibration_rounds() -> float:
    t0 = perf_counter()
    # In small rounds, so that it adds nothing to a session's peak RSS.
    for _ in range(8):
        marks = [_Mark(i, i * 0.5, str(i)) for i in range(2500)]
        totals: dict[str, float] = {}
        for m in marks:
            totals[m.label] = totals.get(m.label, 0.0) + m.y
        "".join(f'<rect x="{m.x}" y="{m.y:.2f}" id="{m.label}"/>'
                for m in marks[:1000])
        marks.sort(key=lambda m: -m.y)
    return perf_counter() - t0


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Session:
    """One worker process's session and what it measured."""

    seed: int
    workdir: str
    shared: str  # inputs made by the run's prepare step
    spawned: float  # time.monotonic() when the parent started us
    zoom: bool  # run the zoom steps (off for the untraced reference)
    rec: Any = None  # tracing.SpanRecorder in a traced session
    setup_s: float = 0.0
    run_s: list[float] = field(default_factory=list)
    view_s: list[float] = field(default_factory=list)
    ops_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Output facts that must repeat across sessions of one seed.
    facts: dict[str, Any] = field(default_factory=dict)
    #: Per-layer counts the session reads from public stats objects.
    counts: dict[str, float] = field(default_factory=dict)
    late_ms: float = 0.0
    backlog_max: float = 0.0
    release_ms: list[float] = field(default_factory=list)
    cache: dict[str, int] = field(default_factory=dict)
    calibrations: list[float] = field(default_factory=list)
    setup_pace: float = 0.0

    def calibrate(self) -> float:
        took = calibration_task()
        self.calibrations.append(took)
        return took

    def scale(self, seconds: float, *calibrations: float) -> float:
        """Wall ``seconds`` in reference-speed seconds, given the
        calibrations taken around them."""
        return seconds * CALIBRATION_REF_S / statistics.fmean(calibrations)

    def setup_done(self) -> None:
        gc.collect()
        took = time.monotonic() - self.spawned
        # The machine's pace at set-up, from a few calibrations.
        self.setup_pace = statistics.median(self.calibrate()
                                            for _ in range(3))
        self.setup_s = self.scale(took, self.setup_pace)
        if self.rec is not None:
            self.rec.active = True

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def check(self, ok: bool, message: str) -> None:
        """An output check: one attempt, failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.fail(message)

    @contextmanager
    def timed(self, name: str, into: list[float]) -> Iterator[None]:
        """Time a step in reference-speed seconds into ``into``."""
        before = self.calibrate()
        t0 = perf_counter()
        with self.rec.stage(name) if self.rec is not None else nullcontext():
            yield
        took = perf_counter() - t0
        into.append(self.scale(took, before, self.calibrate()))

    @contextmanager
    def untraced(self) -> Iterator[None]:
        """Keep input generation and reference computations out of the
        per-layer figures."""
        rec = self.rec
        was = rec.active if rec is not None else False
        if rec is not None:
            rec.active = False
        try:
            yield
        finally:
            if rec is not None:
                rec.active = was

    def body(self, fn: Callable) -> Callable:
        return self.rec.body(fn) if self.rec is not None else fn

    def result(self) -> dict[str, Any]:
        return {
            "setup_s": self.setup_s, "run_s": self.run_s,
            "view_s": self.view_s, "ops_ms": self.ops_ms,
            "peak_rss_mb": peak_rss_mb(), "attempted": self.attempted,
            "failed": self.failed, "errors": self.errors[:20],
            "facts": self.facts, "counts": self.counts,
            "late_ms": self.late_ms, "backlog_max": self.backlog_max,
            "release_ms": self.release_ms, "cache": self.cache,
            "calibrations": self.calibrations,
        }


# ---------------------------------------------------------------------------
# Inputs generated from the seed.
# ---------------------------------------------------------------------------

def thumbnail_entry(seed: int) -> Callable[[list], Any]:
    """Rank entry of the paper's thumbnail pipeline at paper size."""
    config = ThumbnailConfig(nfiles=THUMB_FILES, kernel="declared",
                             seed=seed)

    def thumbnail_rank(argv: list) -> Any:
        return thumbnail_main(argv, config)

    return thumbnail_rank


def fleet_cost(seed: int) -> float:
    """Per-task base cost: the fleet default, scaled by the seed within
    5%, so that every seed draws a picture of the same shape."""
    return DEFAULT_TASK_COST * random.Random(f"fleet/{seed}").uniform(0.95,
                                                                      1.05)


def zoom_script(seed: int) -> list[tuple[str, float, float]]:
    """The run's seeded zoom/scroll steps, the same for every session.

    Each window is a dragged zoom to ``(centre, width)``, both fractions
    of the full span, followed by a scroll by a fraction of the window.
    Widths and centres are stratified independently (a Latin square):
    one window per equal slice of ``[-ZOOM_DEPTH, 0]`` in log2 width,
    and one per equal slice of the timeline, so that no seed's windows
    crowd into a dense or a sparse stretch of the picture."""
    rng = random.Random(f"zoom/{seed}")
    slots = list(range(ZOOM_WINDOWS))
    rng.shuffle(slots)
    ops: list[tuple[str, float, float]] = []
    for j, slot in enumerate(slots):
        width = 2.0 ** (-ZOOM_DEPTH * (j + rng.random()) / ZOOM_WINDOWS)
        at = (slot + rng.random()) / ZOOM_WINDOWS
        ops.append(("zoom", width / 2 + at * (1 - width), width))
        ops.append(("scroll", rng.uniform(-0.8, 0.8), width))
    return ops


def apply_zoom(view: Any, op: tuple[str, float, float]) -> None:
    kind, x, width = op
    lo, hi = view.full_range
    if kind == "zoom":
        centre, half = lo + x * (hi - lo), width * (hi - lo) / 2
        view.zoom_to(centre - half, centre + half)
    else:
        view.scroll(x)


# ---------------------------------------------------------------------------
# Shared steps.
# ---------------------------------------------------------------------------

def pilot_config(seed: int, clog: str | None) -> PilotConfig:
    if clog is None:
        return PilotConfig(scheduler=SCHEDULER, seed=seed)
    return PilotConfig(scheduler=SCHEDULER, seed=seed, services="j",
                       mpe_log_path=clog)


def check_run(s: Session, result: Any, what: str) -> bool:
    s.check(result.ok, f"{what}: run aborted ({result.aborted})")
    return result.ok


def view_path(clog: str, slog: str) -> tuple[Any, str]:
    """CLOG2 on disk to the first full-window SVG."""
    log = mpe.read_log(clog).log
    doc, _report = slog2.convert(log)
    slog2.write_slog2(slog, doc)
    view = jumpshot.View(doc)
    return view, jumpshot.render_svg(view)


def picture(s: Session, clog: str, repeats: int) -> None:
    """View path, then the run's zoom script; records the SLOG2/SVG
    digests."""
    # A user opens the log in a fresh viewer: collect the finished run's
    # heap first so that its garbage is not traversed inside view_s.
    gc.collect()
    slog = os.path.join(s.workdir, os.path.basename(clog)[:-len(".clog2")]
                        + ".slog2")
    for _ in range(repeats):
        with s.timed("view", s.view_s):
            view, svg = view_path(clog, slog)
        s.check(svg.startswith("<svg"), "view: not an SVG")
        s.facts.setdefault("svg", sha256_bytes(svg.encode("utf-8")))
        s.check(s.facts["svg"] == sha256_bytes(svg.encode("utf-8")),
                "view: the SVG changed between two renders of one log")
    s.facts["slog2"] = sha256_file(slog)
    if not s.zoom:
        return
    ops = zoom_script(s.seed)
    before = s.calibrate()
    for first in range(0, len(ops), ZOOM_BLOCK):
        took = []
        for op in ops[first:first + ZOOM_BLOCK]:
            s.attempted += 1
            try:
                apply_zoom(view, op)
                t0 = perf_counter()
                out = jumpshot.render_svg(view)
                took.append(perf_counter() - t0)
            except Exception as exc:  # a failed render is a counted failure
                s.fail(f"zoom {op}: {exc!r}")
                continue
            if not out.startswith("<svg"):
                s.fail(f"zoom {op}: not an SVG")
        after = s.calibrate()
        s.ops_ms += [s.scale(t, before, after) * 1e3 for t in took]
        before = after


def engine_counts(s: Session, result: Any) -> None:
    stats = result.run.engine.stats
    comm = result.run.comm.stats
    s.counts.update({"vmpi.switches": stats["switches"],
                     "vmpi.events": stats["events"],
                     "vmpi.messages": comm["messages"],
                     "vmpi.bytes": comm["bytes"]})


def shared_input(s: Session, name: str) -> str | None:
    """A log the prepare step made, or None (a failed session)."""
    path = os.path.join(s.shared, name)
    s.check(os.path.exists(path), f"no {name}: the prepare step failed")
    return path if os.path.exists(path) else None


# ---------------------------------------------------------------------------
# thumbnail
# ---------------------------------------------------------------------------

def thumbnail(s: Session) -> None:
    main = s.body(thumbnail_entry(s.seed))
    clog = os.path.join(s.workdir, "thumbnail.clog2")
    s.setup_done()
    with s.timed("run", s.run_s):
        result = run_pilot(main, THUMB_RANKS, config=pilot_config(s.seed,
                                                                  clog))
    if not check_run(s, result, "thumbnail"):
        return
    summary = result.vmpi.results[0]
    s.check(summary["thumbs"] == THUMB_FILES == summary["files"],
            f"thumbnail: {summary['thumbs']} of {THUMB_FILES} thumbnails")
    s.check(os.path.exists(clog), "thumbnail: no CLOG2 on disk")
    engine_counts(s, result)
    s.facts.update({"clog2": sha256_file(clog),
                    "virtual_s": result.total_time})
    if s.rec is not None:
        s.counts["mpe.clog2_bytes"] = os.path.getsize(clog)
        with s.untraced():
            s.counts["mpe.records"] = len(mpe.read_log(clog).log.records)
    del result
    picture(s, clog, VIEW_REPEATS["thumbnail"])


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------

def fleet_main(seed: int) -> Callable[[list], Any]:
    return make_fleet_main(FLEET_WORKERS, FLEET_TASKS_PER_WORKER,
                           fleet_cost(seed))


def prepare_fleet(s: Session) -> None:
    """The picture's input: a logged run of the same fleet."""
    logged = run_pilot(fleet_main(s.seed), FLEET_WORKERS + 1,
                       config=pilot_config(
                           s.seed, os.path.join(s.shared, "fleet.clog2")))
    check_run(s, logged, "fleet (logged)")


def fleet(s: Session) -> None:
    main = s.body(fleet_main(s.seed))
    s.setup_done()
    with s.timed("run", s.run_s):
        result = run_pilot(main, FLEET_WORKERS + 1,
                           config=pilot_config(s.seed, None))
    if not check_run(s, result, "fleet"):
        return
    summary = result.vmpi.results[0]
    s.check(summary["total"] == summary["ntasks"]
            == FLEET_WORKERS * FLEET_TASKS_PER_WORKER,
            f"fleet: {summary['total']} of {summary['ntasks']} tasks")
    engine_counts(s, result)
    s.facts.update({"virtual_s": result.total_time,
                    "switches": s.counts["vmpi.switches"],
                    "events": s.counts["vmpi.events"]})
    del result
    clog = shared_input(s, "fleet.clog2")
    if clog is None:
        return
    s.facts["clog2"] = sha256_file(clog)
    picture(s, clog, VIEW_REPEATS["fleet"])


# ---------------------------------------------------------------------------
# live
# ---------------------------------------------------------------------------

def flushes(record: Any, state_ends: set[int]) -> bool:
    """Whether the logging hook checks for a checkpoint after logging
    ``record``: it does after a state's end event and a receive."""
    if isinstance(record, MsgEvent):
        return record.kind == RECV
    return record.event_id in state_ends


@dataclass
class Replay:
    """A finished log cut into the checkpoint batches its run wrote."""

    definitions: list
    clock_resolution: float
    num_ranks: int
    batches: list[tuple[int, list]]  # (rank, records) in due order
    #: Virtual time of each batch's last record: when it is due.
    due_at: list[float]
    #: Records folded once batch k is in a tile: every streamed record
    #: up to its last one (the fold releases records in time order).
    need: list[int]
    #: Records the fold may release once batches 0..k are on disk: those
    #: older than every rank's newest appended record (the service's
    #: strict watermark rule).
    releasable: list[int]
    appended: list[int]  # records on disk after batches 0..k

    @classmethod
    def build(cls, log: Any,
              interval: int = SALVAGE_INTERVAL) -> "Replay":
        state_ends = {d.end_id for d in log.definitions
                      if isinstance(d, StateDef)}
        per_rank: dict[int, list] = {r: [] for r in range(log.num_ranks)}
        for rec in log.records:
            per_rank[rec.rank].append(rec)
        cut: list[tuple[float, int, list]] = []
        for rank, records in per_rank.items():
            last = 0
            for i, rec in enumerate(records, start=1):
                if i - last >= interval and flushes(rec, state_ends):
                    cut.append((rec.timestamp, rank, records[last:i]))
                    last = i
            # Records after a rank's last checkpoint reach disk only in
            # the merged CLOG2 at the clean end.
        cut.sort(key=lambda b: (b[0], b[1]))
        streamed = sorted(r.timestamp for _t, _rank, recs in cut
                          for r in recs)
        frontier = {r: 0.0 for r in per_rank}
        releasable, appended, total = [], [], 0
        for t, rank, records in cut:
            frontier[rank] = t
            total += len(records)
            # Strict: a record at the watermark is held back.
            watermark = min(frontier.values())
            releasable.append(bisect_left(streamed, watermark))
            appended.append(total)
        return cls(log.definitions, log.clock_resolution, log.num_ranks,
                   [(rank, records) for _t, rank, records in cut],
                   [t for t, _rank, _recs in cut],
                   [bisect_right(streamed, t) for t, _rank, _recs in cut],
                   releasable, appended)

    def schedule(self, start: float) -> tuple[list[float], float]:
        """Wall-clock due times of the batches, and of the clean end."""
        t0 = self.due_at[0]
        due = [start + (t - t0) * LIVE_PACE for t in self.due_at]
        return due, due[-1] + LIVE_END_GAP

    def reflected(self, folded: int, appended_batches: int) -> int:
        """How many leading batches a fold of ``folded`` records covers."""
        return bisect_right(self.need, folded, hi=appended_batches)

    def released(self, k: int) -> int | None:
        """The first batch whose append lets the fold release batch
        ``k``; None when only the clean end does."""
        for j in range(k, len(self.releasable)):
            if self.releasable[j] >= self.need[k]:
                return j
        return None


class TileClient(threading.Thread):
    """The one HTTP client: credits each batch with the first level-0
    tile whose fold covers it, then waits for the final state and
    compares the final tiles with the batch pipeline's."""

    def __init__(self, port: int, replay: Replay, due: list[float]) -> None:
        super().__init__(name="bench-client", daemon=True)
        self.replay = replay
        self.due = due
        self.cond = threading.Condition()
        self.appended = 0  # batches on disk
        self.sidecar_at: float | None = None
        self.done: list[float | None] = [None] * len(due)
        #: (time, records the fold could release but has not).
        self.lag: list[tuple[float, int]] = []
        self.backlog_max = 0
        self.errors: list[str] = []
        self.final_at: float | None = None
        self.final_state = ""
        self.status: dict = {}
        self.final_tiles: dict[tuple[int, int], list[bytes]] = {}
        self._conn = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=LIVE_TIMEOUT)

    def appended_batch(self, k: int) -> None:
        with self.cond:
            self.appended = k + 1
            self.cond.notify()

    def writer_done(self, at: float) -> None:
        with self.cond:
            self.sidecar_at = at
            self.cond.notify()

    def get(self, path: str) -> tuple[int, bytes]:
        self._conn.request("GET", path)
        resp = self._conn.getresponse()
        return resp.status, resp.read()

    def get_json(self, path: str) -> dict:
        code, body = self.get(path)
        if code != 200:
            raise RuntimeError(f"GET {path}: HTTP {code}")
        return json.loads(body)

    def run(self) -> None:
        try:
            self._follow()
            self._finish()
        except Exception as exc:  # reported as a failed session
            self.errors.append(f"client: {exc!r}")
        finally:
            self._conn.close()

    def _follow(self) -> None:
        replay = self.replay
        nbatches = len(self.due)
        credited = 0
        drawables = 0
        while credited < nbatches:
            with self.cond:
                while self.appended <= credited and self.sidecar_at is None:
                    self.cond.wait(LIVE_TIMEOUT)
                appended = self.appended
            status = self.get_json("/status")
            folded = status["records_folded"]
            self.backlog_max = max(self.backlog_max,
                                   replay.appended[appended - 1] - folded)
            if status["final"]:
                # The batch tree holds everything on disk, including
                # batches the live fold never released before the
                # partials were merged away.
                reach = appended
            else:
                reach = replay.reflected(folded, appended)
                self.lag.append((perf_counter(), max(
                    0, replay.releasable[appended - 1] - folded)))
            if reach > credited:
                code, body = self.get("/tiles/0/0")
                done = perf_counter()
                if code != 200:
                    raise RuntimeError(f"GET /tiles/0/0: HTTP {code}")
                count = len(json.loads(body)["drawables"])
                if count < drawables:
                    raise RuntimeError(f"level-0 tile shrank from "
                                       f"{drawables} to {count} drawables")
                drawables = count
                for k in range(credited, reach):
                    self.done[k] = done
                credited = reach
            elif perf_counter() - self.due[credited] > LIVE_TIMEOUT:
                raise RuntimeError(f"batch {credited} not reflected after "
                                   f"{LIVE_TIMEOUT}s (service state "
                                   f"{status['state']!r}: "
                                   f"{status['reason']!r})")
            else:
                time.sleep(0.01)

    def _finish(self) -> None:
        with self.cond:
            while self.sidecar_at is None:
                self.cond.wait(LIVE_TIMEOUT)
        deadline = perf_counter() + LIVE_TIMEOUT
        while perf_counter() < deadline:
            self.status = self.get_json("/status")
            if self.status["final"]:
                self.final_at = perf_counter()
                break
            time.sleep(0.01)
        self.final_state = self.status.get("state", "")
        for _ in range(2):  # the second pass is served from the cache
            for level in range(LIVE_FINAL_LEVELS):
                for frame in range(1 << level):
                    code, body = self.get(f"/tiles/{level}/{frame}")
                    if code != 200:
                        raise RuntimeError(f"final tile {level}/{frame}: "
                                           f"HTTP {code}")
                    self.final_tiles.setdefault((level, frame),
                                                []).append(body)
        self.status = self.get_json("/status")


def lag_grows(lag: list[tuple[float, int]],
              slack: int = SALVAGE_INTERVAL) -> bool:
    """True when the service's lag (records it could fold but has not)
    rises by more than ``slack`` from each third of the run to the
    next.  A lag that spikes and drains after a burst of checkpoints is
    fine; one that keeps growing makes the latencies depend on the run
    length."""
    if len(lag) < 6:
        return False
    t0, t1 = lag[0][0], lag[-1][0]
    thirds: list[list[int]] = [[], [], []]
    for t, n in lag:
        thirds[min(2, int(3 * (t - t0) / (t1 - t0 or 1.0)))].append(n)
    if not all(thirds):
        return False
    a, b, c = (statistics.median(part) for part in thirds)
    return b > a + slack and c > b + slack


def prepare_live(s: Session) -> None:
    """The replay's source: the thumbnail workload's log at this seed."""
    result = run_pilot(thumbnail_entry(s.seed), THUMB_RANKS,
                       config=pilot_config(
                           s.seed, os.path.join(s.shared, "source.clog2")))
    check_run(s, result, "live source")


def live(s: Session) -> None:
    source = shared_input(s, "source.clog2")
    if source is None:
        return
    with s.untraced():
        s.facts["clog2"] = sha256_file(source)
        log = mpe.read_log(source).log
        replay = Replay.build(log)
    base = os.path.join(s.workdir, "live.clog2")
    logs = {rank: RankLog(definitions=list(replay.definitions),
                          sync_points=[SyncPoint(0.0, 0.0)])
            for rank in range(replay.num_ranks)}
    writers = {rank: AppendPartialWriter(partial_path(base, rank), rank,
                                         replay.clock_resolution)
               for rank in logs}
    for rank, writer in writers.items():
        writer.checkpoint(logs[rank])  # header chunk: sync point + defs
    service = stream.StreamService(base, expected_ranks=replay.num_ranks)
    service.start()
    try:
        _live_session(s, replay, log, base, logs, writers, service)
    finally:
        service.stop()


def _live_session(s: Session, replay: Replay, log: Any, base: str,
                  logs: dict, writers: dict, service: Any) -> None:
    s.setup_done()
    # The schedule is fixed before the first batch is due.
    due, end = replay.schedule(perf_counter() + LIVE_LEAD)
    client = TileClient(service.port, replay, due)
    client.start()
    late = 0.0
    # The writer's busy time is its thread's CPU time: the wall time of
    # its calls also holds the waits for the service's threads to yield
    # the interpreter lock.
    busy = 0.0
    for k, (rank, records) in enumerate(replay.batches):
        _sleep_until(due[k])
        late = max(late, perf_counter() - due[k])
        t0 = time.thread_time()
        logs[rank].records.extend(records)
        writers[rank].checkpoint(logs[rank])
        busy += time.thread_time() - t0
        client.appended_batch(k)
    _sleep_until(end)
    late = max(late, perf_counter() - end)
    t0 = time.thread_time()
    # A clean end, as a finishing run leaves it: the merged CLOG2, no
    # partials, then the exit sidecar.
    mpe.write_clog2(base + ".tmp", log)
    os.replace(base + ".tmp", base)
    for path in find_partials(base):
        os.remove(path)
    with open(stream.exit_path(base) + ".tmp", "w") as fh:
        json.dump({"finished": True, "ok": True, "crashed_ranks": {}}, fh)
    os.replace(stream.exit_path(base) + ".tmp", stream.exit_path(base))
    busy += time.thread_time() - t0
    sidecar_at = perf_counter()
    client.writer_done(sidecar_at)
    client.join(2 * LIVE_TIMEOUT)
    # Calibrated while nothing else runs: at set-up, and now, right
    # after the finalize being timed.
    quiet = statistics.median(s.calibrate() for _ in range(LIVE_CALIBRATIONS))
    s.run_s.append(s.scale(busy, s.setup_pace, quiet))
    s.late_ms = late * 1e3
    s.backlog_max = client.backlog_max
    s.cache = dict(client.status.get("cache", {}))
    s.attempted += len(due)
    for message in client.errors:
        s.fail(message)
    if client.is_alive():
        s.fail("client did not finish")
        return
    missing = [k for k, t in enumerate(client.done) if t is None]
    s.failed += len(missing)
    if missing:
        s.errors.append(f"{len(missing)} batches never reflected")
    for k, done in enumerate(client.done):
        if done is None:
            continue
        s.ops_ms.append((done - due[k]) * 1e3)
        j = replay.released(k)
        s.release_ms.append((done - (sidecar_at if j is None else due[j]))
                            * 1e3)
    if lag_grows(client.lag):
        s.fail("live: the service's lag grew across the run")
    s.check(client.final_at is not None and client.final_state == "final",
            f"live: service ended {client.final_state or 'unfinished'!r} "
            f"({client.status.get('reason')!r}), not 'final'")
    if client.final_at is not None:
        s.view_s.append(s.scale(client.final_at - sidecar_at, quiet))
    s.check(len(client.final_tiles) == (1 << LIVE_FINAL_LEVELS) - 1,
            f"live: fetched {len(client.final_tiles)} final tiles")
    with s.untraced():
        s.check(sha256_file(base) == s.facts["clog2"],
                "live: the merged CLOG2 differs from its source")
        _doc, _report, tree = slog2.convert_with_tree(mpe.read_log(base).log)
        digest = hashlib.sha256()
        for (level, frame), bodies in sorted(client.final_tiles.items()):
            expected = stream.render_tile(tree, level, frame)
            s.check(all(b == expected for b in bodies),
                    f"live: final tile {level}/{frame} differs from the "
                    "batch pipeline's")
            digest.update(expected)
    s.facts["final_tiles"] = digest.hexdigest()


def _sleep_until(t: float) -> None:
    while True:
        left = t - perf_counter()
        if left <= 0:
            return
        time.sleep(min(left, 0.05))


WORKLOADS = {"thumbnail": thumbnail, "fleet": fleet, "live": live}
#: Unmeasured steps that make a run's shared inputs, in their own
#: process before the first measured session.
PREPARE = {"fleet": prepare_fleet, "live": prepare_live}
