"""Per-layer tracing from outside the program.

A traced run wraps the public functions of each ``src/repro`` module
(the layer) from this file and records one span per call: name, start,
end, parent, rank and run id.  Spans stay in memory and are written out
when the run ends.  Nothing inside ``src/repro`` changes, and the
traced run must produce the same CLOG2/SLOG2 bytes and virtual times as
an untraced one; the workloads assert that.

Two details make the wrappers invisible to the program:

* On the coroutine scheduler a rank's blocking call only suspends if
  every frame between the rank entry and the engine is a generator.
  Each wrapper therefore comes as a pair, a plain function and a
  generator twin registered with :func:`repro.vmpi.weave.register_twin`,
  and the twin delegates with ``yield from weave.w_call(...)``.
* Pilot logs the source line of each ``PI_*`` call, found by walking the
  stack past frames from the ``repro.pilot`` and ``repro.vmpi``
  packages.  The wrapper code objects carry the weave dispatcher's file
  name, so the walk skips them exactly as it skips the dispatcher.

Blocked spans: a span around ``PI_Read`` suspends, and its wall interval
also covers other ranks' work.  The recorder keeps, per rank, the time
the rank was running, measured at the task-resume boundary
(``CoroTask._switch_to``).  A span's self time is its running time minus
its children's running time; the rest of its duration is its wait.
Spans on other threads (the stream service) count all wall time as
running.

The per-call weave lookup (``weave.woven_twin``, about 700k calls per
thumbnail run) is counted, not spanned: its time is charged to the
enclosing span as leaf time and summed into the ``vmpi.weave`` figures.
The per-call dispatch ``weave.w_call`` is not wrapped at all; its cost
lands in the self time of whichever span encloses it.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import threading
import types
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

#: Execution-phase and configuration-phase Pilot calls.
CONFIG_CALLS = ("PI_Configure", "PI_CreateProcess", "PI_CreateChannel",
                "PI_CopyChannels", "PI_CreateBundle", "PI_SetName",
                "PI_DefineState", "PI_StartAll")
API_CALLS = ("PI_Write", "PI_Read", "PI_Broadcast", "PI_Scatter",
             "PI_Gather", "PI_Reduce", "PI_Select", "PI_TrySelect",
             "PI_ChannelHasData", "PI_GetName", "PI_Log", "PI_StartTime",
             "PI_EndTime", "PI_IsLogging", "PI_Abort", "PI_State",
             "PI_Compute", "PI_StopMain")
#: Communicator methods Pilot calls: point-to-point, and the PI_Select scan.
COMM_METHODS = ("send", "recv", "poll_any")
SELECT_METHODS = ("wait_any",)
MPE_LOG_METHODS = ("init_log", "get_state_eventIDs", "get_solo_eventID",
                   "describe_state", "describe_event", "describe_rank",
                   "log_event", "log_send", "log_receive", "log_sync_clocks")

#: Allowed slack when checking that children fit in their parent.
EPS = 1e-6


class Span:
    """One call through a wrapped boundary."""

    __slots__ = ("name", "group", "start", "end", "parent", "rank",
                 "run_id", "ctx", "ran0", "ran1", "leaf")

    def __init__(self, name: str, group: str, start: float,
                 parent: "Span | None", rank: int, run_id: str, ctx: Any,
                 ran0: float) -> None:
        self.name = name
        self.group = group
        self.start = start
        self.end = start
        self.parent = parent
        self.rank = rank
        self.run_id = run_id
        self.ctx = ctx
        self.ran0 = ran0
        self.ran1 = ran0
        self.leaf = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def running(self) -> float:
        """Time the span's rank (or thread) was running inside it."""
        return self.ran1 - self.ran0


class SpanRecorder:
    """In-memory span store plus the per-rank running clock."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.active = False
        self.errors: list[str] = []
        self.counters: dict[str, float] = {}
        self.slice_s = 0.0
        self.weave_calls = 0
        self.weave_hits = 0
        self.weave_s = 0.0
        self._stacks: dict[Any, list[Span]] = {}
        self._main = threading.get_ident()
        self._rank: int | None = None
        self._slice_t0 = 0.0
        self._ran_total: dict[int, float] = {}
        self._lock = threading.Lock()
        self._factory: Callable | None = None

    # -- contexts and the running clock -----------------------------------

    def _ctx(self) -> Any:
        ident = threading.get_ident()
        if self._rank is not None and ident == self._main:
            return self._rank
        return ("thread", ident)

    def _ran_clock(self, ctx: Any, now: float) -> float:
        if type(ctx) is int:
            total = self._ran_total.get(ctx, 0.0)
            if ctx == self._rank:
                total += now - self._slice_t0
            return total
        return now

    def enter_slice(self, rank: int) -> None:
        """A task starts running (``CoroTask._switch_to`` entry)."""
        if self._rank is not None:
            self.errors.append(f"task slice of rank {rank} nested in "
                               f"rank {self._rank}")
        self._rank = rank
        self._slice_t0 = perf_counter()

    def leave_slice(self, rank: int) -> None:
        dt = perf_counter() - self._slice_t0
        self._ran_total[rank] = self._ran_total.get(rank, 0.0) + dt
        self.slice_s += dt
        self._rank = None

    # -- spans --------------------------------------------------------------

    def begin(self, name: str, group: str) -> Span:
        ctx = self._ctx()
        now = perf_counter()
        stack = self._stacks.get(ctx)
        if stack is None:
            stack = self._stacks[ctx] = []
        if stack:
            parent = stack[-1]
        elif type(ctx) is int:
            # A rank's outermost span belongs to whatever the main
            # thread had open when it launched the ranks.
            host = self._stacks.get(("thread", self._main))
            parent = host[-1] if host else None
        else:
            parent = None
        span = Span(name, group, now, parent,
                    ctx if type(ctx) is int else -1, self.run_id, ctx,
                    self._ran_clock(ctx, now))
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        now = perf_counter()
        span.end = now
        span.ran1 = self._ran_clock(span.ctx, now)
        stack = self._stacks[span.ctx]
        if stack and stack[-1] is span:
            stack.pop()
        else:
            self.errors.append(f"span {span.name} closed out of order")
            if span in stack:
                stack.remove(span)

    def leaf(self, dt: float) -> None:
        """Charge ``dt`` of uncounted child work to the open span."""
        stack = self._stacks.get(self._ctx())
        if stack:
            stack[-1].leaf += dt

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    @contextmanager
    def stage(self, name: str) -> Iterator[Span]:
        """A benchmark-level span (group ``bench``) on the calling thread."""
        span = self.begin(name, "bench")
        try:
            yield span
        finally:
            self.end(span)

    def stage_span(self, name: str) -> Span | None:
        for span in self.spans:
            if span.group == "bench" and span.name == name:
                return span
        return None

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, group: str, *,
             note: Callable | None = None,
             prepare: Callable | None = None) -> Callable:
        """A traced stand-in for ``fn`` that also works inside woven code."""
        from repro.vmpi import weave

        if self._factory is None:
            self._factory = _relocated(_make_wrappers, weave.__file__)
        traced, twin = self._factory(fn, name, group, self, note, prepare,
                                     weave.w_call)
        for attr in ("__name__", "__qualname__", "__module__", "__doc__"):
            try:
                setattr(traced, attr, getattr(fn, attr))
            except (AttributeError, TypeError):
                pass
        weave.register_twin(traced, twin)
        return traced

    def body(self, work: Callable) -> Callable:
        """Trace a rank body (a rank entry or a Pilot work function)."""
        return self.wrap(work, getattr(work, "__qualname__", "body"),
                         "apps.body")

    def dump(self, path: str) -> None:
        """Write every span (gzip-compressed JSON lines)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "group": s.group,
                    "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)), "rank": s.rank,
                    "run_id": s.run_id, "running": s.running,
                    "leaf": s.leaf}) + "\n")


def _make_wrappers(orig, name, group, rec, note, prepare, w_call):
    """The plain/generator wrapper pair around ``orig``.

    :meth:`SpanRecorder.wrap` calls a relocated copy, whose code objects
    carry the weave dispatcher's file name (see the module docstring)."""

    def traced(*args, **kwargs):
        if prepare is not None:
            args = prepare(args)
        if not rec.active:
            return orig(*args, **kwargs)
        span = rec.begin(name, group)
        try:
            result = orig(*args, **kwargs)
        finally:
            rec.end(span)
        if note is not None:
            note(rec, result, args)
        return result

    def traced_twin(*args, **kwargs):
        if prepare is not None:
            args = prepare(args)
        if not rec.active:
            return (yield from w_call(orig, *args, **kwargs))
        span = rec.begin(name, group)
        try:
            result = yield from w_call(orig, *args, **kwargs)
        finally:
            rec.end(span)
        if note is not None:
            note(rec, result, args)
        return result

    return traced, traced_twin


def _relocated(fn: types.FunctionType, filename: str) -> types.FunctionType:
    """``fn`` with its code (and nested code) reporting ``filename``."""

    def move(code: types.CodeType) -> types.CodeType:
        consts = tuple(move(c) if isinstance(c, types.CodeType) else c
                       for c in code.co_consts)
        return code.replace(co_filename=filename, co_consts=consts)

    return types.FunctionType(move(fn.__code__), fn.__globals__,
                              fn.__name__, fn.__defaults__, fn.__closure__)


def install(rec: SpanRecorder) -> None:
    """Wrap every traced boundary for the rest of this process."""
    import importlib

    from repro.jumpshot.viewer import View
    from repro.mpe.api import MpeLogger
    from repro.pilotlog.integration import JumpshotLoggerHook
    from repro.stream.fold import LiveFold
    from repro.stream.follow import LogFollower
    from repro.stream.service import StreamService
    from repro.vmpi import weave
    from repro.vmpi.comm import Communicator
    from repro.vmpi.engine import CoroTask

    def function(mod: str, name: str, group: str, **kw: Any) -> None:
        orig = getattr(importlib.import_module(mod), name)
        traced = rec.wrap(orig, name, group, **kw)
        # Rebind every module-level alias (``from x import f`` copies).
        for modname, m in list(sys.modules.items()):
            if m is None or not modname.startswith("repro"):
                continue
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, traced)

    def method(cls: type, name: str, group: str, **kw: Any) -> None:
        orig = cls.__dict__[name]
        setattr(cls, name, rec.wrap(orig, f"{cls.__name__}.{name}", group,
                                    **kw))

    def body_arg(args: tuple) -> tuple:
        return (rec.body(args[0]),) + args[1:] if rec.active else args

    for name in CONFIG_CALLS:
        function("repro.pilot.api", name, "pilot.config",
                 prepare=body_arg if name == "PI_CreateProcess" else None)
    for name in API_CALLS:
        function("repro.pilot.api", name, "pilot.api")
    for name in COMM_METHODS:
        method(Communicator, name, "vmpi.comm")
    for name in SELECT_METHODS:
        method(Communicator, name, "vmpi.select")
    for name in sorted(vars(JumpshotLoggerHook)):
        if name.startswith("on_"):
            method(JumpshotLoggerHook, name, "pilotlog.hook")
    for name in MPE_LOG_METHODS:
        method(MpeLogger, name, "mpe.log")
    method(MpeLogger, "finish_log", "mpe.finish")
    function("repro.mpe.clog2", "read_log", "mpe.read")
    for name in ("convert", "convert_with_tree"):
        function("repro.slog2.convert", name, "slog2.convert",
                 note=_note_drawables)
    function("repro.slog2.file", "write_slog2", "slog2.write",
             note=_note_slog2_bytes)
    method(View, "__init__", "jumpshot.view")
    method(View, "visible", "jumpshot.visible")
    function("repro.jumpshot.svg", "render_svg", "jumpshot.render",
             note=_note_svg_bytes)
    method(LogFollower, "poll", "stream.poll", note=_note_tailed)
    method(LiveFold, "advance", "stream.fold", note=_note_folded)
    method(StreamService, "tile", "stream.tile")

    switch_to = CoroTask._switch_to

    def traced_switch_to(task: CoroTask) -> None:
        if not rec.active:
            return switch_to(task)
        rec.enter_slice(task.rank)
        try:
            return switch_to(task)
        finally:
            rec.leave_slice(task.rank)

    CoroTask._switch_to = traced_switch_to

    woven_twin = weave.woven_twin

    def traced_woven_twin(fn: Any) -> Any:
        if not rec.active:
            return woven_twin(fn)
        # weave caches the compiled twin on the function: a hit is a
        # lookup that finds it there.
        hit = getattr(fn, "__pilot_woven_twin__", None) is not None
        t0 = perf_counter()
        try:
            return woven_twin(fn)
        finally:
            dt = perf_counter() - t0
            rec.weave_calls += 1
            rec.weave_hits += hit
            rec.weave_s += dt
            rec.leaf(dt)

    weave.woven_twin = traced_woven_twin


def _note_drawables(rec: SpanRecorder, result: Any, args: tuple) -> None:
    doc = result[0]
    rec.count("slog2.drawables",
              len(doc.states) + len(doc.events) + len(doc.arrows))


def _note_slog2_bytes(rec: SpanRecorder, result: Any, args: tuple) -> None:
    rec.count("slog2.bytes", os.path.getsize(args[0]))


def _note_svg_bytes(rec: SpanRecorder, result: Any, args: tuple) -> None:
    rec.count("jumpshot.svg_bytes", len(result))


def _note_tailed(rec: SpanRecorder, result: Any, args: tuple) -> None:
    rec.count("stream.records_tailed", result.record_count)


def _note_folded(rec: SpanRecorder, result: Any, args: tuple) -> None:
    rec.count("stream.records_folded", result)


# ---------------------------------------------------------------------------
# Self time and the per-layer reduction.
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> tuple[dict[int, float], list[str]]:
    """Self time per span (keyed by ``id(span)``), and nesting errors.

    Self time = running time - children's running time - leaf time,
    where running time is the duration minus the time the span's rank
    was switched out.  Children must lie inside their parent and their
    running time must not exceed the parent's.
    """
    kids: dict[int, float] = {}
    errors: list[str] = []
    for s in spans:
        p = s.parent
        if p is None:
            continue
        kids[id(p)] = kids.get(id(p), 0.0) + s.running
        if s.start < p.start - EPS or s.end > p.end + EPS:
            errors.append(f"{s.name} [{s.start:.6f}, {s.end:.6f}] outside "
                          f"parent {p.name} [{p.start:.6f}, {p.end:.6f}]")
    out: dict[int, float] = {}
    for s in spans:
        inner = kids.get(id(s), 0.0) + s.leaf
        if inner > s.running + EPS:
            errors.append(f"children of {s.name} ran {inner:.6f}s, more "
                          f"than the span's {s.running:.6f}s")
        if s.running > s.duration + EPS:
            errors.append(f"{s.name} ran {s.running:.6f}s in "
                          f"{s.duration:.6f}s")
        out[id(s)] = s.running - inner
    return out, errors


def layer_metrics(rec: SpanRecorder) -> tuple[dict[str, float], list[str]]:
    """Reduce the recorder to per-layer metrics (calls, self seconds,
    wait seconds per group, plus counters)."""
    selfs, errors = self_times(rec.spans)
    errors = list(rec.errors) + errors
    out: dict[str, float] = dict(rec.counters)
    for s in rec.spans:
        if s.group == "bench":
            continue
        calls = f"{s.group}_calls"
        secs = f"{s.group}_s"
        out[calls] = out.get(calls, 0) + 1
        out[secs] = out.get(secs, 0.0) + selfs[id(s)]
    out["pilot.wait_s"] = sum(s.duration - s.running for s in rec.spans
                              if s.group == "pilot.api")
    out["vmpi.weave_calls"] = rec.weave_calls
    out["vmpi.weave_s"] = rec.weave_s
    out["vmpi.weave_hit_ratio"] = (rec.weave_hits / rec.weave_calls
                                   if rec.weave_calls else 0.0)
    run = rec.stage_span("run")
    if run is not None and run.duration > 0:
        inside = [s for s in rec.spans if s.group != "bench"
                  and run.start <= s.start <= run.end]
        out["trace.attributed"] = (sum(selfs[id(s)] for s in inside)
                                   / run.duration)
        if rec.slice_s:  # ranks ran: the rest of the run is the launcher
            out["pilot.launch_s"] = run.duration - rec.slice_s
    return out, errors
