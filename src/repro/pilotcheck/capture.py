"""Topology capture: run a Pilot main's configuration phase for real.

The configuration phase of a Pilot program is ordinary sequential Python
— the paper's programs build their process/channel/bundle tables with
loops and helper lists before ``PI_StartAll``.  Rather than re-implement
that with abstract interpretation, pilotcheck *executes* it against a
stand-in run object (:class:`CaptureRun`) that reuses the real
``PilotRun`` creation/validation machinery but never starts the virtual
cluster.  A hook raises at ``PI_StartAll``, unwinding ``main`` with the
complete declared topology plus a snapshot of main's local variables —
which is exactly the environment the AST walk needs to resolve channel
expressions like ``chans[f"to{i}"]``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from types import CodeType
from typing import Any, Callable

from repro._util.callsite import CallSite
from repro.pilot.config import PilotConfig, reject_pi_flags
from repro.pilot.errors import Diagnostic, DiagnosticLog, PilotError
from repro.pilot.hooks import HookSet, PilotHooks
from repro.pilot.objects import PI_BUNDLE, PI_CHANNEL, PI_PROCESS
from repro.pilot.program import (
    PilotCosts,
    PilotRun,
    RankState,
    current_run,
    set_current_run,
)

_PILOT_DIR = __file__.rsplit("/", 2)[0] + "/pilot"
_SELF_DIR = __file__.rsplit("/", 1)[0]


class CaptureError(PilotError):
    """A configuration-phase error surfaced during capture.

    Wraps the diagnostic the real run would have aborted with.
    """


class _CaptureDone(Exception):
    """Internal: unwinds ``main`` once PI_StartAll is reached."""

    def __init__(self, snapshot: "_MainSnapshot") -> None:
        self.snapshot = snapshot


@dataclass
class _MainSnapshot:
    code: CodeType
    locals: dict[str, Any]
    globals: dict[str, Any]
    callsite: CallSite


class _StubEngine:
    """Just enough engine for the config-phase code paths."""

    def __init__(self) -> None:
        self.now = 0.0
        self.current_task = None

    def advance(self, seconds: float, reason: str = "") -> None:
        self.now += seconds

    def abort(self, errorcode: int, rank: int, reason: str) -> None:
        pass  # CaptureRun.fail raises instead


class _CaptureHook(PilotHooks):
    """Raises :class:`_CaptureDone` when the program reaches PI_StartAll,
    carrying a snapshot of the user frame that called it."""

    def on_startall(self, rank: int, callsite: CallSite) -> None:
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_filename.startswith(
                (_PILOT_DIR, _SELF_DIR)):
            frame = frame.f_back
        if frame is None:  # pragma: no cover - StartAll always has a caller
            raise _CaptureDone(_MainSnapshot(
                (lambda: None).__code__, {}, {}, callsite))
        raise _CaptureDone(_MainSnapshot(
            frame.f_code, dict(frame.f_locals), frame.f_globals, callsite))


class CaptureRun:
    """A PilotRun stand-in that records the configuration phase.

    Borrows the real slot-allocation and validation methods so the
    captured topology is built by exactly the code the runtime uses; a
    single rank-0 state stands in for the SPMD re-execution (capture
    only needs the tables once).
    """

    # The real machinery, reused unbound (duck-typed self).
    _create_slot_impl = PilotRun._create_slot
    resolve_endpoint = PilotRun.resolve_endpoint
    require_phase = PilotRun.require_phase
    check = PilotRun.check

    def __init__(self, nprocs: int, options: PilotConfig) -> None:
        self.engine = _StubEngine()
        self.options = options
        self.costs = PilotCosts()
        self.hooks = HookSet()
        self.hooks.add(_CaptureHook())
        self.diagnostics = DiagnosticLog()
        self.processes: list[PI_PROCESS] = [PI_PROCESS(0, None)]
        self.processes[0].name = "PI_MAIN"
        self.channels: list[PI_CHANNEL] = []
        self.bundles: list[PI_BUNDLE] = []
        self.custom_states: list = []
        self._bundled_channels: set[int] = set()
        self.app_argv: list[str] = []
        self.exec_ended: dict[int, float] = {}
        self.finished_at = None
        self._nprocs = nprocs
        self._state = RankState(0)
        self.channel_sites: dict[int, CallSite] = {}
        self.process_sites: dict[int, CallSite] = {}
        self.bundle_sites: dict[int, CallSite] = {}

    # -- PilotRun protocol -------------------------------------------------

    def rank_state(self) -> RankState:
        return self._state

    @property
    def rank(self) -> int:
        return 0

    @property
    def world_size(self) -> int:
        return self._nprocs

    @property
    def service_rank(self) -> int | None:
        return self.world_size - 1 if self.options.needs_service_rank else None

    @property
    def available_processes(self) -> int:
        n = self.world_size
        if self.options.needs_service_rank:
            n -= 1
        return n

    @property
    def max_worker_processes(self) -> int:
        return self.available_processes - 1

    def fail(self, code: str, message: str,
             callsite: CallSite | None = None) -> None:
        diag = Diagnostic(code, message, callsite, 0)
        self.diagnostics.record(diag)
        raise CaptureError(diag)

    def charge(self, seconds: float, reason: str = "pilot overhead") -> None:
        pass

    def charge_call(self) -> None:
        pass

    def _create_slot(self, kind: str, table: list, build: Callable[[], Any],
                     match: Callable[[Any], bool], callsite: CallSite,
                     offset: int = 0) -> Any:
        obj = self._create_slot_impl(kind, table, build, match, callsite,
                                     offset)
        if isinstance(obj, PI_CHANNEL):
            self.channel_sites.setdefault(obj.cid, callsite)
        elif isinstance(obj, PI_PROCESS):
            self.process_sites.setdefault(obj.rank, callsite)
        elif isinstance(obj, PI_BUNDLE):
            self.bundle_sites.setdefault(obj.bid, callsite)
        return obj


@dataclass
class CapturedProgram:
    """The declared topology of a Pilot program, pre-StartAll."""

    options: PilotConfig  # resolved
    app_argv: list[str]
    nprocs: int
    processes: list[PI_PROCESS]
    channels: list[PI_CHANNEL]
    bundles: list[PI_BUNDLE]
    custom_states: list
    channel_sites: dict[int, CallSite]
    process_sites: dict[int, CallSite]
    bundle_sites: dict[int, CallSite]
    started: bool
    main_code: CodeType | None = None
    main_locals: dict[str, Any] = field(default_factory=dict)
    main_globals: dict[str, Any] = field(default_factory=dict)
    startall_site: CallSite | None = None

    @property
    def alias_groups(self) -> dict[tuple[int, int], list[PI_CHANNEL]]:
        """Channels grouped by (writer rank, reader rank): the aliasing
        classes PI_CopyChannels creates."""
        groups: dict[tuple[int, int], list[PI_CHANNEL]] = {}
        for chan in self.channels:
            groups.setdefault((chan.writer.rank, chan.reader.rank),
                              []).append(chan)
        return groups


def capture_program(main: Callable[[list[str]], Any], nprocs: int,
                    argv: list[str] | tuple[str, ...] = (), *,
                    config: PilotConfig | None = None) -> CapturedProgram:
    """Execute ``main``'s configuration phase and capture the topology.

    ``argv`` is the program's own arguments; ``-pi*`` flags belong in
    ``config`` (see :meth:`PilotConfig.from_argv`).  Raises
    :class:`CaptureError` if the configuration itself is invalid (the
    same errors the real run would abort with) and propagates any
    exception the application code raises before ``PI_StartAll``.
    """
    reject_pi_flags(argv, "capture_program")
    opts = (config or PilotConfig()).resolved()
    app_argv = list(argv)
    run = CaptureRun(nprocs, opts)
    run.app_argv = app_argv
    try:
        prev = current_run()
    except PilotError:
        prev = None
    set_current_run(run)  # type: ignore[arg-type]
    snapshot: _MainSnapshot | None = None
    try:
        main(list(app_argv))
    except _CaptureDone as done:
        snapshot = done.snapshot
    finally:
        set_current_run(prev)
    return CapturedProgram(
        options=opts, app_argv=app_argv, nprocs=nprocs,
        processes=list(run.processes), channels=list(run.channels),
        bundles=list(run.bundles), custom_states=list(run.custom_states),
        channel_sites=run.channel_sites, process_sites=run.process_sites,
        bundle_sites=run.bundle_sites,
        started=snapshot is not None,
        main_code=snapshot.code if snapshot else None,
        main_locals=snapshot.locals if snapshot else {},
        main_globals=snapshot.globals if snapshot else {},
        startall_site=snapshot.callsite if snapshot else None,
    )
