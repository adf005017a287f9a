"""Error types raised by the virtual MPI runtime."""

from __future__ import annotations


class VmpiError(Exception):
    """Base class for all virtual-MPI errors."""


class EngineError(VmpiError):
    """Misuse of the discrete-event engine (scheduling bugs, reentrancy)."""


class SimulationDeadlock(VmpiError):
    """The engine stalled: no runnable task, no pending event, yet tasks
    remain blocked.

    This is the *engine-level* notion of deadlock.  Pilot's own deadlock
    detector (:mod:`repro.pilot.deadlock`) is a higher-level facility that
    analyses a wait-for graph of Pilot operations and produces
    user-friendly diagnostics; the engine stall is merely the trigger
    that gives it a chance to run.
    """

    def __init__(self, blocked: dict[int, str],
                 details: dict[int, tuple[str, str]] | None = None,
                 now: float = 0.0) -> None:
        self.blocked = dict(blocked)
        self.details = dict(details or {})
        self.now = now
        lines = [f"simulation stalled at t={now:.6f}s with "
                 f"{len(blocked)} blocked task(s) and no pending events:"]
        for r, why in sorted(blocked.items()):
            name, state = self.details.get(r, (f"rank{r}", "blocked"))
            lines.append(f"  rank {r} ({name}, {state}): {why or '<no reason recorded>'}")
        lines.append("  hint: each line is the blocking call that never "
                     "completed; look for a send/write whose matching "
                     "receive is missing (enable -pisvc=d under Pilot "
                     "for a wait-for-graph diagnosis)")
        super().__init__("\n".join(lines))


class AbortedError(VmpiError):
    """Raised inside every rank when :func:`MPI_Abort` tears the world down.

    Mirrors the paper's Section III.B discussion: once ``MPI_Abort`` runs
    there is "no way to avoid the loss of the MPE log" because the
    message infrastructure the log merge would need is gone.
    """

    def __init__(self, errorcode: int, origin_rank: int, reason: str = "") -> None:
        self.errorcode = errorcode
        self.origin_rank = origin_rank
        self.reason = reason
        msg = f"MPI_Abort(errorcode={errorcode}) called by rank {origin_rank}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class MessageError(VmpiError):
    """Invalid point-to-point arguments (bad rank, negative tag, ...)."""


class TaskFailed(VmpiError):
    """A rank's body raised an unhandled exception; wraps the original."""

    def __init__(self, rank: int, original: BaseException) -> None:
        self.rank = rank
        self.original = original
        super().__init__(f"rank {rank} failed: {original!r}")
