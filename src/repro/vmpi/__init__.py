"""``repro.vmpi`` — deterministic virtual-time MPI substrate.

The paper's system runs over OpenMPI on a teaching cluster; this package
is the repo's substitution for it (DESIGN.md Section 2): generator
ranks under a discrete-event scheduler, an alpha–beta network model,
skewable per-rank clocks, and mpi4py-flavoured point-to-point and
collective operations.

Quick taste::

    from repro import vmpi

    def main(comm):
        if comm.rank == 0:
            comm.send({"hello": "world"}, dest=1, tag=7)
        elif comm.rank == 1:
            print(comm.recv(source=0, tag=7))

    vmpi.mpirun(main, nprocs=2)
"""

from repro.vmpi import collectives
from repro.vmpi.clock import ClockSkew, LocalClock, RealTimeClock
from repro.vmpi.comm import (
    ANY_SOURCE,
    ANY_TAG,
    INTERNAL_TAG_BASE,
    Communicator,
    Message,
    NetworkModel,
    Request,
)
from repro.vmpi.engine import (
    Engine,
    Resource,
    RunResult,
    Task,
)
from repro.vmpi.errors import (
    AbortedError,
    EngineError,
    MessageError,
    SimulationDeadlock,
    TaskFailed,
    VmpiError,
)
from repro.vmpi.faults import (
    ClockFault,
    CorruptedPayload,
    CrashFault,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    Injection,
    MessageFault,
    plan_from_dict,
    plan_to_dict,
)
from repro.vmpi.journal import (
    Journal,
    JournalError,
    ReplayDivergence,
    WalEntry,
    read_wal,
)
from repro.vmpi.status import Status
from repro.vmpi.watchdog import (
    WATCHDOG_ABORT,
    WATCHDOG_CHECKPOINT,
    ProgressWatchdog,
    WatchdogError,
)
from repro.vmpi.world import World, compute, mpirun

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "INTERNAL_TAG_BASE",
    "AbortedError",
    "ClockFault",
    "ClockSkew",
    "Communicator",
    "CorruptedPayload",
    "CrashFault",
    "Engine",
    "EngineError",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "Injection",
    "Journal",
    "JournalError",
    "LocalClock",
    "Message",
    "MessageError",
    "MessageFault",
    "NetworkModel",
    "ProgressWatchdog",
    "RealTimeClock",
    "ReplayDivergence",
    "Request",
    "Resource",
    "RunResult",
    "SimulationDeadlock",
    "Status",
    "Task",
    "TaskFailed",
    "VmpiError",
    "WATCHDOG_ABORT",
    "WATCHDOG_CHECKPOINT",
    "WalEntry",
    "WatchdogError",
    "World",
    "collectives",
    "compute",
    "mpirun",
    "plan_from_dict",
    "plan_to_dict",
    "read_wal",
]
