"""Fleet: a dynamic master/worker app sized for thousands of ranks.

The paper's lab programs top out at a handful of processes — the
teaching cluster's reality.  ``fleet`` is the scale-out variant used to
exercise the generator rank scheduler: one master (PI_MAIN) feeding
``W`` workers demand-driven over per-worker request channels, selected
with a single ``PI_Select`` bundle.  At ``W = 10_000`` that is ten
thousand and one live ranks in one OS process — far past what an OS
thread per rank could host (default pthread stacks alone would need
~80 GB) and exactly what the generator-based scheduler exists for.

The workload is deliberately tiny per task (a seeded pseudo-random
compute declaration) so benchmarks measure the *scheduler*, not the
tasks.  ``fleet_main`` is argv-driven for ``python -m repro.apps
fleet``; :func:`make_fleet_main` is the programmatic face the
benchmark and the matrix tests use.
"""

from __future__ import annotations

from typing import Any

from repro.pilot.api import (
    PI_MAIN,
    BundleUsage,
    PI_Compute,
    PI_Configure,
    PI_CreateBundle,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Read,
    PI_Select,
    PI_SetName,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
)

#: Default shape: small enough for a test, representative of the
#: benchmark's per-rank behaviour.
DEFAULT_WORKERS = 50
DEFAULT_TASKS_PER_WORKER = 3
DEFAULT_TASK_COST = 2e-6


def task_cost(task: int, base: float) -> float:
    """Deterministic per-task cost: cheap LCG jitter around ``base``.

    Keeps the task mix inhomogeneous (so demand-driven assignment
    actually reorders work) without touching any RNG state.
    """
    jitter = ((task * 1103515245 + 12345) >> 16) % 1000
    return base * (0.5 + jitter / 1000.0)


def make_fleet_main(workers: int = DEFAULT_WORKERS,
                    tasks_per_worker: int = DEFAULT_TASKS_PER_WORKER,
                    base_cost: float = DEFAULT_TASK_COST):
    """Build a ``main(argv)`` running the fleet at the given scale.

    Needs ``workers + 1`` ranks.  Returns (on PI_MAIN) a summary dict
    with the per-worker executed-task counts.
    """
    ntasks = workers * tasks_per_worker

    def fleet_body(argv: list) -> Any:
        req: list = []  # worker -> master: "I'm idle"
        work: list = []  # master -> worker: task id or -1

        def worker_body(index: int, _arg2: Any) -> int:
            executed = 0
            while True:
                PI_Write(req[index], "%d", index)
                task = int(PI_Read(work[index], "%d"))
                if task < 0:
                    return executed
                PI_Compute(task_cost(task, base_cost))
                executed += 1

        n_avail = PI_Configure(argv)
        if n_avail < workers + 1:
            raise ValueError(
                f"fleet needs {workers + 1} processes, have {n_avail}")
        for i in range(workers):
            p = PI_CreateProcess(worker_body, i)
            PI_SetName(p, f"W{i}")
            req.append(PI_CreateChannel(p, PI_MAIN))
            work.append(PI_CreateChannel(PI_MAIN, p))
        selector = PI_CreateBundle(BundleUsage.SELECT, req)
        PI_StartAll()

        executed = [0] * workers
        for task in range(ntasks):
            idx = PI_Select(selector)
            PI_Read(req[idx], "%d")
            PI_Write(work[idx], "%d", task)
            executed[idx] += 1
        for i in range(workers):
            PI_Read(req[i], "%d")  # final idle announcement
            PI_Write(work[i], "%d", -1)
        PI_StopMain(0)
        return {"workers": workers, "ntasks": ntasks,
                "executed": executed, "total": sum(executed)}

    return fleet_body


def fleet_main(argv: list) -> Any:
    """argv-driven entry: ``fleet [workers] [tasks_per_worker]``."""
    app_args = [a for a in argv if not a.startswith("-")]
    workers = int(app_args[0]) if app_args else DEFAULT_WORKERS
    tasks = (int(app_args[1]) if len(app_args) > 1
             else DEFAULT_TASKS_PER_WORKER)
    return make_fleet_main(workers, tasks)(argv)
