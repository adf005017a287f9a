"""Rank-count scaling of the generator rank scheduler.

Runs the dynamic master/worker fleet (:mod:`repro.apps.fleet`) at
increasing rank counts and records wall-clock time and peak RSS in
``benchmarks/out/BENCH_ranks.json``.  The headline claim this file
proves: **a ≥1,000-rank Pilot job completes in a single OS process**,
a scale at which an OS thread per rank is dominated by futex handoffs
and kernel stacks (at 10k ranks it cannot even start — default pthread
stacks alone would need tens of GB).

Pilot costs are zeroed and services are off so the measurement is the
*scheduler*, not the workload: every remaining microsecond is task
switching, channel bookkeeping and the SPMD configuration phase.

Run with ``make fleet`` (or ``pytest benchmarks/test_ranks.py``).
"""

from __future__ import annotations

import json
import os
import resource
import time

import pytest

from repro.apps.fleet import make_fleet_main
from repro.pilot import PilotConfig, PilotCosts, run_pilot

#: Worker counts measured; ranks = workers + 1.
CELLS = (100, 300, 1000)

#: The virtual run time of each cell.  The engine is deterministic, so
#: these are exact; they were recorded when a thread-per-rank backend
#: still existed, and both backends produced them.
VIRTUAL_S = {100: 0.00020981500000000057,
             300: 0.0005922810000000083,
             1000: 0.0019239949999998588}

ZERO_COSTS = PilotCosts(api_call=0.0, config_call=0.0, check_per_level=0.0)


def peak_rss_kib() -> int:
    """Linux ru_maxrss is KiB; good enough for a monotone high-water mark."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_cell(workers: int) -> dict:
    cfg = PilotConfig(check_level=0, costs=ZERO_COSTS)
    main = make_fleet_main(workers)
    rss_before = peak_rss_kib()
    t0 = time.perf_counter()
    result = run_pilot(main, workers + 1, config=cfg)
    wall = time.perf_counter() - t0
    assert result.ok, f"{workers} workers: aborted {result.aborted}"
    summary = result.vmpi.results[0]
    assert summary["total"] == summary["ntasks"], summary
    return {
        "workers": workers,
        "ranks": workers + 1,
        "tasks": summary["ntasks"],
        "wall_s": round(wall, 3),
        "peak_rss_kib": peak_rss_kib(),
        "rss_growth_kib": max(0, peak_rss_kib() - rss_before),
        "virtual_s": result.total_time,
    }


@pytest.mark.benchmark(group="ranks")
def test_rank_scaling(artifacts_dir, comparison):
    rows = [run_cell(workers) for workers in CELLS]

    by_cell = {r["workers"]: r for r in rows}
    # The headline: >= 1,000 ranks complete in one process.
    big = by_cell[1000]
    assert big["ranks"] >= 1001
    # Determinism is byte-level; the virtual clock is the cheapest proxy.
    for workers, virtual_s in VIRTUAL_S.items():
        assert by_cell[workers]["virtual_s"] == virtual_s

    table = comparison("fleet rank scaling (wall seconds)")
    for r in rows:
        table.add(f"x{r['ranks']:>5}",
                  "-", f"{r['wall_s']:.2f}s rss+{r['rss_growth_kib']}KiB")

    out = os.path.join(artifacts_dir, "BENCH_ranks.json")
    with open(out, "w") as fh:
        json.dump({"cells": rows,
                   "note": "zero Pilot costs, services off, check 0"},
                  fh, indent=2)
    print(f"\nwrote {out}")
