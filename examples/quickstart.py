#!/usr/bin/env python
"""Quickstart: a first Pilot program, logged and visualized.

Runs a tiny master/worker program with the paper's ``-pisvc=j`` option,
converts the resulting CLOG2 log to SLOG2, and renders the timeline both
as ASCII (printed below) and as an SVG you can open in a browser.

Run:  python examples/quickstart.py
"""

import os
import tempfile

from repro import jumpshot, slog2
from repro.mpe import read_log
from repro.pilot import (
    PI_MAIN,
    PilotConfig,
    PI_Compute,
    PI_Configure,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Read,
    PI_SetName,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
    run_pilot,
)

OUT_DIR = os.environ.get("REPRO_OUT_DIR") or os.path.join(os.path.dirname(__file__), "out")


def main(argv):
    """The Pilot program: every rank executes this (pure MPMD)."""
    to_worker, results = [], []

    def worker(index, _arg2):
        # Each worker: read its task, "compute", report the square.
        n = PI_Read(to_worker[index], "%d")
        PI_Compute(1e-3 * (index + 1))  # declared virtual work
        PI_Write(results[index], "%d", int(n) * int(n))
        return 0

    navail = PI_Configure(argv)
    nworkers = navail - 1
    for i in range(nworkers):
        p = PI_CreateProcess(worker, i)
        PI_SetName(p, f"Squarer{i}")
        to_worker.append(PI_CreateChannel(PI_MAIN, p))
        results.append(PI_CreateChannel(p, PI_MAIN))
    PI_StartAll()

    for i in range(nworkers):
        PI_Write(to_worker[i], "%d", i + 10)
    squares = [int(PI_Read(results[i], "%d")) for i in range(nworkers)]
    print(f"sum of squares of 10..{10 + nworkers - 1} = {sum(squares)}")
    PI_StopMain(0)


if __name__ == "__main__":
    os.makedirs(OUT_DIR, exist_ok=True)
    clog_path = os.path.join(tempfile.gettempdir(), "quickstart.clog2")
    config = PilotConfig(services="j", mpe_log_path=clog_path)

    result = run_pilot(main, nprocs=5, config=config)
    print(f"\nvirtual run time: {result.total_time * 1e3:.3f} ms "
          f"(wrap-up {result.wrapup_time * 1e3:.3f} ms)")

    # The paper's workflow: CLOG2 -> (convert) -> SLOG2 -> Jumpshot.
    clog = read_log(clog_path).log
    rank_names = {p.rank: p.name for p in result.run.processes}
    doc, report = slog2.convert(clog, rank_names)
    print(report.summary())

    view = jumpshot.View(doc)
    print()
    print(jumpshot.render_ascii(view, width=100))

    svg_path = os.path.join(OUT_DIR, "quickstart.svg")
    jumpshot.render_svg(view, svg_path)
    print(f"\nSVG timeline written to {svg_path}")
