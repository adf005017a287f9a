"""Shared run-and-convert helper for the figure benchmarks."""

from __future__ import annotations

from repro.mpe import read_log
from repro.pilot import PilotConfig, run_pilot
from repro.slog2 import convert


def run_logged(main, nprocs, tmp_path, *, name="run", jopts=None,
               **fields):
    """Run a Pilot program with MPE logging; return (result, doc, report).

    ``fields`` are further :class:`PilotConfig` fields (``skews=``...).
    """
    clog_path = str(tmp_path / f"{name}.clog2")
    config = PilotConfig(services="j", mpe_log_path=clog_path, **fields)
    result = run_pilot(main, nprocs, config=config, mpe_options=jopts)
    doc, report = convert(read_log(clog_path).log,
                          {p.rank: p.name for p in result.run.processes})
    return result, doc, report


def states_by_rank(doc, name):
    out: dict[int, list] = {}
    for s in doc.states_of(name):
        out.setdefault(s.rank, []).append(s)
    return out


def overlap(a: tuple[float, float], b: tuple[float, float]) -> float:
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
