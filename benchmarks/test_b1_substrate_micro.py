"""B1 — micro-benchmarks of the reproduction's own machinery.

Unlike the T/F/A benches (which regenerate paper artifacts in *virtual*
time), these measure real wall-clock throughput of the substrate, so
regressions in the engine, the logging path, the file formats or the
renderers show up in CI history.  pytest-benchmark runs each one for
real (multiple rounds).
"""

import pytest

from repro import jumpshot, slog2, vmpi
from repro.mpe import MpeLogger, MpeOptions, read_log
from repro.pilot import PilotConfig, run_pilot
from repro.apps import Lab2Config, lab2_main

pytestmark = pytest.mark.benchmark(group="micro")


def test_engine_context_switches(benchmark):
    """Round-trips through the scheduler's task switch."""
    N = 2000

    def run():
        def main(comm):
            for _ in range(N):
                comm.engine.advance(1e-9, "tick")

        vmpi.mpirun(main, 1)

    benchmark(run)
    benchmark.extra_info["switches_per_call"] = N


def test_p2p_message_throughput(benchmark):
    """Send+receive pairs between two ranks."""
    N = 1000

    def run():
        def main(comm):
            if comm.rank == 0:
                for i in range(N):
                    comm.send(i, 1, 0)
            else:
                for _ in range(N):
                    comm.recv(0, 0)

        vmpi.mpirun(main, 2)

    benchmark(run)
    benchmark.extra_info["messages_per_call"] = N


def test_mpe_record_rate(benchmark):
    """In-memory MPE buffering (the cost -pisvc=j adds per event)."""
    N = 20_000

    def run():
        def main(comm):
            mpe = MpeLogger(comm, MpeOptions(per_record_cost=0.0))
            mpe.init_log()
            eid = mpe.get_solo_eventID()
            for _ in range(N):
                mpe.log_event(eid, "x")

        vmpi.mpirun(main, 1)

    benchmark(run)
    benchmark.extra_info["records_per_call"] = N


@pytest.fixture(scope="module")
def lab2_artifacts(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("micro") / "lab2.clog2")
    run_pilot(lab2_main, 6,
              config=PilotConfig(services="j", mpe_log_path=path))
    clog = read_log(path).log
    doc, _ = slog2.convert(clog)
    return path, clog, doc


def test_clog2_read_throughput(benchmark, lab2_artifacts):
    path, clog, _ = lab2_artifacts
    out = benchmark(lambda: read_log(path).log)
    assert len(out.records) == len(clog.records)


def test_convert_throughput(benchmark, lab2_artifacts):
    _, clog, _ = lab2_artifacts
    doc, report = benchmark(slog2.convert, clog)
    assert report.clean


def test_svg_render_throughput(benchmark, lab2_artifacts):
    _, _, doc = lab2_artifacts
    view = jumpshot.View(doc)
    svg = benchmark(jumpshot.render_svg, view)
    assert svg.startswith("<svg")


def test_ascii_render_throughput(benchmark, lab2_artifacts):
    _, _, doc = lab2_artifacts
    view = jumpshot.View(doc)
    text = benchmark(jumpshot.render_ascii, view, 120)
    assert "PI_MAIN" in text


def test_critical_path_throughput(benchmark, lab2_artifacts):
    _, _, doc = lab2_artifacts
    path = benchmark(slog2.critical_path, doc)
    assert path.segments


def test_full_logged_run_wall_time(benchmark, tmp_path):
    """End to end: lab2 with -pisvc=j, per wall second."""

    def run():
        config = PilotConfig(services="j",
                             mpe_log_path=str(tmp_path / "w.clog2"))
        res = run_pilot(lab2_main, 6, config=config)
        assert res.ok

    benchmark(run)
