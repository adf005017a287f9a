"""The integrated deadlock detector (-pisvc=d)."""

import pytest

from repro.pilot import PilotConfig, run_pilot
from repro.pilot.api import (
    PI_MAIN,
    BundleUsage,
    PI_Configure,
    PI_CreateBundle,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Read,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
)
from repro.vmpi.errors import SimulationDeadlock

from tests.pilot.helpers import expect_abort_with


def two_way_wait_program(argv=()):
    """MAIN reads from worker while worker reads from MAIN: classic
    circular wait."""

    def main(argv_inner):
        chans = {}

        def work(i, _a):
            PI_Read(chans["to_w"], "%d")
            PI_Write(chans["to_m"], "%d", 1)
            return 0

        PI_Configure(argv_inner)
        p = PI_CreateProcess(work, 0)
        chans["to_w"] = PI_CreateChannel(PI_MAIN, p)
        chans["to_m"] = PI_CreateChannel(p, PI_MAIN)
        PI_StartAll()
        PI_Read(chans["to_m"], "%d")  # oops: should have written first
        PI_Write(chans["to_w"], "%d", 1)
        PI_StopMain(0)

    return main


class TestDetector:
    def test_cycle_detected_and_aborts(self):
        res = run_pilot(two_way_wait_program(), 3,
                        config=PilotConfig(services="d"))
        expect_abort_with(res, "DEADLOCK_CYCLE")

    def test_diagnostic_names_processes_and_channels(self):
        res = run_pilot(two_way_wait_program(), 3,
                        config=PilotConfig(services="d"))
        message = res.diagnostics.entries[-1].message
        assert "PI_MAIN" in message
        assert "P1" in message
        assert "PI_Read" in message
        assert "C" in message  # channel names

    def test_without_detector_engine_raises(self):
        with pytest.raises(SimulationDeadlock):
            run_pilot(two_way_wait_program(), 2)

    def test_no_writer_stall(self):
        # Worker exits without writing; MAIN waits forever: a stall with
        # no cycle.
        def main(argv):
            chans = {}

            def work(i, _a):
                return 0  # never writes

            PI_Configure(argv)
            p = PI_CreateProcess(work, 0)
            chans["c"] = PI_CreateChannel(p, PI_MAIN)
            PI_StartAll()
            PI_Read(chans["c"], "%d")
            PI_StopMain(0)

        res = run_pilot(main, 3, config=PilotConfig(services="d"))
        expect_abort_with(res, "DEADLOCK_STALL")

    def test_three_way_cycle(self):
        def main(argv):
            chans = {}

            def w1(i, _a):
                PI_Read(chans["m_w1"], "%d")
                PI_Write(chans["w1_w2"], "%d", 1)
                return 0

            def w2(i, _a):
                PI_Read(chans["w1_w2"], "%d")
                PI_Write(chans["w2_m"], "%d", 1)
                return 0

            PI_Configure(argv)
            p1 = PI_CreateProcess(w1, 0)
            p2 = PI_CreateProcess(w2, 1)
            chans["m_w1"] = PI_CreateChannel(PI_MAIN, p1)
            chans["w1_w2"] = PI_CreateChannel(p1, p2)
            chans["w2_m"] = PI_CreateChannel(p2, PI_MAIN)
            PI_StartAll()
            PI_Read(chans["w2_m"], "%d")  # wrong order again
            PI_Write(chans["m_w1"], "%d", 1)
            PI_StopMain(0)

        res = run_pilot(main, 4, config=PilotConfig(services="d"))
        expect_abort_with(res, "DEADLOCK_CYCLE")

    def test_select_wait_reported(self):
        # MAIN selects over channels nobody ever writes.
        def main(argv):
            chans = []

            def work(i, _a):
                PI_Read(back[i], "%d")  # blocked on MAIN too
                return 0

            back = []
            PI_Configure(argv)
            for i in range(2):
                p = PI_CreateProcess(work, i)
                chans.append(PI_CreateChannel(p, PI_MAIN))
                back.append(PI_CreateChannel(PI_MAIN, p))
            bundle = PI_CreateBundle(BundleUsage.SELECT, chans)
            PI_StartAll()
            from repro.pilot.api import PI_Select

            PI_Select(bundle)
            PI_StopMain(0)

        res = run_pilot(main, 4, config=PilotConfig(services="d"))
        assert res.aborted is not None
        assert any(code.startswith("DEADLOCK") for code in res.diagnostics.codes)

    def test_healthy_program_untouched_by_detector(self):
        def main(argv):
            chans = {}

            def work(i, _a):
                PI_Write(chans["c"], "%d", 5)
                return 0

            PI_Configure(argv)
            p = PI_CreateProcess(work, 0)
            chans["c"] = PI_CreateChannel(p, PI_MAIN)
            PI_StartAll()
            assert int(PI_Read(chans["c"], "%d")) == 5
            PI_StopMain(0)

        res = run_pilot(main, 3, config=PilotConfig(services="d"))
        assert res.ok
        assert res.diagnostics.codes == []
