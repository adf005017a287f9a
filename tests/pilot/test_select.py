"""PI_Select / PI_TrySelect / PI_ChannelHasData semantics."""

import pytest

from repro.pilot import run_pilot
from repro.pilot.api import (
    PI_MAIN,
    BundleUsage,
    PI_ChannelHasData,
    PI_Compute,
    PI_Configure,
    PI_CreateBundle,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Read,
    PI_Select,
    PI_StartAll,
    PI_StopMain,
    PI_TrySelect,
    PI_Write,
)

from tests.pilot.helpers import expect_abort_with

NW = 3


def select_program(main_body, worker_body, argv=()):
    out = {}

    def main(argv_inner):
        chans = []

        def work(index, _a):
            worker_body(index, chans)
            return 0

        PI_Configure(argv_inner)
        procs = [PI_CreateProcess(work, i) for i in range(NW)]
        for p in procs:
            chans.append(PI_CreateChannel(p, PI_MAIN))
        bundle = PI_CreateBundle(BundleUsage.SELECT, chans)
        PI_StartAll()
        out["main"] = main_body(bundle, chans)
        PI_StopMain(0)

    res = run_pilot(main, NW + 1, argv=argv)
    return res, out.get("main")


class TestSelect:
    def test_returns_ready_index_and_data_awaits_read(self):
        def main(bundle, chans):
            idx = PI_Select(bundle)
            # No message consumed by the select: the read still works.
            value = int(PI_Read(chans[idx], "%d"))
            for i in range(NW):
                if i != idx:
                    PI_Read(chans[i], "%d")
            return idx, value

        def worker(index, chans):
            PI_Compute(0.1 * (index + 1))  # worker 0 is ready first
            PI_Write(chans[index], "%d", index * 7)

        res, (idx, value) = select_program(main, worker)
        assert res.ok
        assert idx == 0
        assert value == 0

    def test_blocks_until_any_channel_ready(self):
        times = {}

        def main(bundle, chans):
            from repro.pilot.program import current_run

            idx = PI_Select(bundle)
            times["selected"] = current_run().engine.now
            for i in range(NW):
                PI_Read(chans[i], "%d")
            return idx

        def worker(index, chans):
            PI_Compute(2.0 + index)
            PI_Write(chans[index], "%d", 1)

        res, idx = select_program(main, worker)
        assert res.ok and idx == 0
        assert times["selected"] >= 2.0

    def test_select_loop_consumes_all(self):
        def main(bundle, chans):
            got = []
            for _ in range(NW):
                idx = PI_Select(bundle)
                got.append(int(PI_Read(chans[idx], "%d")))
            return sorted(got)

        def worker(index, chans):
            PI_Write(chans[index], "%d", index)

        res, got = select_program(main, worker)
        assert res.ok and got == [0, 1, 2]

    def test_select_needs_select_bundle(self):
        def main(argv):
            def work(i, _a):
                PI_Write(c[0], "%d", 1)
                return 0

            c = []
            PI_Configure(argv)
            p = PI_CreateProcess(work, 0)
            c.append(PI_CreateChannel(p, PI_MAIN))
            b = PI_CreateBundle(BundleUsage.GATHER, c)
            PI_StartAll()
            PI_Select(b)
            PI_StopMain(0)

        res = run_pilot(main, 2)
        expect_abort_with(res, "WRONG_BUNDLE_USAGE")

    def test_select_from_wrong_process(self):
        def main(bundle, chans):
            for i in range(NW):
                PI_Read(chans[i], "%d")

        def worker(index, chans):
            if index == 1:
                from repro.pilot.program import current_run

                PI_Select(current_run().bundles[0])
            PI_Write(chans[index], "%d", 1)

        res, _ = select_program(main, worker)
        expect_abort_with(res, "WRONG_ENDPOINT")


class TestTrySelect:
    def test_returns_minus_one_when_idle(self):
        def main(bundle, chans):
            first = PI_TrySelect(bundle)
            for i in range(NW):
                PI_Read(chans[i], "%d")
            return first

        def worker(index, chans):
            PI_Compute(1.0)
            PI_Write(chans[index], "%d", 1)

        res, first = select_program(main, worker)
        assert res.ok and first == -1

    def test_returns_index_when_ready(self):
        def main(bundle, chans):
            PI_Compute(0.5)  # let worker messages arrive
            idx = PI_TrySelect(bundle)
            for i in range(NW):
                PI_Read(chans[i], "%d")
            return idx

        def worker(index, chans):
            PI_Write(chans[index], "%d", 1)

        res, idx = select_program(main, worker)
        assert res.ok and idx == 0


class TestChannelHasData:
    def test_false_then_true(self):
        def main(bundle, chans):
            empty = PI_ChannelHasData(chans[1])
            PI_Compute(0.5)
            ready = PI_ChannelHasData(chans[1])
            for i in range(NW):
                PI_Read(chans[i], "%d")
            return empty, ready

        def worker(index, chans):
            PI_Write(chans[index], "%d", 1)

        res, (empty, ready) = select_program(main, worker)
        assert res.ok
        assert empty is False
        assert ready is True

    def test_wrong_endpoint(self):
        def main(argv):
            def work(i, _a):
                PI_ChannelHasData(c[0])  # worker is the writer
                return 0

            c = []
            PI_Configure(argv)
            p = PI_CreateProcess(work, 0)
            c.append(PI_CreateChannel(p, PI_MAIN))
            PI_StartAll()
            PI_Read(c[0], "%d")
            PI_StopMain(0)

        res = run_pilot(main, 2)
        expect_abort_with(res, "WRONG_ENDPOINT")
