"""PI_CopyChannels: fresh channels for a second bundle."""

import pytest

from repro.pilot import run_pilot
from repro.pilot.api import (
    PI_MAIN,
    BundleUsage,
    PI_Configure,
    PI_CopyChannels,
    PI_CreateBundle,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Gather,
    PI_Read,
    PI_Select,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
)

from tests.pilot.helpers import expect_abort_with


class TestCopyChannels:
    def test_copies_have_same_endpoints_new_ids(self):
        seen = {}

        def work(i, _a):
            return 0

        def main(argv):
            PI_Configure(argv)
            procs = [PI_CreateProcess(work, i) for i in range(2)]
            originals = [PI_CreateChannel(p, PI_MAIN) for p in procs]
            copies = PI_CopyChannels(originals)
            seen["pairs"] = [(o.cid, c.cid, o.writer.rank == c.writer.rank,
                              o.reader.rank == c.reader.rank)
                             for o, c in zip(originals, copies)]
            PI_StartAll()
            PI_StopMain(0)

        assert run_pilot(main, 3).ok
        for ocid, ccid, same_writer, same_reader in seen["pairs"]:
            assert ocid != ccid
            assert same_writer and same_reader

    def test_enables_selector_plus_gather(self):
        """The motivating pattern: PI_Select over one set, PI_Gather
        over a copy — impossible with a single set (one bundle per
        channel)."""
        result = {}

        def main(argv):
            chans = []

            def work(i, _a):
                PI_Write(chans[i], "%d", i + 1)  # wakes the selector
                PI_Write(copies[i], "%d", (i + 1) * 100)  # gather data
                return 0

            PI_Configure(argv)
            procs = [PI_CreateProcess(work, i) for i in range(3)]
            for p in procs:
                chans.append(PI_CreateChannel(p, PI_MAIN))
            copies = PI_CopyChannels(chans)
            selector = PI_CreateBundle(BundleUsage.SELECT, chans)
            gatherer = PI_CreateBundle(BundleUsage.GATHER, copies)
            PI_StartAll()
            PI_Select(selector)
            result["gathered"] = list(PI_Gather(gatherer, "%d"))
            for i in range(3):
                PI_Read(chans[i], "%d")  # drain the wake-up messages
            PI_StopMain(0)

        res = run_pilot(main, 4)
        assert res.ok
        assert result["gathered"] == [100, 200, 300]

    def test_config_phase_only(self):
        def main(argv):
            chans = []

            def work(i, _a):
                PI_Read(chans[0], "%d")
                return 0

            PI_Configure(argv)
            p = PI_CreateProcess(work, 0)
            chans.append(PI_CreateChannel(PI_MAIN, p))
            PI_StartAll()
            PI_CopyChannels(chans)  # too late
            PI_Write(chans[0], "%d", 1)
            PI_StopMain(0)

        expect_abort_with(run_pilot(main, 2), "WRONG_PHASE")

    def test_validates_arguments(self):
        def main(argv):
            PI_Configure(argv)
            PI_CopyChannels([])

        expect_abort_with(run_pilot(main, 2), "BAD_ARGUMENTS")

    def test_aliasing_is_endpoint_level_not_channel_level(self):
        """Copies alias the original's endpoints but are distinct
        channels: the captured topology groups them into one aliasing
        class per (writer, reader) pair while keeping separate cids."""
        from repro.pilotcheck import capture_program

        def main(argv):
            PI_Configure(argv)
            procs = [PI_CreateProcess(lambda i, a: 0, i) for i in range(2)]
            originals = [PI_CreateChannel(p, PI_MAIN) for p in procs]
            PI_CopyChannels(originals)
            PI_StartAll()
            PI_StopMain(0)

        captured = capture_program(main, 3)
        groups = captured.alias_groups
        # One class per worker->main pair, each holding original + copy.
        worker_groups = {k: v for k, v in groups.items() if k[1] == 0 and k[0] != 0}
        assert len(worker_groups) == 2
        for chans in worker_groups.values():
            assert len(chans) == 2
            assert len({c.cid for c in chans}) == 2

    def test_analyzer_tracks_copies_independently(self):
        """A copy that is written but never read is its own PC004 —
        reading the original does not cover the alias."""
        from repro.pilotcheck import analyze_program

        def main(argv):
            chans = []
            copies = []

            def work(i, _a):
                PI_Write(chans[0], "%d", 1)
                PI_Write(copies[0], "%d", 2)  # nobody drains this one
                return 0

            PI_Configure(argv)
            p = PI_CreateProcess(work, 0)
            chans.append(PI_CreateChannel(p, PI_MAIN))
            copies.extend(PI_CopyChannels(chans))
            PI_StartAll()
            PI_Read(chans[0], "%d")
            PI_StopMain(0)

        analysis = analyze_program(main, 2)
        assert [f.code for f in analysis.findings] == ["PC004"]

    def test_selector_plus_gather_pattern_analyzes_clean(self):
        """The motivating select-one-set / gather-the-copies idiom must
        not trip any static check."""
        from repro.pilotcheck import analyze_program

        def main(argv):
            chans = []
            copies = []

            def work(i, _a):
                PI_Write(chans[i], "%d", i + 1)
                PI_Write(copies[i], "%d", (i + 1) * 100)
                return 0

            PI_Configure(argv)
            procs = [PI_CreateProcess(work, i) for i in range(3)]
            chans.extend(PI_CreateChannel(p, PI_MAIN) for p in procs)
            copies.extend(PI_CopyChannels(chans))
            selector = PI_CreateBundle(BundleUsage.SELECT, chans)
            gatherer = PI_CreateBundle(BundleUsage.GATHER, copies)
            PI_StartAll()
            PI_Select(selector)
            PI_Gather(gatherer, "%d")
            for i in range(3):
                PI_Read(chans[i], "%d")
            PI_StopMain(0)

        analysis = analyze_program(main, 4)
        assert analysis.findings == [], [f.render() for f in analysis.findings]

    def test_consistent_across_ranks(self):
        # All ranks re-execute the copy; slots must line up.
        def main(argv):
            PI_Configure(argv)
            p = PI_CreateProcess(lambda i, a: 0, 0)
            c = PI_CreateChannel(p, PI_MAIN)
            (copy,) = PI_CopyChannels([c])
            PI_StartAll()
            PI_StopMain(0)
            return copy.cid

        res = run_pilot(main, 4)
        assert res.ok
        # Only rank 0 returns from main normally; its cid is the shared one.
        assert res.vmpi.results[0] == 1
