"""Pilot bundle collectives: broadcast/scatter/gather/reduce, their
endpoint/usage checks, and the pure-MPMD receiver convention."""

import numpy as np
import pytest

from repro.pilot import run_pilot
from repro.pilot.api import (
    PI_MAIN,
    BundleUsage,
    PI_Broadcast,
    PI_Configure,
    PI_CreateBundle,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Gather,
    PI_Read,
    PI_Reduce,
    PI_Scatter,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
)

from tests.pilot.helpers import expect_abort_with

NW = 4


def fanout_program(usage, main_body, worker_body, *, nprocs=NW + 1, argv=()):
    """MAIN <-> NW workers through a bundle of per-worker channels."""
    result = {}

    def main(argv_inner):
        chans = []

        def work(index, _a):
            worker_body(index, chans)
            return 0

        PI_Configure(argv_inner)
        procs = [PI_CreateProcess(work, i) for i in range(NW)]
        for p in procs:
            if usage in (BundleUsage.BROADCAST, BundleUsage.SCATTER):
                chans.append(PI_CreateChannel(PI_MAIN, p))
            else:
                chans.append(PI_CreateChannel(p, PI_MAIN))
        bundle = PI_CreateBundle(usage, chans)
        PI_StartAll()
        result["main"] = main_body(bundle, chans)
        PI_StopMain(0)

    res = run_pilot(main, nprocs, argv=argv)
    return res, result.get("main")


class TestBroadcast:
    def test_everyone_reads_same_value(self):
        got = []

        def main(bundle, chans):
            PI_Broadcast(bundle, "%d %s", 99, "hello")

        def worker(index, chans):
            # Pure MPMD: "the receivers would all call PI_Read, just as
            # if reading a point-to-point message" (paper Section I).
            got.append(PI_Read(chans[index], "%d %s"))

        res, _ = fanout_program(BundleUsage.BROADCAST, main, worker)
        assert res.ok
        assert got == [(99, "hello")] * NW

    def test_broadcast_array(self):
        got = []

        def main(bundle, chans):
            PI_Broadcast(bundle, "%3lf", [1.5, 2.5, 3.5])

        def worker(index, chans):
            got.append(list(PI_Read(chans[index], "%3lf")))

        res, _ = fanout_program(BundleUsage.BROADCAST, main, worker)
        assert res.ok and got == [[1.5, 2.5, 3.5]] * NW

    def test_usage_mismatch(self):
        def main(bundle, chans):
            PI_Scatter(bundle, "%4d", np.arange(16))  # broadcast bundle!

        res, _ = fanout_program(BundleUsage.BROADCAST, main,
                                lambda i, c: PI_Read(c[i], "%4d"))
        expect_abort_with(res, "WRONG_BUNDLE_USAGE")

    def test_leaf_cannot_call_broadcast(self):
        def main(bundle, chans):
            PI_Broadcast(bundle, "%d", 1)

        def worker(index, chans):
            if index == 0:
                # workers are not the common endpoint
                from repro.pilot.program import current_run

                bundle = current_run().bundles[0]
                PI_Broadcast(bundle, "%d", 1)
            else:
                PI_Read(chans[index], "%d")

        res, _ = fanout_program(BundleUsage.BROADCAST, main, worker)
        expect_abort_with(res, "WRONG_ENDPOINT")


class TestScatter:
    def test_scalar_item_deals_one_each(self):
        got = []

        def main(bundle, chans):
            PI_Scatter(bundle, "%d", [10, 20, 30, 40])

        def worker(index, chans):
            got.append((index, int(PI_Read(chans[index], "%d"))))

        res, _ = fanout_program(BundleUsage.SCATTER, main, worker)
        assert res.ok
        assert sorted(got) == [(0, 10), (1, 20), (2, 30), (3, 40)]

    def test_array_item_deals_chunks(self):
        got = {}

        def main(bundle, chans):
            PI_Scatter(bundle, "%2d", np.arange(8, dtype=np.int32))

        def worker(index, chans):
            got[index] = list(PI_Read(chans[index], "%2d"))

        res, _ = fanout_program(BundleUsage.SCATTER, main, worker)
        assert res.ok
        assert got == {0: [0, 1], 1: [2, 3], 2: [4, 5], 3: [6, 7]}

    def test_runtime_count_chunks(self):
        got = {}

        def main(bundle, chans):
            PI_Scatter(bundle, "%*d", 3, np.arange(12, dtype=np.int32))

        def worker(index, chans):
            got[index] = list(PI_Read(chans[index], "%*d", 3))

        res, _ = fanout_program(BundleUsage.SCATTER, main, worker)
        assert res.ok
        assert got[2] == [6, 7, 8]

    def test_short_data_rejected(self):
        def main(bundle, chans):
            PI_Scatter(bundle, "%4d", np.arange(7))  # needs 16

        res, _ = fanout_program(BundleUsage.SCATTER, main,
                                lambda i, c: PI_Read(c[i], "%4d"))
        expect_abort_with(res, "BAD_ARGUMENTS")

    def test_autoalloc_rejected_in_scatter(self):
        def main(bundle, chans):
            PI_Scatter(bundle, "%^d", 4, np.arange(4))

        res, _ = fanout_program(BundleUsage.SCATTER, main,
                                lambda i, c: None)
        expect_abort_with(res, "BAD_FORMAT")


class TestGather:
    def test_scalars_concatenate_in_channel_order(self):
        def main(bundle, chans):
            return list(PI_Gather(bundle, "%d"))

        def worker(index, chans):
            PI_Write(chans[index], "%d", index * 11)

        res, merged = fanout_program(BundleUsage.GATHER, main, worker)
        assert res.ok
        assert merged == [0, 11, 22, 33]

    def test_arrays_concatenate(self):
        def main(bundle, chans):
            return list(PI_Gather(bundle, "%2d"))

        def worker(index, chans):
            PI_Write(chans[index], "%2d", [index, index + 100])

        res, merged = fanout_program(BundleUsage.GATHER, main, worker)
        assert res.ok
        assert merged == [0, 100, 1, 101, 2, 102, 3, 103]

    def test_gather_on_scatter_bundle_rejected(self):
        def main(bundle, chans):
            PI_Gather(bundle, "%d")

        res, _ = fanout_program(BundleUsage.SCATTER, main,
                                lambda i, c: PI_Read(c[i], "%d"))
        expect_abort_with(res, "WRONG_BUNDLE_USAGE")


class TestReduce:
    def test_sum(self):
        def main(bundle, chans):
            return int(PI_Reduce(bundle, "%+d"))

        def worker(index, chans):
            PI_Write(chans[index], "%d", index + 1)

        res, total = fanout_program(BundleUsage.REDUCE, main, worker)
        assert res.ok and total == 10

    def test_max(self):
        def main(bundle, chans):
            return int(PI_Reduce(bundle, "%>d"))

        def worker(index, chans):
            PI_Write(chans[index], "%d", index * index)

        res, out = fanout_program(BundleUsage.REDUCE, main, worker)
        assert res.ok and out == 9

    def test_elementwise_array_sum(self):
        def main(bundle, chans):
            return list(PI_Reduce(bundle, "%+3d"))

        def worker(index, chans):
            PI_Write(chans[index], "%3d", [index, 1, 2 * index])

        res, out = fanout_program(BundleUsage.REDUCE, main, worker)
        assert res.ok and out == [6, 4, 12]

    def test_multiple_items_mixed_ops(self):
        def main(bundle, chans):
            lo, hi = PI_Reduce(bundle, "%<d %>d")
            return int(lo), int(hi)

        def worker(index, chans):
            PI_Write(chans[index], "%d %d", index, index)

        res, out = fanout_program(BundleUsage.REDUCE, main, worker)
        assert res.ok and out == (0, 3)

    def test_missing_operator_rejected(self):
        def main(bundle, chans):
            PI_Reduce(bundle, "%d")

        res, _ = fanout_program(BundleUsage.REDUCE, main,
                                lambda i, c: PI_Write(c[i], "%d", 1))
        expect_abort_with(res, "BAD_FORMAT")


class TestBundleCreation:
    def test_mixed_endpoints_rejected(self):
        def main(argv):
            PI_Configure(argv)
            p1 = PI_CreateProcess(lambda i, a: 0, 0)
            p2 = PI_CreateProcess(lambda i, a: 0, 1)
            c1 = PI_CreateChannel(PI_MAIN, p1)
            c2 = PI_CreateChannel(p1, p2)  # different writer
            PI_CreateBundle(BundleUsage.BROADCAST, [c1, c2])

        res = run_pilot(main, 4)
        expect_abort_with(res, "NO_COMMON_ENDPOINT")

    def test_empty_bundle_rejected(self):
        def main(argv):
            PI_Configure(argv)
            PI_CreateBundle(BundleUsage.SELECT, [])

        res = run_pilot(main, 2)
        expect_abort_with(res, "BAD_ARGUMENTS")

    def test_channel_in_two_bundles_rejected(self):
        def main(argv):
            PI_Configure(argv)
            p = PI_CreateProcess(lambda i, a: 0, 0)
            c = PI_CreateChannel(p, PI_MAIN)
            PI_CreateBundle(BundleUsage.SELECT, [c])
            PI_CreateBundle(BundleUsage.GATHER, [c])

        res = run_pilot(main, 2)
        expect_abort_with(res, "CHANNEL_REBUNDLED")

    def test_usage_from_string(self):
        def main(argv):
            PI_Configure(argv)
            p = PI_CreateProcess(lambda i, a: 0, 0)
            c = PI_CreateChannel(p, PI_MAIN)
            b = PI_CreateBundle("gather", [c])
            assert b.usage is BundleUsage.GATHER
            PI_StartAll()
            PI_StopMain(0)

        assert run_pilot(main, 2).ok

    def test_unknown_usage_string(self):
        def main(argv):
            PI_Configure(argv)
            p = PI_CreateProcess(lambda i, a: 0, 0)
            c = PI_CreateChannel(p, PI_MAIN)
            PI_CreateBundle("alltoall", [c])  # Pilot has no all-to-all

        res = run_pilot(main, 2)
        expect_abort_with(res, "BAD_ARGUMENTS")
