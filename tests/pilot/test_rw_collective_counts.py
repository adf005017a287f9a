"""Less-travelled format paths through the collectives and p2p wires:
runtime counts in gathers, every scalar width, scatter %* slicing."""

import numpy as np
import pytest

from repro.pilot import run_pilot
from repro.pilot.api import (
    PI_MAIN,
    BundleUsage,
    PI_Configure,
    PI_CreateBundle,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Gather,
    PI_Read,
    PI_Reduce,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
)

from tests.pilot.helpers import run_main_worker

NW = 3


def gather_program(fmt_leaf, leaf_values, fmt_root, root_args=()):
    out = {}

    def main(argv):
        chans = []

        def work(i, _a):
            PI_Write(chans[i], fmt_leaf, *leaf_values(i))
            return 0

        PI_Configure(argv)
        procs = [PI_CreateProcess(work, i) for i in range(NW)]
        for p in procs:
            chans.append(PI_CreateChannel(p, PI_MAIN))
        b = PI_CreateBundle(BundleUsage.GATHER, chans)
        PI_StartAll()
        out["data"] = PI_Gather(b, fmt_root, *root_args)
        PI_StopMain(0)

    res = run_pilot(main, NW + 1)
    return res, out.get("data")


class TestGatherRuntimeCounts:
    def test_gather_star_arrays(self):
        res, data = gather_program(
            "%*d", lambda i: (2, [i, i + 10]), "%*d", (2,))
        assert res.ok
        assert list(data) == [0, 10, 1, 11, 2, 12]

    def test_gather_mixed_items(self):
        res, data = gather_program(
            "%d %2lf", lambda i: (i, [i * 1.0, i * 2.0]),
            "%d %2lf")
        assert res.ok
        ints, floats = data
        assert list(ints) == [0, 1, 2]
        assert list(floats) == [0.0, 0.0, 1.0, 2.0, 2.0, 4.0]


class TestReduceRuntimeCounts:
    def test_reduce_star_arrays(self):
        out = {}

        def main(argv):
            chans = []

            def work(i, _a):
                PI_Write(chans[i], "%*ld", 3, [i, i, i])
                return 0

            PI_Configure(argv)
            procs = [PI_CreateProcess(work, i) for i in range(NW)]
            for p in procs:
                chans.append(PI_CreateChannel(p, PI_MAIN))
            b = PI_CreateBundle(BundleUsage.REDUCE, chans)
            PI_StartAll()
            out["sum"] = list(PI_Reduce(b, "%+*ld", 3))
            PI_StopMain(0)

        res = run_pilot(main, NW + 1)
        assert res.ok
        assert out["sum"] == [3, 3, 3]  # 0+1+2 elementwise


class TestScalarWidths:
    @pytest.mark.parametrize("fmt,value,dtype", [
        ("%hd", -1234, np.int16),
        ("%hu", 65000, np.uint16),
        ("%u", 2**31, np.uint32),
        ("%ld", -(2**40), np.int64),
        ("%lu", 2**40, np.uint64),
    ])
    def test_width_roundtrip(self, fmt, value, dtype):
        got = {}

        def main(ctx):
            PI_Write(ctx.to[0], fmt, value)
            PI_Read(ctx.frm[0], "%d")

        def worker(ctx):
            got["v"] = PI_Read(ctx.to[ctx.index], fmt)
            PI_Write(ctx.frm[ctx.index], "%d", 1)

        res = run_main_worker(main, worker)
        assert res.ok
        assert got["v"] == value
        assert got["v"].dtype == dtype

    def test_overflow_wraps_like_c(self):
        # 70000 does not fit %hd; numpy wraps it, as C would store it.
        got = {}

        def main(ctx):
            PI_Write(ctx.to[0], "%hd", np.int64(70000) % 65536 - 65536)
            PI_Read(ctx.frm[0], "%d")

        def worker(ctx):
            got["v"] = int(PI_Read(ctx.to[ctx.index], "%hd"))
            PI_Write(ctx.frm[ctx.index], "%d", 1)

        res = run_main_worker(main, worker)
        assert res.ok
        assert got["v"] == 4464  # 70000 mod 2^16, interpreted signed
