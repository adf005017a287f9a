"""Property-based tests of the full Pilot wire path: arbitrary format
strings and values survive a real write -> messages -> read round
trip, under every check level."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pilot import PilotConfig, run_pilot
from repro.pilot.api import (
    PI_MAIN,
    PI_Configure,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Read,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
)

# One wire item: (format token, write args builder, expected extractor)
_INT_TYPES = ["d", "u", "hd", "hu", "ld", "lu"]
_BOUNDS = {"d": (-2**31, 2**31 - 1), "u": (0, 2**32 - 1),
           "hd": (-2**15, 2**15 - 1), "hu": (0, 2**16 - 1),
           "ld": (-2**62, 2**62 - 1), "lu": (0, 2**62 - 1)}


@st.composite
def wire_items(draw):
    kind = draw(st.sampled_from(["scalar_int", "scalar_float", "string",
                                 "fixed_array", "runtime_array",
                                 "autoalloc"]))
    if kind == "scalar_int":
        t = draw(st.sampled_from(_INT_TYPES))
        lo, hi = _BOUNDS[t]
        v = draw(st.integers(lo, hi))
        return f"%{t}", (v,), (), lambda got, v=v: int(got) == v
    if kind == "scalar_float":
        v = draw(st.floats(-1e12, 1e12, allow_nan=False))
        return "%lf", (v,), (), lambda got, v=v: float(got) == v
    if kind == "string":
        v = draw(st.text(max_size=30).filter(lambda s: True))
        return "%s", (v,), (), lambda got, v=v: got == v
    n = draw(st.integers(1, 12))
    t = draw(st.sampled_from(["d", "ld"]))
    lo, hi = _BOUNDS[t]
    data = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
    arr = np.array(data, dtype=np.int32 if t == "d" else np.int64)
    if kind == "fixed_array":
        return (f"%{n}{t}", (arr,), (),
                lambda got, d=data: list(got) == d)
    if kind == "runtime_array":
        return (f"%*{t}", (n, arr), (n,),
                lambda got, d=data: list(got) == d)
    # autoalloc returns two values; caller flattens them.
    return (f"%^{t}", (n, arr), (),
            lambda got, d=data, n=n: got[0] == n and list(got[1]) == d)


def roundtrip_program(fmt, write_args, read_args, nitems_returned):
    got = {}

    def main(argv):
        chans = {}

        def work(i, _a):
            got["value"] = PI_Read(chans["c"], fmt, *read_args)
            PI_Write(chans["done"], "%d", 1)
            return 0

        PI_Configure(argv)
        p = PI_CreateProcess(work, 0)
        chans["c"] = PI_CreateChannel(PI_MAIN, p)
        chans["done"] = PI_CreateChannel(p, PI_MAIN)
        PI_StartAll()
        PI_Write(chans["c"], fmt, *write_args)
        PI_Read(chans["done"], "%d")
        PI_StopMain(0)

    return main, got


class TestWireProperties:
    @settings(deadline=None, max_examples=60)
    @given(item=wire_items(), check_level=st.integers(0, 3))
    def test_single_item_roundtrip(self, item, check_level):
        fmt, write_args, read_args, verify = item
        main, got = roundtrip_program(fmt, write_args, read_args, 1)
        res = run_pilot(main, 2,
                        config=PilotConfig(check_level=check_level))
        assert res.ok
        value = got["value"]
        if fmt.startswith("%^"):
            assert verify(value)  # (count, array) tuple
        else:
            assert verify(value)

    @settings(deadline=None, max_examples=30)
    @given(items=st.lists(wire_items(), min_size=2, max_size=4))
    def test_multi_item_roundtrip(self, items):
        fmt = " ".join(i[0] for i in items)
        write_args = tuple(a for i in items for a in i[1])
        read_args = tuple(a for i in items for a in i[2])
        main, got = roundtrip_program(fmt, write_args, read_args, len(items))
        res = run_pilot(main, 2, config=PilotConfig(check_level=3))
        assert res.ok
        values = got["value"]
        if not isinstance(values, tuple):
            values = (values,)
        # Walk the flat return list item by item (%^ consumes two slots).
        pos = 0
        for token, _, _, verify in items:
            if token.startswith("%^"):
                assert verify((values[pos], values[pos + 1]))
                pos += 2
            else:
                assert verify(values[pos])
                pos += 1
        assert pos == len(values)
