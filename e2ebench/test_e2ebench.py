"""Tests of the benchmark's own arithmetic and checks.

    PYTHONPATH=src python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import os
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- the percentile rule -------------------------------------------------------

def test_p95_needs_200_samples():
    assert stats.samples_beyond(200, 95.0) == 10
    assert stats.highest_supported(200) == 95.0
    assert stats.samples_beyond(199, 95.0) == 9
    assert stats.highest_supported(199) == 90.0


def test_highest_supported_percentile_by_sample_size():
    assert stats.highest_supported(19) is None
    assert stats.highest_supported(20) == 50.0
    assert stats.highest_supported(1000) == 99.0
    assert stats.highest_supported(10_000) == 99.9


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 50.0) == 50
    assert stats.percentile(values, 95.0) == 95
    assert stats.percentile([7.0], 95.0) == 7.0


def test_end_to_end_refuses_an_unsupported_p95():
    session = {"setup_s": 1.0, "run_s": [2.0], "view_s": [0.5],
               "ops_ms": [1.0] * 199, "peak_rss_mb": 50.0}
    errors: list[str] = []
    assert run.end_to_end([session], errors) == {}
    assert "cannot support a p95" in errors[0]
    session["ops_ms"] = [1.0] * 200
    errors = []
    out = run.end_to_end([session], errors)
    assert errors == [] and set(out) == set(run.metric_units("end_to_end"))


# -- span self time --------------------------------------------------------------

def span(name, start, end, running, parent=None, leaf=0.0):
    s = tracing.Span(name, "g", start, parent, 0, "t", 0, 0.0)
    s.end = end
    s.ran1 = running
    s.leaf = leaf
    return s


def test_self_time_subtracts_children_leaf_and_switched_out_time():
    # The parent ran 4 of its 10 s; the child (which suspended, as a
    # PI_Read does) ran 2 of its 8 s; 0.5 s of leaf work was charged.
    parent = span("PI_Read", 0.0, 10.0, 4.0, leaf=0.5)
    child = span("recv", 1.0, 9.0, 2.0, parent)
    selfs, errors = tracing.self_times([parent, child])
    assert errors == []
    assert selfs[id(parent)] == pytest.approx(1.5)
    assert selfs[id(child)] == pytest.approx(2.0)
    assert parent.duration - parent.running == pytest.approx(6.0)


def test_children_may_not_exceed_their_parent():
    parent = span("p", 0.0, 10.0, 3.0)
    child = span("c", 1.0, 9.0, 5.0, parent)
    _selfs, errors = tracing.self_times([parent, child])
    assert any("more than the span's" in e for e in errors)
    outside = span("o", 9.0, 11.0, 1.0, parent)
    _selfs, errors = tracing.self_times([parent, outside])
    assert any("outside parent" in e for e in errors)


def test_running_clock_excludes_time_switched_out():
    rec = tracing.SpanRecorder("t")
    rec.enter_slice(0)
    outer = rec.begin("PI_Read", "pilot.api")
    time.sleep(0.02)
    rec.leave_slice(0)  # rank 0 suspends ...
    rec.enter_slice(1)  # ... while rank 1 runs
    other = rec.begin("PI_Write", "pilot.api")
    time.sleep(0.05)
    rec.end(other)
    rec.leave_slice(1)
    rec.enter_slice(0)  # rank 0 resumes
    inner = rec.begin("recv", "vmpi.comm")
    time.sleep(0.01)
    rec.end(inner)
    rec.end(outer)
    rec.leave_slice(0)
    assert outer.duration >= 0.08
    assert 0.03 <= outer.running < outer.duration - 0.04
    assert inner.parent is outer and other.parent is None
    selfs, errors = tracing.self_times(rec.spans)
    assert errors == [] and rec.errors == []
    assert selfs[id(outer)] == pytest.approx(outer.running - inner.running)
    assert selfs[id(outer)] < 0.03


# -- output checks -----------------------------------------------------------------

def test_digest_check_fails_when_one_clog2_byte_flips(tmp_path):
    from repro.apps import ThumbnailConfig, thumbnail_main
    from repro.pilot import PilotConfig, run_pilot

    clog = str(tmp_path / "small.clog2")

    def small(argv):
        return thumbnail_main(argv, ThumbnailConfig(nfiles=6))

    result = run_pilot(small, 4, config=PilotConfig(
        scheduler="coroutine", services="j", mpe_log_path=clog))
    assert result.ok
    recorded = {"clog2": workloads.sha256_file(clog)}
    assert run.check_facts([{"facts": dict(recorded)}], recorded) == []
    with open(clog, "r+b") as fh:
        fh.seek(os.path.getsize(clog) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0x01]))
    flipped = {"clog2": workloads.sha256_file(clog)}
    errors = run.check_facts([{"facts": flipped}], recorded)
    assert len(errors) == 1 and errors[0].startswith("clog2 is")


def test_facts_must_repeat_across_sessions():
    a = {"facts": {"switches": 10, "virtual_s": 1.5}}
    b = {"facts": {"switches": 11, "virtual_s": 1.5}}
    errors = run.check_facts([a, b], None)
    assert len(errors) == 1 and "switches differs" in errors[0]


# -- live replay ---------------------------------------------------------------------

def test_replay_cuts_batches_where_the_logging_hook_checkpoints():
    from repro.mpe import RECV, SEND, BareEvent, MsgEvent, StateDef

    defs = [StateDef(1, 2, "PI_Read", "red")]

    def ev(t, rank, eid):
        return BareEvent(t, rank, eid, "")

    records = [ev(0.0, 0, 1), ev(1.0, 0, 2), ev(2.0, 0, 1),
               MsgEvent(3.0, 0, SEND, 1, 0, 4), ev(4.0, 0, 2),
               MsgEvent(5.0, 0, RECV, 1, 0, 4), ev(6.0, 0, 1)]
    log = SimpleNamespace(num_ranks=1, definitions=defs,
                          clock_resolution=1e-6, records=records)
    replay = workloads.Replay.build(log, interval=2)
    # Two records pile up at t=1 (a state end): flush.  Then the start
    # at t=2 and the send at t=3 are not flush points; the end at t=4
    # is.  The receive at t=5 is one record short; t=6 never reaches
    # the partial and only shows in the merged log.
    assert [len(recs) for _rank, recs in replay.batches] == [2, 3]
    assert replay.due_at == [1.0, 4.0]


def test_replay_batches_match_a_real_checkpointing_run(tmp_path,
                                                     monkeypatch):
    from repro.apps import ThumbnailConfig, thumbnail_main
    from repro.mpe import read_log, salvage
    from repro.pilot import PilotConfig, run_pilot
    from repro.pilotlog.integration import JumpshotOptions

    flushed: dict[int, list[int]] = {}
    checkpoint = salvage.AppendPartialWriter.checkpoint

    def spy(self, log):
        appended = checkpoint(self, log)
        if appended:
            flushed.setdefault(self.rank, []).append(appended)
        return appended

    monkeypatch.setattr(salvage.AppendPartialWriter, "checkpoint", spy)
    clog = str(tmp_path / "run.clog2")

    def small(argv):
        return thumbnail_main(argv, ThumbnailConfig(nfiles=40))

    result = run_pilot(small, 4, config=PilotConfig(
        scheduler="coroutine", services="j", mpe_log_path=clog),
        mpe_options=JumpshotOptions(salvage=True, salvage_interval=16))
    assert result.ok and flushed
    replay = workloads.Replay.build(read_log(clog).log, interval=16)
    derived: dict[int, list[int]] = {}
    for rank, records in replay.batches:
        derived.setdefault(rank, []).append(len(records))
    assert derived == flushed


def test_replay_counts_only_records_below_the_watermark():
    from repro.mpe import BareEvent, StateDef

    defs = [StateDef(1, 2, "s", "red")]

    def end(t, rank):
        return BareEvent(t, rank, 2, "")

    log = SimpleNamespace(
        num_ranks=2, definitions=defs, clock_resolution=1e-6,
        records=[end(0.0, 0), end(1.0, 1), end(2.0, 0), end(3.0, 1),
                 end(4.0, 0)])
    replay = workloads.Replay.build(log, interval=1)
    # One record per batch, in due order.
    assert replay.due_at == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert replay.appended == [1, 2, 3, 4, 5]
    # Until rank 1 appends, its frontier pins the watermark at 0; after
    # batch 1 it is min(0, 1) = 0 and the record at 0 is held back.
    assert replay.releasable == [0, 0, 1, 2, 3]
    # Batch k is in a tile once every record up to its own is folded.
    assert replay.need == [1, 2, 3, 4, 5]
    assert replay.reflected(0, 5) == 0
    assert replay.reflected(2, 5) == 2
    assert replay.reflected(3, 2) == 2  # batch 2 not on disk yet
    # Batch 0 is released by batch 2's append; batch 4 by the clean end.
    assert replay.released(0) == 2
    assert replay.released(4) is None
    due, end_at = replay.schedule(10.0)
    assert due[0] == 10.0
    assert due[4] == pytest.approx(10.0 + 4.0 * workloads.LIVE_PACE)
    assert end_at == pytest.approx(due[4] + workloads.LIVE_END_GAP)


def test_zoom_script_is_the_same_for_every_session_and_spans_the_depth():
    ops = workloads.zoom_script(3)
    assert ops == workloads.zoom_script(3) != workloads.zoom_script(4)
    n = workloads.ZOOM_WINDOWS
    windows = [(x, w) for kind, x, w in ops if kind == "zoom"]
    assert len(windows) == n
    # One width per equal slice of the log2 depth, and one window per
    # equal slice of the timeline.
    import math

    depths = sorted(int(-math.log2(w) * n / workloads.ZOOM_DEPTH)
                    for _x, w in windows)
    places = sorted(int((x - w / 2) / (1 - w) * n) for x, w in windows)
    assert depths == places == list(range(n))


def test_a_lag_that_settles_passes_and_one_that_grows_fails():
    settles = [(t, min(t, 3)) for t in range(40)]
    steps_once = [(t, 1 if t < 20 else 6) for t in range(40)]
    spikes = [(t, 5000 if t % 10 == 0 else 0) for t in range(40)]
    grows = [(t, t // 2) for t in range(40)]
    assert not workloads.lag_grows(settles, slack=2)
    assert not workloads.lag_grows(steps_once, slack=2)
    assert not workloads.lag_grows(spikes, slack=2)
    assert workloads.lag_grows(grows, slack=2)


# -- reference-speed scaling -------------------------------------------------------

def test_timed_steps_are_scaled_to_the_reference_speed(monkeypatch):
    # A machine running at half the reference speed: the calibration
    # task takes twice as long, so a step's time is halved.
    monkeypatch.setattr(workloads, "calibration_task",
                        lambda: 2 * workloads.CALIBRATION_REF_S)
    s = workloads.Session(seed=1, workdir=".", shared=".",
                          spawned=time.monotonic(), zoom=False)
    with s.timed("step", s.run_s):
        time.sleep(0.05)
    assert 0.025 <= s.run_s[0] < 0.05
    assert len(s.calibrations) == 2
