"""LiveFold: watermark ordering, horizon growth, late definitions."""

from __future__ import annotations

from repro.mpe.records import BareEvent, EventDef, MsgEvent, StateDef
from repro.slog2.model import Arrow, Event, State
from repro.stream.fold import _INITIAL_HORIZON, LiveFold

TICK = EventDef(9, "tick", "red")
WORK = StateDef(1, 2, "work", "RoyalBlue")


def drawables(fold: LiveFold) -> list:
    assert fold.tree is not None
    found, _previewed = fold.tree.query(*fold.span(), min_duration=0.0)
    return found


def test_watermark_holds_records_a_lagging_rank_could_predate():
    fold = LiveFold()
    fold.add_definitions([TICK])
    fold.add_records(0, [BareEvent(1e-4, 0, 9, "a"),
                         BareEvent(5e-4, 0, 9, "b")])
    fold.add_records(1, [BareEvent(2e-4, 1, 9, "c")])
    # Rank 1's frontier is 2e-4: everything at or past it waits ("c"
    # itself included — an equal timestamp from rank 0 would have to
    # sort before it).
    assert fold.advance() == 1
    assert fold.records_folded == 1
    assert fold.buffered_records() == 2
    texts = {d.text for d in drawables(fold)}
    assert texts == {"a"}

    # Rank 1 advances: "c" is released; "b" still sits at rank 0's own
    # frontier.  Finishing both ranks lifts the watermark entirely.
    fold.add_records(1, [BareEvent(9e-4, 1, 9, "d")])
    assert fold.advance() == 1
    assert {d.text for d in drawables(fold)} == {"a", "c"}
    fold.mark_rank_finished(0)
    fold.mark_rank_finished(1)
    assert fold.advance() == 2
    assert {d.text for d in drawables(fold)} == {"a", "b", "c", "d"}


def test_record_exactly_at_watermark_is_held():
    fold = LiveFold()
    fold.add_definitions([TICK])
    # Both ranks' frontiers are exactly 3e-4; rank 1 might still emit a
    # record at 3e-4 which must sort *before* rank 2's by (t, rank).
    fold.add_records(2, [BareEvent(3e-4, 2, 9, "boundary")])
    fold.add_records(1, [BareEvent(3e-4, 1, 9, "boundary too")])
    assert fold.advance() == 0
    assert fold.buffered_records() == 2


def test_finished_rank_no_longer_gates_the_watermark():
    fold = LiveFold()
    fold.add_definitions([TICK])
    fold.add_records(0, [BareEvent(1e-4, 0, 9, "a")])
    fold.add_records(1, [BareEvent(8e-4, 1, 9, "z")])
    assert fold.advance() == 0  # rank 0's frontier (1e-4) gates rank 1
    fold.mark_rank_finished(0)
    # Only rank 1 is live now: its 8e-4 frontier releases rank 0's
    # record, while its own frontier record still waits.
    assert fold.advance() == 1
    fold.mark_rank_finished(1)
    assert fold.advance() == 1
    assert fold.buffered_records() == 0


def test_drain_ignores_the_watermark():
    fold = LiveFold()
    fold.add_definitions([TICK])
    fold.add_records(0, [BareEvent(1e-4, 0, 9, "a"),
                         BareEvent(7e-4, 0, 9, "b")])
    fold.add_records(1, [BareEvent(2e-4, 1, 9, "c")])
    assert fold.advance(drain=True) == 3
    assert fold.buffered_records() == 0


def test_horizon_doubles_and_preserves_folded_records():
    fold = LiveFold()
    fold.add_definitions([TICK])
    fold.add_records(0, [BareEvent(1e-4, 0, 9, "early")])
    fold.mark_rank_finished(0)
    fold.advance()
    first_span = fold.span()
    assert first_span[1] == _INITIAL_HORIZON

    # A record far beyond the horizon forces doubling rebuilds; the
    # already-folded record must survive into the new tree.
    fold.add_records(0, [BareEvent(0.42, 0, 9, "late")])
    fold.advance()
    assert fold.span()[1] >= 0.42
    assert {d.text for d in drawables(fold)} == {"early", "late"}
    assert fold.records_folded == 2


def test_late_definition_triggers_rebuild_with_full_category_table():
    fold = LiveFold()
    fold.add_definitions([TICK])
    fold.add_records(0, [BareEvent(1e-4, 0, 9, "a")])
    fold.mark_rank_finished(0)
    fold.advance()
    assert {c.name for c in fold.categories()} == {"tick", "message"}

    # The state definition arrives only with a later flush.
    fold.add_definitions([WORK])
    fold.add_records(0, [BareEvent(2e-4, 0, 1, ""),
                         BareEvent(3e-4, 0, 2, "")])
    fold.advance()
    assert {c.name for c in fold.categories()} == {
        "work", "tick", "message"}
    kinds = {type(d) for d in drawables(fold)}
    assert kinds == {State, Event}


def test_duplicate_definitions_are_deduped():
    fold = LiveFold()
    fold.add_definitions([TICK, TICK])
    fold.add_definitions([EventDef(9, "tick", "red")])
    assert len([c for c in fold.categories() if c.name == "tick"]) == 1


def test_arrows_fold_from_matched_message_halves():
    fold = LiveFold()
    fold.add_records(0, [MsgEvent(1e-4, 0, 0, 1, 5, 64)])
    fold.add_records(1, [MsgEvent(3e-4, 1, 1, 0, 5, 64)])
    fold.advance(drain=True)
    arrows = [d for d in drawables(fold) if isinstance(d, Arrow)]
    assert len(arrows) == 1
    assert (arrows[0].src_rank, arrows[0].dst_rank) == (0, 1)


def test_absorb_buffers_a_whole_follow_update():
    from repro.stream.follow import FollowUpdate

    fold = LiveFold()
    update = FollowUpdate(
        new_records={0: [BareEvent(1e-4, 0, 9, "old"),
                         BareEvent(2e-4, 0, 9, "new")]},
        new_definitions=[TICK],
        new_ranks=[0, 1],
    )
    fold.absorb(update)
    assert fold.num_ranks == 2
    assert fold.buffered_records() == 2
    fold.advance(drain=True)
    assert {d.text for d in drawables(fold)} == {"old", "new"}


def test_num_ranks_spans_to_highest_seen_rank():
    fold = LiveFold()
    assert fold.num_ranks == 0
    fold.mark_rank_seen(3)
    assert fold.num_ranks == 4
