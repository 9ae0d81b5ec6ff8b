"""Rows kept as masks behave like rows built with tuples.

``run_game`` and ``Transcript.parse`` keep a row's ``below``/``above`` sets
as int masks (bit x for id x); a read gives an ascending tuple.  A played or
parsed row must compare, hash and print like a hand-built tuple row, and
``dataclasses.replace`` must never leave a stale mask behind for
``serialize`` or the verifier to read.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import pytest

from olcp import FirstFit, Transcript, TranscriptRound, make_strategy, run_game, verify_transcript


def played(name: str = "szemeredi", w: int = 3) -> Transcript:
    t, report = run_game(make_strategy(name, w), FirstFit())
    assert report.ok
    return t


def parsed(name: str = "szemeredi", w: int = 3) -> Transcript:
    return Transcript.parse(played(name, w).serialize())


def with_row(t: Transcript, i: int, row: TranscriptRound) -> Transcript:
    rows = list(t.rounds)
    rows[i] = row
    return Transcript(t.strategy, t.w, t.d, t.partitioner, t.seed, rows, t.version)


def tuple_row(r: TranscriptRound) -> TranscriptRound:
    return TranscriptRound(r.round, r.element, tuple(r.below), tuple(r.above),
                           r.color, r.level, r.stage, r.ext)


@pytest.mark.parametrize("source", [played, parsed])
@pytest.mark.parametrize("name, w", [("szemeredi", 3), ("theorem1", 2)])
def test_played_and_parsed_rows_keep_masks_and_read_as_tuples(source, name, w):
    t = source(name, w)
    for r in t.rounds:
        assert type(vars(r)["below"]) is int and type(vars(r)["above"]) is int
        assert type(r.below) is tuple and list(r.below) == sorted(set(r.below))
        assert vars(r)["below"] == sum(1 << x for x in r.below)
        assert vars(r)["above"] == sum(1 << x for x in r.above)


@pytest.mark.parametrize("source", [played, parsed])
def test_a_masked_row_equals_hashes_and_prints_as_its_tuple_row(source):
    t = source("theorem1", 3)
    assert any(r.below for r in t.rounds) and any(r.above for r in t.rounds)
    for r in t.rounds:
        hand = tuple_row(r)
        assert type(vars(hand)["below"]) is tuple
        assert r == hand and hand == r
        assert hash(r) == hash(hand)
        assert repr(r) == repr(hand)
    assert len({*t.rounds, *map(tuple_row, t.rounds)}) == len(t.rounds)


@pytest.mark.parametrize("source", [played, parsed])
@pytest.mark.parametrize("side", ["below", "above"])
def test_replace_swaps_the_mask_for_the_new_ids(source, side):
    t = source("szemeredi", 3)
    i = next(i for i, r in enumerate(t.rounds) if getattr(r, side))
    row = t.rounds[i]
    kept = getattr(row, side)
    fewer = kept[1:]

    same = replace(row, **{side: kept})
    assert same == row
    assert verify_transcript(with_row(t, i, same)) == []

    changed = replace(row, **{side: fewer})
    assert getattr(changed, side) == fewer
    assert vars(changed)[side] == fewer  # the tuple given, not the old mask
    bad = with_row(t, i, changed)
    ids = ",".join(map(str, fewer))
    assert f'"{side}":[{ids}]' in bad.serialize().splitlines()[i + 1]
    assert Transcript.parse(bad.serialize()) == bad
    assert verify_transcript(bad) == [
        f"round {row.round}: relations {side} the new element differ"]


def test_replacing_another_field_keeps_the_rows_ids():
    t = played("szemeredi", 3)
    row = t.rounds[-1]
    recolored = replace(row, color=row.color + 1)
    assert (recolored.below, recolored.above) == (row.below, row.above)
    assert with_row(t, len(t.rounds) - 1, recolored).serialize().splitlines()[-1] == (
        t.serialize().splitlines()[-1].replace(f'"color":{row.color},',
                                               f'"color":{row.color + 1},'))


@pytest.mark.parametrize("side", ["below", "above"])
def test_a_row_naming_a_huge_id_is_parsed_and_verified_as_a_tuple(side):
    """A mask for id 10**12 would take 125 GB; the row keeps its tuple."""
    t = played("szemeredi", 3)
    r = 3
    row = t.rounds[r - 1]
    huge = (*getattr(row, side), 10**12)
    text = with_row(t, r - 1, replace(row, **{side: huge})).serialize()
    tracemalloc.start()
    try:
        back = Transcript.parse(text)
        violations = verify_transcript(back)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vars(back.rounds[r - 1])[side] == huge
    assert violations == [f"round {r}: relations {side} the new element differ"]
    assert peak < 1_000_000


@pytest.mark.parametrize("ids", [(1.0,), (True,)], ids=["float", "bool"])
def test_a_hand_built_id_that_is_not_an_int_differs(ids):
    """A hand-built tuple counts as ids only when every entry is an int, as
    ``Transcript.parse`` requires: ``1.0`` and ``True`` stand for no id,
    though both equal 1, the only id below round 2's element."""
    t = played("szemeredi", 3)
    row = t.rounds[1]
    assert row.below == (1,)
    bad = with_row(t, 1, replace(row, below=ids))
    assert verify_transcript(bad) == [f"round {row.round}: relations below the new element differ"]


@pytest.mark.parametrize("side", ["below", "above"])
def test_a_hand_built_id_field_that_is_no_tuple_or_list_differs(side):
    """An iterator over the right ids is reported, not raised on."""
    t = played("szemeredi", 3)
    i = next(i for i, r in enumerate(t.rounds) if getattr(r, side))
    row = t.rounds[i]
    bad = with_row(t, i, replace(row, **{side: iter(getattr(row, side))}))
    assert verify_transcript(bad) == [f"round {row.round}: relations {side} the new element differ"]
