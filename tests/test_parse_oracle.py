"""``Transcript.parse`` and the verifier's row masks agree with the id-tuple
pipeline they replaced.

``parse`` checks each row's id lists and keeps them as masks, and
``_row_mask`` reads each row's masks.  ``old_id_list`` and
``old_relation_masks`` below are the pipeline that came before, kept as the
reference: ``parse`` made id tuples, and ``_relation_masks`` checked the
tuples again and built the masks from them.  On any id list, both must
raise the same ``TranscriptError`` or give equal rows and the same masks
and None marks.
"""

from __future__ import annotations

import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from olcp import FirstFit, Transcript, TranscriptError, arena, make_strategy, run_game


def old_id_list(obj: dict, key: str, line: int, size: int) -> tuple[int, ...]:
    v = obj[key]
    if not isinstance(v, list) or not set(map(type, v)) <= {int} or min(v, default=1) < 1:
        raise TranscriptError(f"field {key!r} must be a list of ids", line=line)
    if v != sorted(set(v)):
        raise TranscriptError(f"field {key!r} must be sorted and duplicate-free", line=line)
    return tuple(v)


def old_relation_masks(t: Transcript) -> tuple[list[int | None], list[int | None]]:
    below: list[int | None] = [0]
    above: list[int | None] = [0]
    for e, row in enumerate(t.rounds, start=1):
        for masks, ids in ((below, row.below), (above, row.above)):
            valid = not ids or (ids[0] >= 1 and ids[-1] < e and list(ids) == sorted(set(ids)))
            masks.append(sum(1 << x for x in ids) if valid else None)
    return below, above


def row_masks(t: Transcript) -> tuple[list[int | None], list[int | None]]:
    """Each row's ``_row_mask`` masks, in ``old_relation_masks``' shape."""
    return tuple([0] + [arena._row_mask(row.__dict__[side], e) for e, row in enumerate(t.rounds, start=1)]
                 for side in ("below", "above"))


def outcome(text: str, reference: bool):
    """The error text, or the parsed rows and their masks."""
    try:
        if reference:
            with mock.patch.object(arena, "_id_list", old_id_list):
                t = Transcript.parse(text)
            return t.rounds, old_relation_masks(t)
        t = Transcript.parse(text)
        return t.rounds, row_masks(t)
    except TranscriptError as exc:
        return str(exc)


GAME, _ = run_game(make_strategy("theorem2", 2, d=2), FirstFit())
LINES = GAME.serialize().splitlines()
ROWS = len(GAME.rounds)

numbers = st.one_of(
    st.integers(-2, ROWS + 2),  # 0, negatives, the row's own element, later ids
    st.integers(ROWS, 10**13),  # past the transcript, far past it
    st.sampled_from([True, False, 1.0, 2.0, -0.0, 10**12, 2**64]),
)
id_lists = st.one_of(
    st.lists(st.one_of(numbers, st.sampled_from(["1", None, [1]])), max_size=8),
    st.lists(numbers, max_size=8),  # unsorted, repeated
    st.lists(numbers, max_size=8).map(sorted),  # sorted, maybe repeated
    st.sets(st.integers(1, ROWS + 1), max_size=ROWS).map(sorted),  # mostly valid
    st.sets(st.one_of(st.integers(1, ROWS), st.integers(ROWS, 10**13)), max_size=6).map(sorted),
    st.sampled_from([{}, "1,2", 3, None, True]),  # not a list
)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, ROWS), st.sampled_from(["below", "above"]), id_lists)
def test_parse_and_masks_agree_with_the_id_tuple_pipeline(line, side, v):
    obj = json.loads(LINES[line])
    obj[side] = v
    lines = list(LINES)
    lines[line] = json.dumps(obj, separators=(",", ":"))
    text = "\n".join(lines) + "\n"
    got, want = outcome(text, reference=False), outcome(text, reference=True)
    assert got == want


def test_played_rows_give_the_reference_masks():
    text = GAME.serialize()
    assert outcome(text, reference=False) == outcome(text, reference=True)
    assert row_masks(GAME) == old_relation_masks(GAME)
