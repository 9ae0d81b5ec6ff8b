"""A relation list that repeats the previous row's is written and read once.

``Transcript.serialize`` reuses the text of a mask equal to one of the
previous table-path row's two masks, and ``Transcript.parse`` reuses the
mask of a list equal to one of the previous row's two lists; a list that
adds one id above the top of one of them reuses it too.  Neither may
change a byte of the text or a word of an error: ``1.0`` and ``true``
equal the id 1 in Python, yet are no ids.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from olcp import FirstFit, Transcript, TranscriptError, arena, make_strategy, run_game

from test_serialize_oracle import json_serialize


def played(name: str = "szemeredi", w: int = 36) -> Transcript:
    t, report = run_game(make_strategy(name, w), FirstFit())
    assert report.ok
    return t


def fresh_lists(t: Transcript) -> int:
    """How many lists are neither one id, nor one of the previous row's two
    lists, nor a nonempty one of them followed by one more id."""
    fresh, last = 0, ()
    for r in t.rounds:
        fresh += sum(ids not in last and len(ids) != 1 and ids[:-1] not in last
                     for ids in (r.below, r.above))
        last = (r.below, r.above)
    return fresh


def test_serialize_renders_only_lists_the_previous_row_does_not_hold(monkeypatch):
    t = played("szemeredi", 36)
    rendered = []
    digits = arena._digits
    monkeypatch.setattr(arena, "_digits", lambda mask: rendered.append(mask) or digits(mask))
    text = t.serialize()
    assert (len(rendered), fresh_lists(t), 2 * len(t.rounds)) == (70, 70, 2592)
    assert text == json_serialize(t)


def test_parse_decodes_only_lists_the_previous_row_does_not_hold(monkeypatch):
    t = played("szemeredi", 36)
    text = t.serialize()
    decoded = []
    id_list = arena._id_list
    monkeypatch.setattr(arena, "_id_list", lambda *args: decoded.append(args[1]) or id_list(*args))
    assert Transcript.parse(text) == t
    assert len(decoded) == fresh_lists(t) == 70


@pytest.mark.parametrize("change", ["same ids", "other ids"])
@pytest.mark.parametrize("side", ["below", "above"])
def test_a_tuple_row_inside_a_run_of_repeats_keeps_the_text(side, change):
    t = played("theorem1", 4)
    i = next(i for i in range(1, len(t.rounds) - 1)
             if len(getattr(t.rounds[i], side)) > 1
             and len({getattr(r, side) for r in t.rounds[i - 1:i + 2]}) == 1)
    row = t.rounds[i]
    ids = getattr(row, side)
    rows = list(t.rounds)
    rows[i] = replace(row, **{side: ids if change == "same ids" else ids[1:]})
    assert type(vars(rows[i])[side]) is tuple
    tampered = Transcript(t.strategy, t.w, t.d, t.partitioner, t.seed, rows, t.version)
    text = tampered.serialize()
    assert text == json_serialize(tampered)
    assert Transcript.parse(text) == tampered


@pytest.mark.parametrize("token", ["1.0", "true", "1e0", "1.5"])
@pytest.mark.parametrize("side", ["below", "above"])
def test_a_repeat_with_a_non_int_in_place_of_id_1_is_rejected(side, token):
    t = played("theorem1", 4)
    lines = t.serialize().splitlines()
    i = next(i for i in range(1, len(t.rounds))
             if getattr(t.rounds[i], side)[:1] == (1,)
             and getattr(t.rounds[i], side) in (t.rounds[i - 1].below, t.rounds[i - 1].above))
    line = i + 2
    ids = ",".join(map(str, getattr(t.rounds[i], side)))
    field = f'"{side}":[{ids}]'
    assert field in lines[line - 1]
    lines[line - 1] = lines[line - 1].replace(field, f'"{side}":[{token}{ids[1:]}]')
    with pytest.raises(TranscriptError) as err:
        Transcript.parse("\n".join(lines) + "\n")
    assert str(err.value) == f"line {line}: field {side!r} must be a list of ids"
    assert err.value.line == line
