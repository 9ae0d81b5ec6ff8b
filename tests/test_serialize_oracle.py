"""``Transcript.serialize`` writes exactly what ``json.dumps`` writes.

The serializer renders round lines as f-strings from a table of id texts;
``json_serialize`` below is the plain ``json.dumps`` serializer it
replaced, kept as the reference.  Both must give the same bytes on played
games and on rows tampered into values the table cannot render.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from olcp import Transcript, TranscriptError, make_partitioner, make_strategy, run_game

from test_digests import GAMES


def json_serialize(t: Transcript) -> str:
    header = {"version": t.version, "strategy": t.strategy, "w": t.w, "d": t.d,
              "partitioner": t.partitioner, "seed": t.seed}
    lines = [json.dumps(header, separators=(",", ":"))]
    for r in t.rounds:
        obj: dict = {"round": r.round, "element": r.element,
                     "below": list(r.below), "above": list(r.above)}
        if r.ext is not None:
            obj["ext"] = [[j, "BOTTOM" if a is None else a] for j, a in enumerate(r.ext)]
        obj["color"] = r.color
        obj["level"] = r.level
        obj["stage"] = r.stage
        lines.append(json.dumps(obj, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def played(name: str, w: int, d: int | None = None, partitioner: str = "first-fit",
           seed: int | None = None) -> Transcript:
    t, report = run_game(make_strategy(name, w, d=d), make_partitioner(partitioner, seed=seed),
                         seed=seed)
    assert report.ok
    return t


def with_row(t: Transcript, i: int, **fields) -> Transcript:
    rows = list(t.rounds)
    rows[i] = replace(rows[i], **fields)
    return Transcript(t.strategy, t.w, t.d, t.partitioner, t.seed, rows, t.version)


@pytest.mark.parametrize("key", GAMES)
def test_recorded_games_serialize_as_json_dumps_does(key):
    t = played(*GAMES[key])
    assert t.serialize() == json_serialize(t)
    assert Transcript.parse(t.serialize()) == t


def test_visible_order_anchors_serialize_as_json_dumps_does():
    t = played("theorem2", 5, d=3, partitioner="random", seed=1)
    anchors = {a for r in t.rounds for a in r.ext}
    assert None in anchors and 1 in anchors and len(anchors) > 2  # BOTTOM and ids
    assert t.serialize() == json_serialize(t)
    assert Transcript.parse(t.serialize()) == t


# Int-valued rows; the first group parses back, the second is one that
# ``Transcript.parse`` rejects (ids not positive, sorted and distinct).
INT_ROWS = {
    "own id": lambda r: {"below": (*r.below, r.element)},
    "id 50": lambda r: {"above": (50,)},
    "id 10**12": lambda r: {"below": (1, 10**12)},
    "empty rows": lambda r: {"below": (), "above": ()},
    "anchor 10**12": lambda r: {"ext": (10**12, None, 1)},
    "large color": lambda r: {"color": 10**15},
}
UNPARSED_INT_ROWS = {
    "negative id": lambda r: {"below": (-1, 2)},
    "negative id later": lambda r: {"above": (2, -3, 4)},
    "zero": lambda r: {"below": (0,)},
    "unsorted ids": lambda r: {"below": (3, 1, 2)},
    "1 not first": lambda r: {"below": (2, 1)},
    "repeated 1": lambda r: {"below": (1, 1)},
    "negative anchor": lambda r: {"ext": (-2, 1, None)},
}

OTHER_ROWS = {
    "True id": lambda r: {"below": (True, 2)},
    "True id later": lambda r: {"below": (2, True)},
    "False id": lambda r: {"above": (False,)},
    "1.0 id": lambda r: {"below": (1.0,)},
    "2.0 id": lambda r: {"above": (2.0, 3)},
    "ids as a list": lambda r: {"below": [1, 2]},
    "True anchor": lambda r: {"ext": (True, None, 2)},
    "1.0 anchor": lambda r: {"ext": (1.0, None, 2)},
    "bool level": lambda r: {"level": True},
    "bool stage": lambda r: {"stage": False},
    "1.0 color": lambda r: {"color": 1.0},
}


@pytest.fixture(scope="module")
def game() -> Transcript:
    return played("theorem2", 3, d=3)


@pytest.mark.parametrize("tamper", INT_ROWS)
def test_tampered_int_rows_serialize_as_json_dumps_does(game, tamper):
    for i in (0, 5, len(game.rounds) - 1):
        t = with_row(game, i, **INT_ROWS[tamper](game.rounds[i]))
        assert t.serialize() == json_serialize(t)
        assert Transcript.parse(t.serialize()) == t


@pytest.mark.parametrize("tamper", UNPARSED_INT_ROWS)
def test_unparsable_int_rows_serialize_as_json_dumps_does(game, tamper):
    for i in (0, 5, len(game.rounds) - 1):
        t = with_row(game, i, **UNPARSED_INT_ROWS[tamper](game.rounds[i]))
        assert t.serialize() == json_serialize(t)
        with pytest.raises(TranscriptError, match=f"line {i + 2}"):
            Transcript.parse(t.serialize())


@pytest.mark.parametrize("tamper", OTHER_ROWS)
def test_rows_of_other_values_serialize_as_json_dumps_does(game, tamper):
    for i in (0, 5, len(game.rounds) - 1):
        t = with_row(game, i, **OTHER_ROWS[tamper](game.rounds[i]))
        assert t.serialize() == json_serialize(t)


def test_ids_given_as_an_iterator_serialize_as_json_dumps_does(game):
    def fresh():
        return with_row(game, 5, above=iter(game.rounds[5].above))

    assert game.rounds[5].above
    assert fresh().serialize() == json_serialize(fresh())
