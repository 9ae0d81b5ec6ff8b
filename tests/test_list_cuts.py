"""Repeated relation lists are cut from the text before decoding.

``Transcript.parse`` cuts out a list body whose text equals one of the
previous row's two bodies, or one of them followed by one id above its top,
or one id alone, decodes the rest of the line and puts that body's mask
back (``arena._list_spans`` finds the bodies).  The reference
is the same parse with the span finder switched off, so that every list is
decoded: on any one-token mutation of a small transcript, both give the
same rows, or the same ``TranscriptError`` message and line.
"""

from __future__ import annotations

import json
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from olcp import FirstFit, Transcript, TranscriptError, arena, make_strategy, run_game

_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+|.')
_GAMES = [run_game(make_strategy(name, w, d=d), FirstFit())[0].serialize().splitlines()
          for name, w, d in (("szemeredi", 4, None), ("theorem1", 2, None), ("theorem2", 3, 3))]
_INSERTED = ['"below"', '"above"', "\\", " ", ",", "]", "[", ":", "1", "1.0", "true", "0"]
_FIELDS = ['"below":[1],', '"below":[],', '"b\\u0065low":[1],', '"above":[1],']


def outcome(text: str):
    """The parsed rows with their kept fields, or the error and its line."""
    try:
        return [vars(r) for r in Transcript.parse(text).rounds]
    except TranscriptError as exc:
        return str(exc), exc.line


def decoding_every_list(text: str):
    with mock.patch.object(arena, "_list_spans", lambda raw: None):
        return outcome(text)


def previous_lists(lines: list[str], line: int) -> list[str]:
    """The ``"below":[...]`` and ``"above":[...]`` fields of the line before."""
    return re.findall(r'"(?:below|above)":\[[^\]]*\],', lines[line - 1]) if line > 1 else []


def extended(lines: list[str], line: int, side: str, j: int, pick: int) -> str:
    """A list body for ``side`` of ``line``: a body of the line before, a
    separator and an id, or a near miss of one.  The ids are one or two
    above the body's top, its top, its first id, and the last id the line
    count allows and the one past it; the separators are ``,``, ``,0``,
    `` ,``, ``, `` and none.  A picked empty or whitespace-only body is
    first given to the line before's ``side`` list."""
    bodies = re.findall(r'"(?:below|above)":\[([^\]]*)\]', lines[line - 1]) + ["", " "]
    body = bodies[pick % len(bodies)]
    if not body.strip() and line > 1:
        lines[line - 1] = re.sub(rf'"{side}":\[[^\]]*\]', f'"{side}":[{body}]',
                                 lines[line - 1], count=1)
    ids = list(map(int, re.findall(r"\d+", body))) or [0]
    k, s = divmod(j, 6)
    x = (ids[-1] + 1, ids[-1] + 2, ids[-1], ids[0], len(lines) - 1, len(lines))[k % 6]
    return body + (",", ",", ",0", " ,", ", ", "")[s % 6] + str(x)


@settings(max_examples=500, deadline=None)
@example(0, 7, "field", 4, 0, 2)  # a second "below" field, after one the memo cuts
@example(0, 7, "field", 4, 0, 4)  # the same, its key escaped
@example(0, 7, "copy", 0, 0, 0)
@example(0, 7, "extend", 0, 0, 0)  # [1,3,5,6]: the line before's [1,3,5] and one id
@example(0, 1, "extend", 0, 0, 0)  # [,1] after an empty list
@example(0, 1, "extend", 0, 0, 3)  # [ ,1] after a whitespace-only list
@example(0, 2, "extend", 0, 12, 0)  # [1,1]: the top repeated
@example(0, 1, "extend", 0, 35, 0)  # [17]: an id at the line count
@given(st.integers(0, len(_GAMES) - 1), st.integers(1, 10**6),
       st.sampled_from(["swap", "delete", "insert", "field", "copy", "extend"]),
       st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_cutting_repeated_lists_changes_no_row_and_no_error(which, line, op, i, j, pick):
    """A token swapped, deleted or inserted, a field inserted after a comma
    (a second list field, an escaped key, a copy of the line before's
    list), a list replaced by one of the line before's, or by one of them
    with one more id or a near miss of that (``extended``): the memo gives
    what decoding every list gives."""
    lines = list(_GAMES[which])
    line = 1 + line % (len(lines) - 1)
    tokens = _TOKEN.findall(lines[line])
    if op == "copy":
        side = ("below", "above")[i % 2]
        body = re.findall(r"\[[^\]]*\]", lines[line - 1])
        if body:
            lines[line] = re.sub(rf'"{side}":\[[^\]]*\]', f'"{side}":{body[pick % len(body)]}',
                                 lines[line], count=1)
    elif op == "extend":
        side = ("below", "above")[i % 2]
        body = extended(lines, line, side, j, pick)
        lines[line] = re.sub(rf'"{side}":\[[^\]]*\]', f'"{side}":[{body}]', lines[line], count=1)
    else:
        i %= len(tokens) + (op == "insert")
        if op == "swap":
            j %= len(tokens)
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif op == "delete":
            del tokens[i]
        elif op == "insert":
            tokens.insert(i, _INSERTED[pick % len(_INSERTED)])
        else:
            commas = [k + 1 for k, token in enumerate(tokens) if token == ","]
            fields = previous_lists(lines, line) + _FIELDS
            tokens.insert(commas[i % len(commas)], fields[pick % len(fields)])
        lines[line] = "".join(tokens)
    text = "\n".join(lines) + "\n"
    assert outcome(text) == decoding_every_list(text)


@pytest.mark.parametrize("name, w, share", [("szemeredi", 36, 0.15), ("theorem1", 10, 0.25)])
def test_a_parse_decodes_a_small_share_of_its_text(monkeypatch, name, w, share):
    """Most lists of a game repeat one of the row before's or add one id to
    it: ``json.loads`` reads under 15% of a szemeredi w=36 transcript's
    characters, and under 25% of a theorem1 w=10 one's."""
    t, report = run_game(make_strategy(name, w), FirstFit())
    assert report.ok
    text = t.serialize()
    decoded = [0]
    loads = json.loads

    def counted(s, *args, **kwargs):
        decoded[0] += len(s)
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    assert Transcript.parse(text) == t
    assert decoded[0] <= share * len(text)
