"""Round lines as written are read without decoding them whole.

``Transcript.parse`` reads a line that matches the text ``serialize``
writes around its two list bodies with ``arena._canonical_row``: a body
whose text equals one of the previous row's two bodies, or one of them
followed by one id above its top, or one id alone, takes its mask
undecoded, and any other body is decoded alone.  Every other line is
decoded whole.  The reference is the same parse with ``_canonical_row``
switched off, so that every line is decoded whole: on any one-token
mutation of a small transcript, or a near miss of the written text, both
give the same rows, or the same ``TranscriptError`` message and line.
Each row is read from the lines before it alone: the same mutations, cut
after the mutated line, give the same leading rows.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from olcp import (FirstFit, Transcript, TranscriptError, arena, make_strategy, run_game,
                  verify_transcript)

_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+|.')
_GAMES = [run_game(make_strategy(name, w, d=d), FirstFit())[0].serialize().splitlines()
          for name, w, d in (("szemeredi", 4, None), ("theorem1", 2, None), ("theorem2", 3, 3))]
_INSERTED = ['"below"', '"above"', "\\", " ", ",", "]", "[", ":", "1", "1.0", "true", "0"]
_FIELDS = ['"below":[1],', '"below":[],', '"b\\u0065low":[1],', '"above":[1],']


def arabic_indic(m: re.Match) -> str:
    """Match ``m`` with its last group, a digit, written as the ARABIC-INDIC
    digit of that value: a decimal digit to ``int``, but not JSON."""
    return m[1] + chr(0x660 + int(m[2]))


# Near misses of the written text, as (pattern, replacement) for one re.sub.
_NEAR_MISSES = [
    (r'("below":\[\d+),', r'\1, '),  # "below":[1, 3]: valid JSON, not as written
    (r'"round":', '"round":0'),  # a round written 01
    (r'"color":', '"color":0'),
    (r'"stage"', r'"st\\u0061ge"'),  # an escaped key in the tail
    (r'\[0,([^\]]*)\],\[1,([^\]]*)\]', r'[1,\2],[0,\1]'),  # ext records out of order
    ('"BOTTOM"', '"bottom"'),
    (r'"stage":\d', '"stage":3'),
    ('"element":', '"element":1000000000000000'),  # an element of 17 digits or more
    ('"color":', '"ext":[[0,1],[1,1]],"color":'),  # an ext record where none or one belongs
    (r',"ext":\[.*\](?=,"color")', ''),  # no ext record
    ('"round":', '"round":1'),  # a round out of sequence
    (r'("round":\d+)(\d)', arabic_indic),  # a round's last digit not ASCII
    (r'(\[0,\d+)(\d)', arabic_indic),  # an ext anchor's last digit not ASCII
]


def outcome(text: str):
    """The parsed rows with their kept fields, or the error and its line."""
    try:
        return [vars(r) for r in Transcript.parse(text).rounds]
    except TranscriptError as exc:
        return str(exc), exc.line


def decoding_every_list(text: str):
    with mock.patch.object(arena, "_canonical_row", lambda *args: None):
        return outcome(text)


def previous_lists(lines: list[str], line: int) -> list[str]:
    """The ``"below":[...]`` and ``"above":[...]`` fields of the line before."""
    return re.findall(r'"(?:below|above)":\[[^\]]*\],', lines[line - 1]) if line > 1 else []


def extended(lines: list[str], line: int, side: str, j: int, pick: int) -> str:
    """A list body for ``side`` of ``line``: a body of the line before, a
    separator and an id, or a near miss of one.  The ids are one or two
    above the body's top, its top, its first id, the line count less one
    and the line count, and the line's round less one, the round and the
    round plus one; the separators are ``,``, ``,0``, `` ,``, ``, `` and
    none.  A picked empty or whitespace-only body is first given to the
    line before's ``side`` list."""
    bodies = re.findall(r'"(?:below|above)":\[([^\]]*)\]', lines[line - 1]) + ["", " "]
    body = bodies[pick % len(bodies)]
    if not body.strip() and line > 1:
        lines[line - 1] = re.sub(rf'"{side}":\[[^\]]*\]', f'"{side}":[{body}]',
                                 lines[line - 1], count=1)
    ids = list(map(int, re.findall(r"\d+", body))) or [0]
    k, s = divmod(j, 6)
    x = (ids[-1] + 1, ids[-1] + 2, ids[-1], ids[0], len(lines) - 1, len(lines),
         line - 1, line, line + 1)[k % 9]
    return body + (",", ",", ",0", " ,", ", ", "")[s % 6] + str(x)


def mutated(which: int, line: int, op: str, i: int, j: int, pick: int) -> tuple[list[str], int]:
    """The lines of game ``which`` with one mutation by ``op`` in round line
    ``line`` (taken modulo the rows), and that line's index."""
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
    elif op == "edit":
        pattern, replacement = _NEAR_MISSES[pick % len(_NEAR_MISSES)]
        lines[line] = re.sub(pattern, replacement, lines[line], count=1)
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
    return lines, line


corpus = given(st.integers(0, len(_GAMES) - 1), st.integers(1, 10**6),
               st.sampled_from(["swap", "delete", "insert", "field", "copy", "extend", "edit"]),
               st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))


@settings(max_examples=500, deadline=None)
@example(0, 7, "field", 4, 0, 2)  # a second "below" field, after one the memo cuts
@example(0, 7, "field", 4, 0, 4)  # the same, its key escaped
@example(0, 7, "copy", 0, 0, 0)
@example(0, 7, "extend", 0, 0, 0)  # [1,3,5,6]: the line before's [1,3,5] and one id
@example(0, 1, "extend", 0, 0, 0)  # [,1] after an empty list
@example(0, 1, "extend", 0, 0, 3)  # [ ,1] after a whitespace-only list
@example(0, 2, "extend", 0, 12, 0)  # [1,1]: the top repeated
@example(0, 1, "extend", 0, 35, 0)  # [17]: an id at the line count
@example(0, 6, "edit", 0, 0, 0)  # [1, 3,5]
@example(0, 6, "edit", 0, 0, 1)  # "round":07
@example(0, 6, "edit", 0, 0, 2)  # "color":04
@example(2, 6, "edit", 0, 0, 3)  # "st\u0061ge"
@example(2, 27, "edit", 0, 0, 4)  # [[1,26],[0,22],[2,26]]
@example(2, 28, "edit", 0, 0, 5)  # [0,"bottom"]
@example(1, 6, "edit", 0, 0, 6)  # "stage":3
@example(0, 6, "edit", 0, 0, 7)  # "element":10000000000000007
@example(1, 6, "edit", 0, 0, 8)  # "ext" in a game of hidden orders
@example(2, 6, "edit", 0, 0, 8)  # a second "ext"
@example(2, 6, "edit", 0, 0, 9)  # no "ext"
@example(0, 6, "edit", 0, 0, 10)  # "round":17
@example(0, 13, "edit", 0, 0, 11)  # "round":1\u0664, which int reads as 14
@example(2, 27, "edit", 0, 0, 12)  # [0,2\u0662] on round 28, which int reads as 22
@corpus
def test_cutting_repeated_lists_changes_no_row_and_no_error(which, line, op, i, j, pick):
    """A token swapped, deleted or inserted, a field inserted after a comma
    (a second list field, an escaped key, a copy of the line before's
    list), a list replaced by one of the line before's, or by one of them
    with one more id or a near miss of that (``extended``), or a near miss
    of the written text (``_NEAR_MISSES``): reading lines as written gives
    what decoding every line whole gives."""
    lines, _ = mutated(which, line, op, i, j, pick)
    text = "\n".join(lines) + "\n"
    assert outcome(text) == decoding_every_list(text)


@settings(max_examples=300, deadline=None)
@example(0, 7, "extend", 0, 48, 0)  # [1,3,5,9] on round 8: past the round, not past the lines
@example(0, 7, "extend", 0, 42, 0)  # [1,3,5,8] on round 8: the row's own id
@example(0, 7, "extend", 0, 36, 0)  # [1,3,5,7] on round 8: the last id a mask may hold
@example(1, 6, "extend", 1, 48, 1)  # above [1,2,3,4,5,8] on round 7 of theorem1
@example(2, 20, "extend", 0, 48, 0)  # below [...,19,22] on round 21 of theorem2
@corpus
def test_a_row_is_read_from_the_lines_before_it_alone(which, line, op, i, j, pick):
    """A mutated text that parses, cut after its mutated line, gives the
    same leading rows, masks and tuples alike: a list's form depends on its
    row's round, not on the lines after it.  A list kept as a tuple is
    judged as its mask would be: the verifier says the same of the rows
    rebuilt with id tuples."""
    lines, line = mutated(which, line, op, i, j, pick)
    try:
        t = Transcript.parse("\n".join(lines) + "\n")
    except TranscriptError:
        return
    cut = Transcript.parse("\n".join(lines[:line + 1]) + "\n")
    assert [vars(r) for r in cut.rounds] == [vars(r) for r in t.rounds[:line]]
    tuples = [replace(r, below=r.below, above=r.above) for r in t.rounds]
    assert all(type(vars(r)["below"]) is type(vars(r)["above"]) is tuple for r in tuples)
    assert verify_transcript(t) == verify_transcript(replace(t, rounds=tuples))


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
