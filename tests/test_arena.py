"""Game loop, transcript format, replay verification, sweeps."""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from olcp import (
    ChainPartition,
    FirstFit,
    GameReport,
    IllegalMoveError,
    LinearOrder,
    OlcpError,
    RandomValid,
    Transcript,
    TranscriptError,
    make_strategy,
    run_game,
    sweep,
    verify_transcript,
)
from olcp import adversaries, arena
from olcp.arena import TranscriptRound

from poset_oracles import relation_masks
from test_chain_index_check import keeper_checks_of_spliced_hosts
from test_serialize_oracle import INT_ROWS, OTHER_ROWS, UNPARSED_INT_ROWS, json_serialize


def game(name: str, w: int, d=None, seed=None):
    s = make_strategy(name, w, d=d)
    part = FirstFit() if seed is None else RandomValid(seed)
    return run_game(s, part, seed=seed)


def reround(t: Transcript, idx: int, **changes) -> Transcript:
    rows = list(t.rounds)
    rows[idx] = dataclasses.replace(rows[idx], **changes)
    return Transcript(t.strategy, t.w, t.d, t.partitioner, t.seed, rows, t.version)


# ---------------------------------------------------------------------------
# serialization


def test_roundtrip_is_field_exact():
    for name, w, d, seed in [
        ("szemeredi", 3, None, None),
        ("theorem1", 2, None, 5),
        ("theorem2", 2, 3, 0),
    ]:
        t, _ = game(name, w, d=d, seed=seed)
        assert Transcript.parse(t.serialize()) == t


def test_serialized_lines_are_compact_json():
    t, _ = game("szemeredi", 2)
    text = t.serialize()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == (
        '{"version":1,"strategy":"szemeredi","w":2,"d":null,'
        '"partitioner":"first-fit","seed":null}'
    )
    assert lines[1] == (
        '{"round":1,"element":1,"below":[],"above":[],"color":1,"level":2,"stage":1}'
    )


def test_serialized_ext_uses_bottom_marker():
    t, _ = game("theorem2", 1, d=2)
    first = json.loads(t.serialize().splitlines()[1])
    assert first["ext"] == [[0, "BOTTOM"], [1, "BOTTOM"]]


def test_parse_accepts_ext_rows_in_any_order():
    t, _ = game("theorem2", 2, d=3)
    lines = t.serialize().splitlines()
    obj = json.loads(lines[2])
    obj["ext"] = [obj["ext"][2], obj["ext"][0], obj["ext"][1]]
    lines[2] = json.dumps(obj, separators=(",", ":"))
    parsed = Transcript.parse("\n".join(lines) + "\n")
    assert parsed == t


@pytest.mark.parametrize("name, w, d", [("theorem2", 4, 3), ("szemeredi", 8, None)])
def test_played_rows_are_written_from_the_id_table(monkeypatch, name, w, d):
    """Every played row takes ``_round_line``; a row rebuilt with an id
    tuple is the one that ``json.dumps`` writes."""
    calls = []
    round_json = arena._round_json

    def spy(r):
        calls.append(r.round)
        return round_json(r)

    monkeypatch.setattr(arena, "_round_json", spy)
    t, report = game(name, w, d=d)
    assert report.ok
    t.serialize()
    assert calls == []
    reround(t, 4, below=(1, 2)).serialize()
    assert calls == [5]


@pytest.mark.parametrize("name, w, d", [("theorem2", 4, 3), ("szemeredi", 8, None)])
@pytest.mark.parametrize("extra", [5, 6, 10**4])
def test_a_kept_mask_naming_an_id_at_or_past_its_place_is_written_by_json_dumps(
        monkeypatch, name, w, d, extra):
    """Round 5's row given a kept mask that names its own id 5, the next id
    or one far past the game, or an anchor at its own id, leaves the id
    table, which holds the ids below each row's place, to ``json.dumps``."""
    calls = []
    round_json = arena._round_json
    monkeypatch.setattr(arena, "_round_json", lambda r: calls.append(r.round) or round_json(r))
    t, report = game(name, w, d=d)
    assert report.ok
    kept = vars(t.rounds[4])  # the row's masks, which dataclasses.replace would make tuples
    rows = [{"above": kept["above"] | 1 << extra}]
    if d is not None:
        rows.append({"ext": (extra, *kept["ext"][1:])})
    for i, fields in enumerate(rows, start=1):
        t.rounds[4] = TranscriptRound(**{**kept, **fields})
        assert type(vars(t.rounds[4])["below"]) is type(vars(t.rounds[4])["above"]) is int
        assert t.serialize() == json_serialize(t)
        assert calls == [5] * i


_PARSE_ERRORS = """
import json, sys
from olcp import Transcript, TranscriptError
for text in json.load(sys.stdin):
    try:
        Transcript.parse(text)
    except TranscriptError as exc:
        print(exc)
"""


def test_a_line_missing_fields_names_the_first_in_line_order():
    """The error is the same under every string hash seed."""
    t, _ = game("szemeredi", 2)
    lines = t.serialize().splitlines()
    row = json.loads(lines[1])
    for key in ("stage", "color", "level"):
        del row[key]
    texts = ["\n".join([lines[0], json.dumps(row), *lines[2:]]) + "\n", '{"version":1}\n']
    src = str(Path(arena.__file__).resolve().parents[1])
    for seed in range(6):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", _PARSE_ERRORS], input=json.dumps(texts),
                             env=env, capture_output=True, text=True, check=True).stdout
        assert out.splitlines() == ["line 2: missing field 'color'",
                                    "line 1: missing field 'strategy'"], f"PYTHONHASHSEED={seed}"


@pytest.mark.parametrize(
    "mangle, line_no, message_bit",
    [
        (lambda L: ["{oops"] + L[1:], 1, "not valid JSON"),
        (lambda L: L[:1] + ["[1,2]"] + L[2:], 2, "JSON object"),
        (lambda L: [L[0].replace('"version":1', '"version":9')] + L[1:], 1, "version"),
        (lambda L: [L[0].replace("szemeredi", "magic")] + L[1:], 1, "unknown strategy"),
        (lambda L: [L[0].replace('"d":null', '"d":2')] + L[1:], 1, "visible-order"),
        (lambda L: [L[0].replace('"partitioner":"first-fit"', '"partitioner":7')] + L[1:], 1,
         "partitioner name must be a string"),
        (lambda L: [L[0].replace('"seed":null', '"seed":"7"')] + L[1:], 1,
         "seed must be an integer or null"),
        (lambda L: L[:1] + [L[1].replace('"round":1', '"round":7')] + L[2:], 2, "out of sequence"),
        (lambda L: L[:1] + [L[1].replace('"color":1', '"color":0')] + L[2:], 2, "color"),
        (lambda L: L[:1] + [L[1].replace('"stage":1', '"stage":3')] + L[2:], 2, "stage"),
        (lambda L: L[:2] + [L[2].replace('"below":[1]', '"below":[1,1]')] + L[3:], 3, "sorted"),
        (lambda L: L[:2] + [L[2].replace('"below":[1]', '"below":"1"')] + L[3:], 3, "list of ids"),
        (lambda L: L[:1] + [L[1].replace('"level":2', '"level":true')] + L[2:], 2, "integer"),
        (lambda L: L[:1] + [L[1].replace(',"stage":1', "")] + L[2:], 2, "missing field"),
        (lambda L: L[:1] + [L[1][:-1] + ',"zap":1}'] + L[2:], 2, "unexpected field"),
        pytest.param(lambda L: L[:1] + ["[" * 100_000] + L[2:], 2, "not valid JSON",
                     id="deep-nesting"),
        pytest.param(lambda L: L[:2] + [L[2].replace('"below":[1]', '"below":[2,0]')] + L[3:],
                     3, "list of ids", id="zero-id"),
        pytest.param(lambda L: L[:2] + [L[2].replace('"below":[1]', '"below":[true]')] + L[3:],
                     3, "list of ids", id="bool-id"),
        pytest.param(lambda L: L[:2] + [L[2].replace('"below":[1]', '"below":[3,2]')] + L[3:],
                     3, "sorted", id="unsorted"),
    ],
)
def test_parse_errors_carry_line_numbers(mangle, line_no, message_bit):
    t, _ = game("szemeredi", 2)
    lines = t.serialize().splitlines()
    bad = "\n".join(mangle(lines)) + "\n"
    with pytest.raises(TranscriptError) as err:
        Transcript.parse(bad)
    assert str(err.value).startswith(f"line {line_no}:")
    assert message_bit in str(err.value)


_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+|.')
_TOO_LONG = "9" * (sys.get_int_max_str_digits() + 1)  # past what int() reads from text
_INSERTED = ["0", "1", "-1", "7", "1.5", "1e400", "null", "true", '"BOTTOM"', '"x"',
             '"below"', "[", "]", "{", "}", ",", ":", _TOO_LONG]
_MUTATED = [game(name, w, d=d)[0].serialize().splitlines()
            for name, w, d in (("szemeredi", 3, None), ("theorem1", 2, None),
                               ("theorem2", 3, 3), ("theorem2", 2, 2))]


@settings(max_examples=150, deadline=None)
@example(0, 1, "insert", 3, 0, _TOO_LONG)  # '"round":' followed by the long integer
@given(st.integers(0, len(_MUTATED) - 1), st.integers(0, 10**6),
       st.sampled_from(["swap", "delete", "insert"]), st.integers(0, 10**6),
       st.integers(0, 10**6), st.sampled_from(_INSERTED))
def test_a_one_token_mutation_parses_or_raises_a_transcript_error(which, line, op, i, j, token):
    """A token swapped with another of its line, deleted, or inserted:
    ``parse`` accepts the text or raises ``TranscriptError``, and
    ``verify_transcript`` then returns a list, never a traceback."""
    lines = list(_MUTATED[which])
    line %= len(lines)
    tokens = _TOKEN.findall(lines[line])
    i %= len(tokens) + (op == "insert")
    if op == "swap":
        j %= len(tokens)
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif op == "delete":
        del tokens[i]
    else:
        tokens.insert(i, token)
    lines[line] = "".join(tokens)
    try:
        t = Transcript.parse("\n".join(lines) + "\n")
    except TranscriptError as exc:
        assert exc.line is not None
        return
    assert isinstance(verify_transcript(t), list)


def test_parse_rejects_ext_where_it_does_not_belong():
    t, _ = game("szemeredi", 2)
    lines = t.serialize().splitlines()
    obj = json.loads(lines[1])
    obj["ext"] = [[0, "BOTTOM"]]
    lines[1] = json.dumps(obj, separators=(",", ":"))
    with pytest.raises(TranscriptError, match="visible-order"):
        Transcript.parse("\n".join(lines) + "\n")


def test_parse_requires_ext_for_visible_games():
    t, _ = game("theorem2", 1, d=2)
    lines = t.serialize().splitlines()
    obj = json.loads(lines[1])
    del obj["ext"]
    lines[1] = json.dumps(obj, separators=(",", ":"))
    with pytest.raises(TranscriptError, match="ext"):
        Transcript.parse("\n".join(lines) + "\n")


def test_parse_rejects_bad_ext_records():
    t, _ = game("theorem2", 1, d=2)
    lines = t.serialize().splitlines()

    def with_ext(value):
        obj = json.loads(lines[1])
        obj["ext"] = value
        return "\n".join([lines[0], json.dumps(obj, separators=(",", ":"))]) + "\n"

    for bad in ([[0, "BOTTOM"]], [[0, "BOTTOM"], [0, "BOTTOM"]],
                [[0, "BOTTOM"], [2, "BOTTOM"]], [[0, -3], [1, "BOTTOM"]],
                [[0, "TOP"], [1, "BOTTOM"]], [[0], [1, "BOTTOM"]]):
        with pytest.raises(TranscriptError):
            Transcript.parse(with_ext(bad))


def test_empty_text_is_rejected():
    with pytest.raises(TranscriptError, match="empty"):
        Transcript.parse("")


# ---------------------------------------------------------------------------
# the game loop


def test_report_summary_strings():
    t, r = game("szemeredi", 2)
    assert r.summary() == "4 points, 3 colors, bound 3, OK"
    failing = GameReport(
        strategy="theorem1", w=1, d=None, partitioner="first-fit", seed=None,
        points=3, colors=2, width=None, bound=2.5857864376269049,
        bound_met=False, violations=[], levels=None,
    )
    assert failing.summary() == "3 points, 2 colors, bound 2.58579, FAIL"


def test_report_colors_match_an_independent_recount():
    for name, w, d in [("szemeredi", 4, None), ("theorem1", 3, None), ("theorem2", 3, 2)]:
        t, r = game(name, w, d=d)
        assert r.colors == len({row.color for row in t.rounds})
        assert r.points == len(t.rounds)


def test_partitioner_returning_garbage_is_rejected():
    class Stub:
        name = "stub"

        def choose(self, view):
            return 0

    with pytest.raises(IllegalMoveError):
        run_game(make_strategy("szemeredi", 2), Stub())


def test_partitioner_breaking_a_chain_is_rejected_with_the_pair():
    class Stubborn:
        name = "stubborn"

        def choose(self, view):
            return 1

    with pytest.raises(IllegalMoveError, match="2 and 3 are incomparable"):
        run_game(make_strategy("szemeredi", 2), Stubborn())


# ---------------------------------------------------------------------------
# replay verification


def test_own_transcripts_verify_clean():
    for name, w, d in [("szemeredi", 4, None), ("theorem1", 3, None),
                       ("theorem2", 2, 2), ("theorem2", 2, 4)]:
        t, _ = game(name, w, d=d)
        assert verify_transcript(t) == []
        t2, _ = game(name, w, d=d, seed=11)
        assert verify_transcript(t2) == []


def test_single_recolor_yields_one_chain_violation_naming_the_pair():
    """Rewriting round 4 of the width-3 two-host game to color 1 breaks the
    class {1,2} without disturbing any stage boundary or certificate."""
    t, _ = game("szemeredi", 3)
    bad = reround(t, 3, color=1)
    assert verify_transcript(bad) == [
        "round 4: color 1 is not a chain: (2, 4) incomparable"
    ]


def test_recolor_to_another_legal_color_is_a_different_valid_game():
    """The verifier replays recorded colors; it does not second-guess the
    partitioner named in the header, so a legal recolor still passes."""
    t, _ = game("szemeredi", 2)
    fresh = reround(t, 3, color=4)  # element 4 opens its own class
    assert verify_transcript(fresh) == []


def test_recolor_that_starves_a_stage_is_reported_not_raised():
    t, _ = game("szemeredi", 2)
    bad = reround(t, 2, color=1)  # the width-2 stage never sees a 2nd color
    violations = verify_transcript(bad)
    assert any("derail" in v for v in violations)


def test_swapped_extension_anchors_break_insertion_only_growth():
    t, _ = game("theorem2", 2, d=2)
    idx = next(i for i, row in enumerate(t.rounds) if row.ext[0] != row.ext[1])
    swapped = reround(t, idx, ext=(t.rounds[idx].ext[1], t.rounds[idx].ext[0]))
    violations = verify_transcript(swapped)
    assert violations == [
        f"round {idx + 1}: recorded insertions rebuild a different order 0; "
        "insertion-only growth broken"
    ]


def test_round_without_extension_record_breaks_insertion_only_growth():
    t, _ = game("theorem2", 3, d=2)
    bare = reround(t, 4, ext=None)  # only library callers can build such a row
    assert verify_transcript(bare) == [
        "round 5: no insertion record for the visible orders; insertion-only growth broken"
    ]


@pytest.mark.parametrize("name", ["szemeredi", "theorem1"])
def test_ext_on_a_game_without_visible_orders_is_reported(name):
    """``parse`` rejects such a line; the verifier reports such a row."""
    t, _ = game(name, 2)
    bad = reround(t, 2, ext=(1,))
    assert verify_transcript(bad) == ["round 3: ext belongs only to visible-order games"]


def test_live_and_replayed_games_agree_on_bad_anchors():
    s = make_strategy("theorem2", 3, d=2)
    place = s._place

    def swapped(e):
        below, above, level, stage, ext = place(e)
        if ext[0] != ext[1]:
            ext = (ext[1], ext[0])
        return below, above, level, stage, ext

    s._place = swapped
    t, report = run_game(s, FirstFit())
    assert not report.ok
    live = [v for v in report.violations if "insertion" in v]
    replayed = [v for v in verify_transcript(t) if "insertion" in v]
    assert live[0] == replayed[0] == (
        "round 3: recorded insertions rebuild a different order 0; insertion-only growth broken"
    )


def _swap_ends(order: LinearOrder, keep) -> LinearOrder:
    """A copy of ``order`` with the lowest and highest points of ``keep`` swapped."""
    seq = order.restrict(keep).sequence
    swap = {seq[0]: seq[-1], seq[-1]: seq[0]}
    return LinearOrder(swap.get(x, x) for x in order.sequence)


def test_keeper_checks_fire_on_hidden_hosts():
    """A hidden-host level's keeper orders are read from its two hosts and
    its low blocks.  With the forcing block's ends swapped in the scan host,
    chain 2 is not lowest in the scan host tuned to it, the scan host itself.
    With the mirrored block joining the low block at chain index 2, not 1,
    the stack host tuned to chain index 1 keeps that block in scan order,
    whose top is not the top mirrored chain."""
    s = make_strategy("theorem1", 2)
    run_game(s, FirstFit())
    rep = s.level_reports()[0]
    scan, stack = rep.hosts
    assert arena._check_order_separation(s, rep, "level 2", [scan, stack]) == []
    first, second = rep.low_blocks
    late = dataclasses.replace(rep, low_blocks=[
        [x for x in first if x not in rep.s2_points], second + rep.s2_points])
    hosts = [_swap_ends(scan, rep.s1_points), stack]
    assert arena._check_order_separation(s, late, "level 2", hosts) == [
        "level 2: chain 2 is not lowest in its keeper order",
        "level 2: top mirrored chain is not highest in keeper order 1",
    ] == keeper_checks_of_spliced_hosts(late, "level 2", hosts)


def test_keeper_checks_fire_on_visible_orders():
    s = make_strategy("theorem2", 3, d=2)
    run_game(s, FirstFit())
    rep = s.level_reports()[0]
    assert arena._check_order_separation(s, rep, "level 3", []) == []
    stand_in = SimpleNamespace(d=2, orders=[_swap_ends(s.orders[0], rep.s1_points),
                                            _swap_ends(s.orders[1], rep.s2_points)])
    assert arena._check_order_separation(stand_in, rep, "level 3", []) == [
        "level 3: chain 3 is not lowest in visible order 0",
        "level 3: top mirrored chain is not highest in the last visible order",
    ]


def test_separator_that_is_not_a_chain_is_named():
    s = make_strategy("theorem1", 2)
    t, _ = run_game(s, FirstFit())
    part = ChainPartition()
    for row in t.rounds:
        part.assign(row.element, row.color)
    reports = s.level_reports()
    assert arena._check_levels(s, part, reports) == []
    pts = reports[0].s1_points
    x, y = next((a, b) for i, a in enumerate(pts) for b in pts[i + 1:]
                if not s.poset.comparable(a, b))
    reports[0].separator = [x, y]
    assert f"level 2: separator is not a chain: ({x}, {y})" in arena._check_levels(s, part, reports)


def _played_colors(t: Transcript) -> ChainPartition:
    part = ChainPartition()
    for row in t.rounds:
        part.assign(row.element, row.color)
    return part


def test_szemeredi_certificate_gap_is_named(monkeypatch):
    s = make_strategy("szemeredi", 3)
    t, report = run_game(s, FirstFit())
    assert report.ok
    certificate = s.rainbow()
    del certificate.chains[2]
    monkeypatch.setattr(s, "rainbow", lambda: certificate)
    violations = arena.build_report(s, _played_colors(t)).violations
    assert "certificate chains do not cover sizes 1..w" in violations


def test_szemeredi_tuned_chain_off_the_scan_host_bottom_is_named():
    s = make_strategy("szemeredi", 3)
    t, report = run_game(s, FirstFit())
    assert report.ok
    lowest, *rest = s.orders[0].sequence
    s.orders[0] = LinearOrder([*rest, lowest])
    violations = arena.build_report(s, _played_colors(t)).violations
    assert "tuned chain 3 is not lowest in the scan host" in violations


@pytest.mark.parametrize("name, d", [("theorem1", None), ("theorem2", 3)])
def test_level_chains_off_sizes_1_to_width_are_named(name, d):
    """A level report whose chains carry a size above its width: each
    family's cover check names it, and the other checks run on."""
    s = make_strategy(name, 3, d=d)
    t, _ = run_game(s, FirstFit())
    part = _played_colors(t)
    reports = s.level_reports()
    assert arena._check_levels(s, part, reports) == []
    rep = reports[0]
    reports[0] = dataclasses.replace(rep, chains={**rep.chains, 4: []},
                                     dual_chains={**rep.dual_chains, 4: []})
    assert arena._check_levels(s, part, reports) == [
        "level 3: forcing chains do not cover sizes 1..3",
        "level 3: mirrored chains do not cover sizes 1..3",
        "level 3: chain 4 has 0 points",
        "level 3 mirror: chain 4 has 0 points",
    ]


@pytest.mark.parametrize("field, size, message", [
    ("chains", 2, "level 3: forcing chains do not cover sizes 1..3"),
    ("dual_chains", 3, "level 3: mirrored chains do not cover sizes 1..3"),
])
@pytest.mark.parametrize("name, d", [("theorem1", None), ("theorem2", 3)])
def test_level_chains_missing_a_size_are_named_not_raised(name, d, field, size, message):
    """A level report that lacks a chain size: the cover check names it, and
    the keeper checks skip that size instead of raising KeyError."""
    s = make_strategy(name, 3, d=d)
    t, _ = run_game(s, FirstFit())
    part = _played_colors(t)
    reports = s.level_reports()
    rep = reports[0]
    kept = {k: v for k, v in getattr(rep, field).items() if k != size}
    reports[0] = dataclasses.replace(rep, **{field: kept})
    assert arena._check_levels(s, part, reports) == [message]


def test_live_relations_off_the_visible_orders_fail_the_realizer_check():
    # The live game checks once, at the end, that the visible orders realize
    # the presented poset; a single wrong round must still reach that check.
    s = make_strategy("theorem2", 3, d=2)
    place = s._place
    dropped = []

    def drop_highest_below(e):
        below, above, level, stage, ext = place(e)
        if below and not dropped:
            top = max((x for x in s.poset if below >> x & 1), key=lambda x: len(s.poset.below(x)))
            dropped.append(top)
            below ^= 1 << top  # the move's below mask loses one bit
        return below, above, level, stage, ext

    s._place = drop_highest_below
    _, report = run_game(s, FirstFit())
    assert dropped
    assert "extracted realizer does not realize the presented poset" in report.violations


def test_truncated_transcript_is_flagged():
    t, _ = game("szemeredi", 3)
    cut = Transcript(t.strategy, t.w, t.d, t.partitioner, t.seed, t.rounds[:-2], t.version)
    assert "transcript ends before the game is over" in verify_transcript(cut)


def test_extra_round_after_the_end_is_flagged():
    t, _ = game("szemeredi", 2)
    extra = TranscriptRound(5, 5, (), (), 1, 1, 1)
    long = Transcript(t.strategy, t.w, t.d, t.partitioner, t.seed,
                      t.rounds + [extra], t.version)
    assert any("already over" in v for v in verify_transcript(long))


def test_a_chain_index_whose_low_block_misses_a_point_is_flagged(monkeypatch):
    """Every chain index must present the replayed poset.  The low blocks
    come from the main replay's builder bank; with the last point of the
    width-3 instance's block left out, chain index 3 alone is tuned to
    another low block, and the first round whose relations differ from the
    poset's there is named.  The main replay is clean."""
    t, _ = run_game(make_strategy("szemeredi", 4), FirstFit())
    blocks = adversaries._Bank.blocks

    def missing(bank, w):
        *lower, last = blocks(bank, w)
        return [*lower, last[:-1]]

    monkeypatch.setattr(adversaries._Bank, "blocks", missing)
    assert verify_transcript(t) == [
        "chain index 3 presents a different game: round 10: relations above the new element differ"
    ]


def test_faults_of_the_main_replay_are_not_repeated_per_chain_index():
    t, _ = game("szemeredi", 3)
    cut = Transcript(t.strategy, t.w, t.d, t.partitioner, t.seed, t.rounds[:-2], t.version)
    assert verify_transcript(cut) == ["transcript ends before the game is over"]


@pytest.mark.parametrize("header, message", [
    ({"d": 2}, "d belongs only to visible-order games"),
    ({"w": 2.0}, "w must be an integer"),
    ({"strategy": "nope"}, "unknown strategy 'nope'"),
    ({"w": -1}, "w must be at least 1"),
])
def test_a_header_no_strategy_plays_is_one_violation(header, message):
    """A transcript built with a header ``check_strategy`` refuses, which
    ``Transcript.parse`` refuses on line 1, verifies to one violation
    naming the header rather than raising."""
    t, _ = game("theorem1", 2)
    bad = dataclasses.replace(t, **header)
    assert verify_transcript(bad) == [f"header: {message}"]
    with pytest.raises(TranscriptError) as err:
        Transcript.parse(bad.serialize())
    assert err.value.line == 1


@pytest.mark.parametrize("name, w, d", [
    ("szemeredi", 10**9, None), ("theorem1", 10**9, None),
    ("theorem2", 10**9, 2), ("theorem2", 1, 10**9),
])
def test_header_only_transcript_costs_nothing_like_its_width(name, w, d):
    """A complete game has at least w(w+1)/2 rows, so a header-only
    transcript is rejected before the replay's O(w) or O(d) setup."""
    header = {"version": 1, "strategy": name, "w": w, "d": d,
              "partitioner": "first-fit", "seed": None}
    start = time.perf_counter()
    t = Transcript.parse(json.dumps(header) + "\n")
    assert verify_transcript(t) == ["transcript ends before the game is over"]
    assert time.perf_counter() - start < 1.0


def test_wrong_relations_name_the_round():
    t, _ = game("szemeredi", 2)
    bad = reround(t, 2, below=())
    violations = verify_transcript(bad)
    assert any(v.startswith("round 3: relations below") for v in violations)


@pytest.mark.parametrize("name, w, d, idx, tamper, message", [
    ("szemeredi", 2, None, 2, lambda row: {"element": 9},
     "round 3: element 3 presented, transcript says 9"),
    ("theorem1", 2, None, 4, lambda row: {"stage": 1},
     "round 5: stage annotation 1, re-run says 2"),
    ("theorem2", 2, 3, 2, lambda row: {"ext": (99, *row.ext[1:])},
     "round 3: order 0 grew above unknown element 99; insertion-only growth broken"),
])
def test_tampered_annotations_name_the_round(name, w, d, idx, tamper, message):
    """An element id, a stage annotation or an insertion anchor (99 is not
    yet in any order) that differs from the re-run is the one violation."""
    t, _ = game(name, w, d)
    assert verify_transcript(reround(t, idx, **tamper(t.rounds[idx]))) == [message]


ENDS = "transcript ends before the game is over"


@pytest.mark.parametrize("tamper, messages", [
    (lambda row: {"ext": (*row.ext, None)},
     ["round 4: malformed insertion record (3, 3, None); insertion-only growth broken"]),
    (lambda row: {"ext": 5}, ["round 4: malformed insertion record 5; insertion-only growth broken"]),
    (lambda row: {"color": "1"}, ["round 4: color '1' is not a positive integer", ENDS]),
    (lambda row: {"color": 0}, ["round 4: color 0 is not a positive integer", ENDS]),
    (lambda row: {"color": True}, ["round 4: color True is not a positive integer", ENDS]),
    (lambda row: {"color": 1.5}, ["round 4: color 1.5 is not a positive integer", ENDS]),
    (lambda row: {"color": 2.0}, ["round 4: color 2.0 is not a positive integer", ENDS]),
])
def test_hand_built_rows_the_replay_cannot_take_name_the_round(tamper, messages):
    """A row built in memory, where the parser checks nothing: an insertion
    record with more anchors than visible orders, or none at all, ends the
    insertion watch; a color that is not an int of at least 1, as the
    parser and ``run_game`` require, stops the replay at its round, as a
    derail does, even one that equals an int, such as True or 2.0."""
    t, _ = game("theorem2", 3, 2)
    assert verify_transcript(reround(t, 3, **tamper(t.rounds[3]))) == messages


def _replayed(name: str, w: int):
    t, _ = game(name, w)
    s = make_strategy(name, w)
    v, part = arena._replay(s, t)
    assert v == []
    return s, part


ROW_MASK_GAMES = [game("szemeredi", 4)[0], game("theorem1", 3)[0], game("theorem2", 3, 3)[0]]
ROW_MASK_TAMPERS = {
    **INT_ROWS, **UNPARSED_INT_ROWS, **OTHER_ROWS,
    "kept mask with its own id": lambda r: {"below": r.__dict__["below"] | 1 << r.round},
    "kept mask past its place": lambda r: {"above": 1 << r.round + 3},
    "own ids as a list": lambda r: {"above": list(r.above)},
    "string": lambda r: {"below": "1,2"},
    "None": lambda r: {"above": None},
    "True": lambda r: {"below": True},
    "1.5": lambda r: {"above": 1.5},
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(range(len(ROW_MASK_GAMES))), st.sampled_from(sorted(ROW_MASK_TAMPERS)), st.data())
def test_row_masks_are_the_whole_transcript_pass(which, tamper, data):
    """With one row changed in memory, every row's ``_row_mask`` at its
    place is the entry that one pass over the whole transcript gives."""
    t = ROW_MASK_GAMES[which]
    i = data.draw(st.integers(0, len(t.rounds) - 1))
    assert t.rounds[i].round == i + 1
    bad = reround(t, i, **ROW_MASK_TAMPERS[tamper](t.rounds[i]))
    below, above = relation_masks(bad)
    assert [arena._row_mask(row.__dict__["below"], e) for e, row in enumerate(bad.rounds, start=1)] == below[1:]
    assert [arena._row_mask(row.__dict__["above"], e) for e, row in enumerate(bad.rounds, start=1)] == above[1:]


@pytest.mark.parametrize("doctor", [
    lambda orders: orders[1].sequence.pop(),
    lambda orders: [o.sequence.append(99) for o in orders],
])
def test_hosts_on_other_element_sets_fail_the_realizer_check(doctor):
    """A replayed szemeredi game whose stack host lost its last point, or
    whose hosts both gained a point the poset lacks: the realizer check
    fails, with no exception, and the width is the poset's own."""
    s, part = _replayed("szemeredi", 4)
    doctor(s.orders)
    report = arena.build_report(s, part)
    assert report.violations == ["extracted realizer does not realize the presented poset"]
    assert report.width == s.poset.width() == 4


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("extra", [None, 50, 10**12])
def test_relations_naming_ids_not_yet_presented_differ(side, extra):
    """A row may name an id at or above its own round (the element itself,
    a later one, or one far beyond the game); the parser accepts it, and
    the replay reports the round without building anything that large."""
    t, _ = game("szemeredi", 3)
    r = 3
    row = t.rounds[r - 1]
    ids = tuple(sorted({*getattr(row, side), r if extra is None else extra}))
    text = reround(t, r - 1, **{side: ids}).serialize()
    assert verify_transcript(Transcript.parse(text)) == [
        f"round {r}: relations {side} the new element differ"]


# ---------------------------------------------------------------------------
# finished games are freed by reference counting alone


@pytest.fixture
def no_cycle_collector():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.mark.parametrize("name, w, d", [("szemeredi", 3, None), ("theorem1", 3, None),
                                        ("theorem2", 3, 3)])
@pytest.mark.usefixtures("no_cycle_collector")
def test_played_game_is_freed_without_the_cycle_collector(name, w, d):
    s = make_strategy(name, w, d=d)
    transcript, report = run_game(s, FirstFit())
    assert report.ok
    poset = weakref.ref(s.poset)
    del s, transcript, report
    assert poset() is None


@pytest.mark.parametrize("name, w, d", [("szemeredi", 4, None), ("theorem1", 3, None),
                                        ("theorem2", 3, 3)])
def test_played_and_verified_games_leave_no_reference_cycles(name, w, d):
    """Builders, levels and posets refer only downward: once the results
    are dropped, the cycle collector finds nothing to collect."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        transcript, report = run_game(make_strategy(name, w, d=d), FirstFit())
        violations = verify_transcript(transcript)
        assert report.ok and violations == []
        del transcript, report, violations
        unreachable = gc.collect()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert unreachable == 0


@pytest.mark.parametrize("name, w, d", [("theorem1", 3, None), ("theorem2", 3, 3)])
@pytest.mark.usefixtures("no_cycle_collector")
def test_derailed_replay_is_freed_without_the_cycle_collector(name, w, d, monkeypatch):
    t, _ = game(name, w, d=d)
    half = len(t.rounds) // 2
    rows = t.rounds[:half] + [dataclasses.replace(r, color=1) for r in t.rounds[half:]]
    tampered = Transcript(t.strategy, t.w, t.d, t.partitioner, t.seed, rows, t.version)
    posets = []

    def tracked(*args, **kwargs):
        s = make_strategy(*args, **kwargs)
        posets.append(weakref.ref(s.poset))
        return s

    monkeypatch.setattr(arena, "make_strategy", tracked)
    violations = verify_transcript(tampered)
    derails = [v for v in violations if "derail" in v]
    assert derails and int(derails[0].split(":")[0].split()[1]) > half
    assert len(posets) == 1 and posets[0]() is None


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_single_config_single_row(tmp_path):
    rows = sweep(
        [{"strategy": "szemeredi", "partitioner": "first-fit", "w": 2}],
        violation_dir=tmp_path,
    )
    assert len(rows) == 1
    row = rows[0]
    assert row["strategy"] == "szemeredi" and row["partitioner"] == "first-fit"
    assert row["w"] == 2 and row["d"] is None and row["seed"] is None
    assert row["points"] == 4 and row["colors"] == 3 and row["bound"] == 3
    assert row["bound_met"] is True and row["runtime"] >= 0


def test_sweep_bounds_follow_the_formulas(tmp_path):
    rows = sweep(
        [
            {"strategy": "szemeredi", "partitioner": "first-fit", "w": w}
            for w in range(1, 5)
        ]
        + [
            {"strategy": "theorem2", "partitioner": "random", "w": 2, "d": d, "seed": 1}
            for d in (2, 3, 4)
        ],
        violation_dir=tmp_path,
    )
    assert [r["bound"] for r in rows[:4]] == [1, 3, 6, 10]
    assert [r["bound"] for r in rows[4:]] == [3, 3.5, 3]


def test_sweep_aborts_and_persists_on_violation(tmp_path, monkeypatch):
    import olcp.arena as arena_mod

    real_run_game = arena_mod.run_game

    def sabotaged(strategy, partitioner, seed=None):
        t, r = real_run_game(strategy, partitioner, seed=seed)
        r.violations.append("synthetic failure for the abort path")
        return t, r

    monkeypatch.setattr(arena_mod, "run_game", sabotaged)
    with pytest.raises(OlcpError) as err:
        sweep(
            [{"strategy": "szemeredi", "partitioner": "first-fit", "w": 2}],
            violation_dir=tmp_path,
        )
    saved = list(tmp_path.glob("violation-*.jsonl"))
    assert len(saved) == 1
    assert str(saved[0]) in str(err.value)
    Transcript.parse(saved[0].read_text())  # the persisted transcript is readable


def test_sweep_names_the_game_when_its_transcript_cannot_be_saved(tmp_path, monkeypatch):
    real_run_game = arena.run_game

    def sabotaged(strategy, partitioner, seed=None):
        t, r = real_run_game(strategy, partitioner, seed=seed)
        r.violations.append("synthetic failure for the abort path")
        return t, r

    monkeypatch.setattr(arena, "run_game", sabotaged)
    with pytest.raises(OlcpError) as err:
        sweep(
            [{"strategy": "szemeredi", "partitioner": "first-fit", "w": 2}],
            violation_dir=tmp_path / "missing",
        )
    path = tmp_path / "missing" / "violation-szemeredi-w2-first-fit.jsonl"
    assert str(err.value) == (
        "game violation-szemeredi-w2-first-fit failed verification "
        f"(synthetic failure for the abort path); cannot write its transcript to {path}: "
        "No such file or directory")
    assert not (tmp_path / "missing").exists()
