"""Game loop, transcript format, replay verification, sweeps."""

from __future__ import annotations

import dataclasses
import gc
import json
import weakref

import pytest

from olcp import (
    FirstFit,
    GameReport,
    IllegalMoveError,
    OlcpError,
    RandomValid,
    Transcript,
    TranscriptError,
    make_strategy,
    run_game,
    sweep,
    verify_transcript,
)
from olcp import arena
from olcp.arena import TranscriptRound


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


@pytest.mark.parametrize(
    "mangle, line_no, message_bit",
    [
        (lambda L: ["{oops"] + L[1:], 1, "not valid JSON"),
        (lambda L: L[:1] + ["[1,2]"] + L[2:], 2, "JSON object"),
        (lambda L: [L[0].replace('"version":1', '"version":9')] + L[1:], 1, "version"),
        (lambda L: [L[0].replace("szemeredi", "magic")] + L[1:], 1, "unknown strategy"),
        (lambda L: [L[0].replace('"d":null', '"d":2')] + L[1:], 1, "visible-order"),
        (lambda L: L[:1] + [L[1].replace('"round":1', '"round":7')] + L[2:], 2, "out of sequence"),
        (lambda L: L[:1] + [L[1].replace('"color":1', '"color":0')] + L[2:], 2, "color"),
        (lambda L: L[:1] + [L[1].replace('"stage":1', '"stage":3')] + L[2:], 2, "stage"),
        (lambda L: L[:2] + [L[2].replace('"below":[1]', '"below":[1,1]')] + L[3:], 3, "sorted"),
        (lambda L: L[:2] + [L[2].replace('"below":[1]', '"below":"1"')] + L[3:], 3, "list of ids"),
        (lambda L: L[:1] + [L[1].replace('"level":2', '"level":true')] + L[2:], 2, "integer"),
        (lambda L: L[:1] + [L[1].replace(',"stage":1', "")] + L[2:], 2, "missing field"),
        (lambda L: L[:1] + [L[1][:-1] + ',"zap":1}'] + L[2:], 2, "unexpected field"),
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
                [[0, "TOP"], [1, "BOTTOM"]]):
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


def test_wrong_relations_name_the_round():
    t, _ = game("szemeredi", 2)
    bad = reround(t, 2, below=())
    violations = verify_transcript(bad)
    assert any(v.startswith("round 3: relations below") for v in violations)


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

    def sabotaged(strategy, partitioner, seed=None, checks="full"):
        t, r = real_run_game(strategy, partitioner, seed=seed, checks=checks)
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
