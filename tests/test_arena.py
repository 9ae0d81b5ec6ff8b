"""Game loop, transcript format, replay verification, sweeps."""

from __future__ import annotations

import dataclasses
import gc
import json
import time
import weakref
from types import SimpleNamespace

import pytest

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
from olcp import arena
from olcp.adversaries import SzemerediStrategy
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


def test_round_without_extension_record_breaks_insertion_only_growth():
    t, _ = game("theorem2", 3, d=2)
    bare = reround(t, 4, ext=None)  # only library callers can build such a row
    assert verify_transcript(bare) == [
        "round 5: no insertion record for the visible orders; insertion-only growth broken"
    ]


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
    s = make_strategy("theorem1", 2)
    run_game(s, FirstFit())
    rep = s.level_reports()[0]
    assert arena._check_order_separation(s, rep, "level 2") == []
    scan, stack = list(rep.scan_hosts), list(rep.stack_hosts)
    scan[1] = _swap_ends(scan[1], rep.s1_points)
    stack[0] = _swap_ends(stack[0], rep.s2_points)
    bad = dataclasses.replace(rep, scan_hosts=scan, stack_hosts=stack)
    assert arena._check_order_separation(s, bad, "level 2") == [
        "level 2: chain 2 is not lowest in its keeper order",
        "level 2: top mirrored chain is not highest in keeper order 1",
    ]


def test_keeper_checks_fire_on_visible_orders():
    s = make_strategy("theorem2", 3, d=2)
    run_game(s, FirstFit())
    rep = s.level_reports()[0]
    assert arena._check_order_separation(s, rep, "level 3") == []
    stand_in = SimpleNamespace(d=2, orders=[_swap_ends(s.orders[0], rep.s1_points),
                                            _swap_ends(s.orders[1], rep.s2_points)])
    assert arena._check_order_separation(stand_in, rep, "level 3") == [
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


def test_live_relations_off_the_visible_orders_fail_the_realizer_check():
    # The live game checks once, at the end, that the visible orders realize
    # the presented poset; a single wrong round must still reach that check.
    s = make_strategy("theorem2", 3, d=2)
    place = s._place
    dropped = []

    def drop_highest_below(e):
        below, above, level, stage, ext = place(e)
        if below and not dropped:
            top = max(below, key=lambda x: len(s.poset.below(x)))
            dropped.append(top)
            below = below - {top}
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


def test_chain_index_that_ends_early_is_flagged(monkeypatch):
    """Every chain index must replay the whole recorded game; a variant
    that stops one round early is named, and the main replay is clean."""
    t, _ = game("szemeredi", 4)
    done = SzemerediStrategy.done

    def early(self):
        last = self.k == 1 and self._pending is None and len(self.poset) == len(t.rounds) - 1
        return last or done(self)

    monkeypatch.setattr(SzemerediStrategy, "done", early)
    assert verify_transcript(t) == [
        f"chain index 1 presents a different game: round {len(t.rounds)}: the game was already over"
    ]


def test_faults_of_the_main_replay_are_not_repeated_per_chain_index():
    t, _ = game("szemeredi", 3)
    cut = Transcript(t.strategy, t.w, t.d, t.partitioner, t.seed, t.rounds[:-2], t.version)
    assert verify_transcript(cut) == ["transcript ends before the game is over"]


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
