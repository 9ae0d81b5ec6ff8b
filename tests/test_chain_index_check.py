"""A szemeredi transcript's chain indices, checked once at the end.

``verify_transcript`` checks chain indices 1..w-1 by running their builders
over the recorded points and colors and comparing their hosts' relations
with the rows once, at the end of the game.  The oracle here is the check
it replaced: one full strategy replay per chain index, compared with the
rows round by round.  Both must report the same violations, in the same
order, on played and tampered transcripts alike.
"""

from __future__ import annotations

import dataclasses

import pytest

from olcp import FirstFit, RandomValid, Transcript, make_strategy, run_game, verify_transcript
from olcp import arena
from olcp.builders import Builder
from olcp.errors import StrategyInvariantError


def verify_with_a_replay_per_chain_index(t: Transcript) -> list[str]:
    """``verify_transcript`` as it was: the main replay, then one strategy
    replay per chain index k < w, each reporting its first fault that the
    main replay did not report."""
    if len(t.rounds) < t.w * (t.w + 1) // 2:
        return ["transcript ends before the game is over"]
    rows = arena._relation_masks(t)
    strategy = make_strategy(t.strategy, t.w)
    v, part = arena._replay(strategy, t, rows)
    main = set(v)
    for k in range(1, t.w):
        vk, _ = arena._replay(make_strategy(t.strategy, t.w, k=k), t, rows)
        s = next((s for s in vk if s not in main), None)
        if s is not None:
            v.append(f"chain index {k} presents a different game: {s}")
    if not strategy.done():
        return v
    report = arena.build_report(strategy, part, extra_violations=v)
    out = list(report.violations)
    if not report.bound_met:
        out.append(f"forced-color bound not met: {report.colors} colors < {report.bound:g}")
    return out


def _with_rows(t: Transcript, rows) -> Transcript:
    return Transcript(t.strategy, t.w, t.d, t.partitioner, t.seed, rows, t.version)


def tampered(t: Transcript, every: int):
    """Copies of ``t`` with one fault each, at every ``every``-th round:
    a recolor (to color 1, to the next color, to a fresh color), a dropped
    or added relation, a wrong level, and transcripts cut short."""
    fresh = max(r.color for r in t.rounds) + 1
    for i in range(0, len(t.rounds), every):
        row = t.rounds[i]
        edits = [{"color": 1}, {"color": row.color % fresh + 1}, {"color": fresh},
                 {"level": row.level + 1}]
        for side in ("below", "above"):
            ids = getattr(row, side)
            if ids:
                edits.append({side: ids[1:]})
            absent = [x for x in range(1, row.element) if x not in ids]
            if absent:
                edits.append({side: tuple(sorted((*ids, absent[len(absent) // 2])))})
        for edit in edits:
            rows = list(t.rounds)
            rows[i] = dataclasses.replace(row, **edit)
            yield f"round {row.round} {edit}", _with_rows(t, rows)
    for cut in (1, 2, len(t.rounds) // 3):
        yield f"cut {cut}", _with_rows(t, t.rounds[:-cut])


GAMES = [(w, p) for w in range(2, 7) for p in ("first-fit", 0, 1)]


@pytest.mark.parametrize("w, opponent", GAMES)
def test_end_of_game_check_reports_what_a_replay_per_chain_index_did(w, opponent):
    partitioner = FirstFit() if opponent == "first-fit" else RandomValid(opponent)
    t, report = run_game(make_strategy("szemeredi", w), partitioner)
    assert report.ok
    assert verify_transcript(t) == verify_with_a_replay_per_chain_index(t) == []
    every = max(1, len(t.rounds) // 6)
    checked = 0
    for name, bad in tampered(t, every):
        assert verify_transcript(bad) == verify_with_a_replay_per_chain_index(bad), name
        checked += 1
    assert checked >= 15


def _misplace(k, target):
    """The stack builder of chain index k puts point ``target`` at its host's
    bottom, not where its rule says: its relations differ from there on."""
    place_next = Builder.place_next

    def place(self, e):
        if self.spec.k == k and self.spec.family == "stack" and e == target:
            self.host.insert_above(None, e)
            b = self.active()
            b._in_host_order.append(e)
            b._pending = e
            return None
        return place_next(self, e)
    return "place_next", place


def _finish(k, target, done):
    """Chain index k's builders end (or, with ``done`` False, never end)
    when they observe point ``target``."""
    observe_color = Builder.observe_color

    def observe(self, e, color):
        events = observe_color(self, e, color)
        if self.spec.k == k and e == target:
            for inst in self.instances():
                inst.done = done
        return events
    return "observe_color", observe


def _derail(k, target):
    observe_color = Builder.observe_color

    def observe(self, e, color):
        if self.spec.k == k and self.spec.family == "scan" and e == target:
            raise StrategyInvariantError("injected fault")
        return observe_color(self, e, color)
    return "observe_color", observe


W = 4


@pytest.mark.parametrize("kind, k, late", [
    ("misplace", 1, False), ("misplace", 3, True), ("early", 1, False),
    ("never done", 2, False), ("derail", 2, False), ("derail", W, False),
])
def test_injected_chain_index_faults_are_reported_as_a_replay_per_chain_index_did(
        monkeypatch, kind, k, late):
    """Builder faults injected into one chain index, or into the main
    replay's index w, give the same violations either way."""
    t, _ = run_game(make_strategy("szemeredi", W), FirstFit())
    n = len(t.rounds)
    target = n - 3 if late else n // 2
    attr, patched = {
        "misplace": lambda: _misplace(k, target),
        "early": lambda: _finish(k, n - 1, True),
        "never done": lambda: _finish(k, n, False),
        "derail": lambda: _derail(k, target),
    }[kind]()
    monkeypatch.setattr(Builder, attr, patched)
    got = verify_transcript(t)
    assert got == verify_with_a_replay_per_chain_index(t)
    assert got
    if k < W:
        assert got[0].startswith(f"chain index {k} presents a different game: ")


def test_a_color_the_main_replay_never_reached_is_checked_per_chain_index(monkeypatch):
    """The main replay derails halfway; a color recorded after that, which
    breaks a chain, is reported by the chain indices that still run."""
    s = make_strategy("szemeredi", W)
    t, _ = run_game(s, FirstFit())
    n = len(t.rounds)
    r = n - 2
    x = next(x for x in range(1, r) if not s.poset.comparable(x, r))
    rows = list(t.rounds)
    rows[r - 1] = dataclasses.replace(rows[r - 1], color=rows[x - 1].color)
    bad = _with_rows(t, rows)
    monkeypatch.setattr(Builder, *_derail(W, n // 2))
    got = verify_transcript(bad)
    assert got == verify_with_a_replay_per_chain_index(bad)
    assert any(v.startswith(f"chain index 1 presents a different game: round {r}: color ")
               for v in got)


def test_a_color_is_checked_in_a_chain_index_poset_that_differs_from_the_main_one(monkeypatch):
    """A transcript played by chain index 1 with a misplaced point, then
    recolored there: the main replay's relations differ from the rows and
    its poset takes the color, while chain index 1 presents the rows and its
    own poset rejects the color."""
    monkeypatch.setattr(Builder, *_misplace(1, 11))
    t, _ = run_game(make_strategy("szemeredi", W, k=1), FirstFit())
    rows = list(t.rounds)
    rows[10] = dataclasses.replace(rows[10], color=6)
    bad = _with_rows(t, rows)
    got = verify_transcript(bad)
    assert got == verify_with_a_replay_per_chain_index(bad)
    assert not any(v.startswith("round 11: color") for v in got)
    assert any(v.startswith("chain index 1 presents a different game: round 11: color 6 ")
               for v in got)
