"""Call counts on the on-line loop's hot path, counted rather than timed.

The partitioner's legality scan tests each color with one class-mask test,
so ``ChainPartition.legal`` runs once a round (the arena's check of the
chosen color), not once per color.  Host orders grow by ``list.index`` and
a membership set, so no insertion rebuilds a ``positions()`` dict.  A root
builder acts on the last instance of its recursion list itself, so each
host's ``Builder.place_next`` runs exactly once a round, and builders
reuse the host positions they already hold, so neither count grows with
the depth of the builder recursion.  A staged game hands each round to
its current level alone: one ``place`` and one ``observe`` a round.
"""

from __future__ import annotations

import pytest

from olcp import FirstFit, make_strategy, run_game
from olcp.adversaries import _GameLevel
from olcp.builders import Builder
from olcp.poset import ChainPartition, LinearOrder


def test_szemeredi_game_keeps_legal_and_positions_off_the_per_color_path(monkeypatch):
    counts = {"legal": 0, "rebuilds": 0, "rebuilds_in_insert": 0, "place_next": 0,
              "position": 0}
    inserting = []
    legal, positions, insert_above, place_next, position = (
        ChainPartition.legal, LinearOrder.positions, LinearOrder.insert_above,
        Builder.place_next, LinearOrder.position)

    def spy_legal(self, p, e, color):
        counts["legal"] += 1
        return legal(self, p, e, color)

    def spy_positions(self):
        if self._stale:
            counts["rebuilds"] += 1
            counts["rebuilds_in_insert"] += bool(inserting)
        return positions(self)

    def spy_insert_above(self, anchor, e, hint=None):
        inserting.append(e)
        try:
            return insert_above(self, anchor, e, hint)
        finally:
            inserting.pop()

    def spy_place_next(self, e):
        counts["place_next"] += 1
        return place_next(self, e)

    def spy_position(self, x):
        counts["position"] += 1
        return position(self, x)

    monkeypatch.setattr(ChainPartition, "legal", spy_legal)
    monkeypatch.setattr(LinearOrder, "positions", spy_positions)
    monkeypatch.setattr(LinearOrder, "insert_above", spy_insert_above)
    monkeypatch.setattr(Builder, "place_next", spy_place_next)
    monkeypatch.setattr(LinearOrder, "position", spy_position)
    transcript, report = run_game(make_strategy("szemeredi", 8), FirstFit())
    assert report.ok
    assert report.colors == 36  # C(w+1, 2) classes for each later point to test
    rounds = len(transcript.rounds)
    assert counts["legal"] == rounds
    assert counts["rebuilds_in_insert"] == 0
    assert counts["rebuilds"] == 0
    roots = 2  # one per host: the scan and the stack builder
    assert counts["place_next"] == roots * rounds  # one call, on the root
    assert counts["position"] <= roots * rounds


@pytest.mark.parametrize("name, w, d", [("theorem2", 4, 3), ("theorem1", 3, None)])
def test_staged_game_hands_each_round_to_one_level(monkeypatch, name, w, d):
    counts = {"legal": 0, "rebuilds_in_insert": 0, "place": 0, "observe": 0}
    inserting = []
    legal, positions, insert_above, place, observe = (
        ChainPartition.legal, LinearOrder.positions, LinearOrder.insert_above,
        _GameLevel.place, _GameLevel.observe)

    def spy_legal(self, p, e, color):
        counts["legal"] += 1
        return legal(self, p, e, color)

    def spy_positions(self):
        counts["rebuilds_in_insert"] += bool(self._stale and inserting)
        return positions(self)

    def spy_insert_above(self, anchor, e, hint=None):
        inserting.append(e)
        try:
            return insert_above(self, anchor, e, hint)
        finally:
            inserting.pop()

    def spy_place(self, e):
        counts["place"] += 1
        return place(self, e)

    def spy_observe(self, e, color):
        counts["observe"] += 1
        return observe(self, e, color)

    monkeypatch.setattr(ChainPartition, "legal", spy_legal)
    monkeypatch.setattr(LinearOrder, "positions", spy_positions)
    monkeypatch.setattr(LinearOrder, "insert_above", spy_insert_above)
    monkeypatch.setattr(_GameLevel, "place", spy_place)
    monkeypatch.setattr(_GameLevel, "observe", spy_observe)
    transcript, report = run_game(make_strategy(name, w, d=d), FirstFit())
    assert report.ok
    rounds = len(transcript.rounds)
    assert counts == {"legal": rounds, "rebuilds_in_insert": 0, "place": rounds,
                      "observe": rounds}
