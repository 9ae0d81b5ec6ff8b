"""Call counts on the on-line loop's hot path, counted rather than timed.

The partitioner's legality scan tests each color with one class-mask test,
so ``ChainPartition.legal`` runs once a round (the arena's check of the
chosen color), not once per color.  Host orders grow by ``list.index`` and
a membership set, so no insertion rebuilds a ``positions()`` dict.  A root
builder hands each call straight to its active descendant, and builders
reuse the host positions they already hold, so neither count grows with
the depth of the builder recursion.
"""

from __future__ import annotations

from olcp import FirstFit, make_strategy, run_game
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
    assert counts["place_next"] <= 2 * roots * rounds  # the root, then the active leaf
    assert counts["position"] <= roots * rounds
