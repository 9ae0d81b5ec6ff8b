"""Rows kept as presented still answer every reader in full.

During a game each element's rows hold only its relations to older ids;
full rows come at the end from the realizer the report checks.  A reader
of an older row in the middle of a game, or after a realizer that fails
its check, brings the rows up to date itself and must see exactly the
presented poset.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from olcp import (
    FirstFit,
    HiddenRealizerStrategy,
    LinearOrder,
    Poset,
    Transcript,
    intersect,
    make_strategy,
    run_game,
    verify_transcript,
)

from olcp import arena

from poset_oracles import relation_pairs


def brute_intersection(hosts: list[LinearOrder]) -> set[tuple[int, int]]:
    """x < y iff x precedes y in every host."""
    seqs = [h.sequence for h in hosts]
    return {(x, y) for x in seqs[0] for y in seqs[0]
            if all(s.index(x) < s.index(y) for s in seqs)}


def host_relations(strategy) -> set[tuple[int, int]]:
    """The presented relation, from the strategy's two hidden hosts alone,
    intersected."""
    return brute_intersection(strategy.orders)


class CheckingFirstFit(FirstFit):
    """First-fit that first reads the full rows of every older element."""

    def __init__(self, strategy):
        self.strategy = strategy
        self.rounds = 0

    def choose(self, view):
        rel = host_relations(self.strategy)
        p = view.poset
        for x in p.elements:
            if x == view.element:
                continue
            below = {u for u, v in rel if v == x}
            above = {v for u, v in rel if u == x}
            assert p.below(x) == below, (view.element, x)
            assert p.above(x) == above, (view.element, x)
            assert p.comparable_mask(x) == sum(1 << y for y in below | above | {x})
        self.rounds += 1
        return super().choose(view)


@pytest.mark.parametrize("name, w", [("szemeredi", 5), ("theorem1", 3)])
def test_mid_game_reads_of_older_rows_stay_exact(name, w):
    strategy = make_strategy(name, w)
    partitioner = CheckingFirstFit(strategy)
    transcript, report = run_game(strategy, partitioner)
    assert report.ok
    assert partitioner.rounds == len(transcript.rounds)
    # Played through mid-game reads, the game is the plain first-fit game.
    plain, _ = run_game(make_strategy(name, w), FirstFit())
    assert transcript.serialize() == plain.serialize()
    assert relation_pairs(strategy.poset) == relation_pairs(intersect(strategy.extract_realizer().orders))


def test_failed_realizer_check_leaves_every_reader_exact(monkeypatch):
    """A tampered theorem1 transcript whose extracted realizer also fails:
    the report's readers then bring the presented rows up to date
    themselves, and name the same faults as the realizer's full rows do."""
    t, _ = run_game(make_strategy("theorem1", 3), FirstFit())
    rows = list(t.rounds)
    rows[7] = replace(rows[7], color=1)
    tampered = Transcript(t.strategy, t.w, t.d, t.partitioner, t.seed, rows, t.version)
    with_realizer = verify_transcript(tampered)
    assert "level 3: chain union repeats a color" in with_realizer
    assert "levels 3 and 2 share separator color 6" in with_realizer

    extract = HiddenRealizerStrategy.extract_realizer

    def reversed_second_order(self):
        realizer = extract(self)
        realizer.orders[1] = LinearOrder(reversed(realizer.orders[1].sequence))
        return realizer

    rows_method = Poset._rows
    completed = []

    def spy_rows(self):
        completed.append(len(self._elements) - self._fresh)
        return rows_method(self)

    build_report = arena.build_report
    replayed = []

    def keep_strategy(strategy, part, extra_violations=()):
        replayed.append(strategy)
        return build_report(strategy, part, extra_violations)

    monkeypatch.setattr(HiddenRealizerStrategy, "extract_realizer", reversed_second_order)
    monkeypatch.setattr(Poset, "_rows", spy_rows)
    monkeypatch.setattr(arena, "build_report", keep_strategy)
    failed = verify_transcript(tampered)
    assert max(completed) == len(rows)  # every row was still as presented
    [strategy] = replayed
    assert strategy.poset == intersect(extract(strategy).orders)
    assert relation_pairs(strategy.poset) == host_relations(strategy)
    failure = "extracted realizer does not realize the presented poset"
    assert failure not in with_realizer
    at = next((i for i, s in enumerate(with_realizer) if s.startswith(("presented poset has width",
                                                                        "forced-color bound"))),
              len(with_realizer))
    assert failed == with_realizer[:at] + [failure] + with_realizer[at:]
