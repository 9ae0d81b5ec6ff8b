"""Width from a verified two-order realizer, against the matching.

The intersection of two linear orders has as antichains exactly the
sequences that rise in one order and fall in the other, so its width is a
longest decreasing subsequence.  ``build_report`` measures a game's width
that way once the realizer check has accepted exactly two orders; with
d >= 3 accepted orders, a matching seeded from a chain cover along one of
them does, and with a realizer that failed, ``Poset.width``'s matching.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olcp import (
    FirstFit,
    HiddenRealizerStrategy,
    LinearOrder,
    Poset,
    intersect,
    make_partitioner,
    make_strategy,
    run_game,
    verify_transcript,
)
from olcp import arena
from olcp import poset as poset_module
from olcp.poset import _two_order_width


@st.composite
def permutation_pairs(draw, max_n: int = 40) -> tuple[LinearOrder, LinearOrder]:
    n = draw(st.integers(0, max_n))
    ids = list(range(1, n + 1))
    return (LinearOrder(draw(st.permutations(ids))), LinearOrder(draw(st.permutations(ids))))


@settings(max_examples=300, deadline=None)
@given(permutation_pairs())
def test_two_order_width_is_the_matching_width(orders):
    assert _two_order_width(*orders) == intersect(orders).width()


def spy_widths(monkeypatch) -> dict[str, int]:
    """Counts ``Poset.width`` calls, two-order widths, and matchings
    handed a seed; the width's own matching has none."""
    calls = {"matching": 0, "two orders": 0, "seeded": 0}
    width, two_order_width = Poset.width, poset_module._two_order_width
    max_matching = Poset._max_matching

    def spy_width(self):
        calls["matching"] += 1
        return width(self)

    def spy_max_matching(self, seed=None):
        calls["seeded"] += seed is not None
        return max_matching(self, seed)

    def spy_two_order_width(first, second):
        calls["two orders"] += 1
        return two_order_width(first, second)

    monkeypatch.setattr(Poset, "width", spy_width)
    monkeypatch.setattr(Poset, "_max_matching", spy_max_matching)
    monkeypatch.setattr(poset_module, "_two_order_width", spy_two_order_width)
    return calls


OPPONENTS = [("first-fit", None)] + [("random", s) for s in range(3)]
TWO_ORDER_GAMES = (
    [("szemeredi", w, None) for w in range(1, 9)]
    + [("theorem1", w, None) for w in range(1, 6)]
    + [("theorem2", w, 2) for w in range(1, 6)]
)


@pytest.mark.parametrize("name, w, d", TWO_ORDER_GAMES)
def test_two_order_games_report_the_matching_width(monkeypatch, name, w, d):
    calls = spy_widths(monkeypatch)
    for partitioner, seed in OPPONENTS:
        strategy = make_strategy(name, w, d=d)
        _, report = run_game(strategy, make_partitioner(partitioner, seed=seed), seed=seed)
        assert report.ok
        assert calls == {"matching": 0, "two orders": 1, "seeded": 0}
        assert report.width == strategy.poset.width() == w
        calls.update({"matching": 0, "two orders": 0})


@pytest.mark.parametrize("w, d", [(3, 3), (4, 4)])
def test_three_or_more_orders_keep_the_matching(monkeypatch, w, d):
    calls = spy_widths(monkeypatch)
    _, report = run_game(make_strategy("theorem2", w, d=d), FirstFit())
    assert report.ok and report.width == w
    assert calls == {"matching": 0, "two orders": 0, "seeded": 1}


def test_failed_realizer_keeps_the_matching_width(monkeypatch):
    """A theorem1 replay whose extracted realizer is made to fail: the
    reversed second order has width 1, the presented poset width 3."""
    t, _ = run_game(make_strategy("theorem1", 3), FirstFit())
    extract = HiddenRealizerStrategy.extract_realizer

    def reversed_second_order(self):
        realizer = extract(self)
        realizer.orders[1] = LinearOrder(reversed(realizer.orders[1].sequence))
        return realizer

    build_report = arena.build_report
    reports = []

    def keep_report(strategy, part, extra_violations=()):
        reports.append(build_report(strategy, part, extra_violations))
        return reports[-1]

    monkeypatch.setattr(HiddenRealizerStrategy, "extract_realizer", reversed_second_order)
    monkeypatch.setattr(arena, "build_report", keep_report)
    calls = spy_widths(monkeypatch)
    assert verify_transcript(t) == ["extracted realizer does not realize the presented poset"]
    [report] = reports
    assert report.width == 3
    assert calls == {"matching": 1, "two orders": 0, "seeded": 0}
