"""Adversary strategies: frozen small-game traces, bounds, certificates."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from olcp import (
    ChainPartition,
    FirstFit,
    HiddenRealizerStrategy,
    LinearOrder,
    Poset,
    PresentedRealizerStrategy,
    RainbowChains,
    RandomValid,
    StrategyInvariantError,
    SzemerediStrategy,
    make_strategy,
    run_game,
    szemeredi_bound,
    theorem1_level_threshold,
    theorem1_total,
    theorem2_level_threshold,
    theorem2_total,
    verify_realizer,
)
from olcp import adversaries
from olcp.adversaries import _Bank
from olcp.arena import _ExtensionWatch, build_report
from olcp.builders import BOTTOM, TOP, Builder, BuilderSpec, Region

from poset_oracles import antichain, chain, from_pairs, relation_pairs, splice


# ---------------------------------------------------------------------------
# bound formulas, pinned to hand-computed literals


def test_szemeredi_bound_literals():
    assert [szemeredi_bound(w) for w in range(1, 7)] == [1, 3, 6, 10, 15, 21]


def test_theorem1_threshold_literals():
    expected = [
        0.5857864376269049,
        2.0,
        3.550510257216822,
        5.17157287525381,
        6.83772233983162,
        8.535898384862247,
    ]
    for w, want in enumerate(expected, start=1):
        assert theorem1_level_threshold(w) == pytest.approx(want, abs=1e-12)
        assert theorem1_level_threshold(w) == pytest.approx(2 * w - math.sqrt(2 * w))


def test_theorem1_total_literals():
    expected = [
        0.5857864376269049,
        2.585786437626905,
        6.136296694843727,
        11.307869570097537,
        18.14559190992916,
        26.681490294791406,
    ]
    for w, want in enumerate(expected, start=1):
        assert theorem1_total(w) == pytest.approx(want, abs=1e-12)


def test_theorem2_threshold_literals():
    # per-level value 2w' - w'/(d-1) - (d-2)/2
    assert [theorem2_level_threshold(w, 2) for w in range(1, 7)] == [1, 2, 3, 4, 5, 6]
    assert [theorem2_level_threshold(w, 3) for w in range(1, 7)] == [
        1, 2.5, 4, 5.5, 7, 8.5,
    ]
    for w, want in zip(range(1, 7), [2 / 3, 7 / 3, 4, 17 / 3, 22 / 3, 9]):
        assert theorem2_level_threshold(w, 4) == pytest.approx(want, abs=1e-12)


def test_theorem2_total_literals():
    assert [theorem2_total(w, 2) for w in range(1, 7)] == [1, 3, 6, 10, 15, 21]
    assert [theorem2_total(w, 3) for w in range(1, 7)] == [1, 3.5, 7.5, 13, 20, 28.5]
    for w, want in zip(range(1, 7), [2 / 3, 3, 7, 38 / 3, 20, 29]):
        assert theorem2_total(w, 4) == pytest.approx(want, abs=1e-12)


def test_theorem2_total_is_the_exact_sum():
    """A float sum of the level thresholds reads 330.00000000000006 at
    w=20, d=8 and 366.00000000000006 at w=21; the exact sums are 330 and 366."""
    def exact(w, d):
        return sum(2 * i - Fraction(i, d - 1) - Fraction(d - 2, 2) for i in range(1, w + 1))

    assert theorem2_total(20, 8) == exact(20, 8) == 330
    assert theorem2_total(21, 8) == exact(21, 8) == 366
    assert all(theorem2_total(w, d) == float(exact(w, d)) for w in range(1, 60) for d in range(2, 12))


def test_a_game_forcing_exactly_an_integer_theorem2_total_meets_its_bound(monkeypatch):
    """A report whose color count equals ``theorem2_total(20, 8)`` meets
    that bound: a small game stands in, with its bound and color count set."""
    s = make_strategy("theorem2", 3, d=8)
    t, _ = run_game(s, FirstFit())
    part = ChainPartition()
    for row in t.rounds:
        part.assign(row.element, row.color)
    distinct_colors = ChainPartition.distinct_colors
    monkeypatch.setattr(ChainPartition, "distinct_colors",
                        lambda self, pts=None: 330 if pts is None else distinct_colors(self, pts))
    monkeypatch.setattr(s, "bound", lambda: theorem2_total(20, 8))
    report = build_report(s, part)
    assert (report.colors, report.bound, report.bound_met) == (330, 330, True)
    assert report.ok


def test_bound_for_dispatch():
    assert make_strategy("szemeredi", 3).bound() == 6
    assert make_strategy("theorem1", 2).bound() == pytest.approx(2.585786437626905)
    assert make_strategy("theorem2", 2, d=3).bound() == 3.5


# ---------------------------------------------------------------------------
# the two-host game, frozen against a hand simulation


def test_two_host_game_width2_first_fit_trace():
    s = SzemerediStrategy(2)
    t, r = run_game(s, FirstFit())
    assert len(s.poset) == 4
    assert [row.color for row in t.rounds] == [1, 1, 2, 3]
    assert relation_pairs(s.poset) == {(1, 2), (1, 3), (4, 2)}
    assert s.orders[0].sequence == [1, 3, 4, 2]  # the scan host
    assert s.orders[1].sequence == [4, 1, 2, 3]  # the stack host
    rb = s.rainbow()
    assert rb.chains == {2: [1, 3], 1: [4]}
    assert r.width == 2 and r.colors == 3 and r.bound == 3
    assert r.ok and r.violations == []


def test_two_host_game_width1():
    s = SzemerediStrategy(1)
    t, r = run_game(s, FirstFit())
    assert len(s.poset) == 1 and r.colors == 1 and r.ok


def test_two_host_game_k_validation():
    with pytest.raises(ValueError):
        SzemerediStrategy(3, k=4)
    with pytest.raises(ValueError):
        SzemerediStrategy(0)


def test_same_poset_for_every_chain_index():
    """The presented game may not depend on which chain the hosts chase."""
    for w in (2, 3, 4):
        runs = []
        for k in range(1, w + 1):
            s = SzemerediStrategy(w, k)
            t, _ = run_game(s, FirstFit())
            runs.append([(row.element, row.below, row.above) for row in t.rounds])
        assert all(r == runs[0] for r in runs[1:])


def test_certificate_union_is_rainbow_and_sized():
    for w in (2, 3, 4, 5):
        s = SzemerediStrategy(w)
        t, r = run_game(s, FirstFit())
        rb = s.rainbow()
        union = [x for chain in rb.chains.values() for x in chain]
        assert len(union) == w * (w + 1) // 2
        assert len({t.rounds[x - 1].color for x in union}) == len(union)


def test_rainbow_requested_mid_game_is_an_error():
    s = SzemerediStrategy(2)
    s.next_move()
    with pytest.raises(StrategyInvariantError):
        s.rainbow()


@pytest.mark.parametrize("name, d, method", [
    ("szemeredi", None, "rainbow"),
    ("szemeredi", None, "extract_realizer"),
    ("theorem1", None, "extract_realizer"),
    ("theorem2", 3, "extract_realizer"),
])
def test_certificates_requested_mid_game_are_errors(name, d, method):
    """Between rounds and with a point awaiting its color alike."""
    s = make_strategy(name, 3, d=d)
    s.next_move()
    s.observe(1)
    with pytest.raises(StrategyInvariantError, match="requested mid-game"):
        getattr(s, method)()
    s.next_move()
    with pytest.raises(StrategyInvariantError, match="requested mid-game"):
        getattr(s, method)()


def test_observe_before_move_is_an_error():
    s = SzemerediStrategy(2)
    with pytest.raises(StrategyInvariantError):
        s.observe(1)


# ---------------------------------------------------------------------------
# certificate checker rejects corrupt certificates


def test_bank_of_mixed_widths_breaks_lockstep_on_first_color():
    bank = _Bank([Builder(BuilderSpec("scan", 2, 2), Region(BOTTOM, TOP), LinearOrder()),
                  Builder(BuilderSpec("stack", 1, 1), Region(BOTTOM, TOP), LinearOrder())])
    bank.place(1)
    with pytest.raises(StrategyInvariantError, match="builders disagreed about stage transitions"):
        bank.observe(1, 1)


def _two_chain_poset() -> Poset:
    # 1 < 2 and 3 incomparable to both
    return from_pairs(3, [(1, 2)])


def _partition(colors: dict[int, int]) -> ChainPartition:
    part = ChainPartition()
    for rnd, (e, c) in enumerate(sorted(colors.items()), start=1):
        part.assign(e, c)
    return part


def test_rainbow_chains_wrong_size():
    p = _two_chain_poset()
    part = _partition({1: 1, 2: 2, 3: 3})
    rb = RainbowChains({2: [1], 1: [3]}, frozenset({1, 2, 3}))
    assert any("size" in s or "2" in s for s in rb.verify(p, part))


def test_rainbow_chains_not_a_chain():
    p = antichain(2)
    part = _partition({1: 1, 2: 2})
    rb = RainbowChains({2: [1, 2]}, frozenset({1, 2}))
    assert rb.verify(p, part)


def test_rainbow_chains_union_must_be_rainbow():
    p = _two_chain_poset()
    part = _partition({1: 1, 2: 2, 3: 1})
    rb = RainbowChains({2: [1, 2], 1: [3]}, frozenset({1, 2, 3}))
    assert any("color" in s for s in rb.verify(p, part))


def test_rainbow_chains_must_be_mutually_incomparable():
    p = chain(3)
    part = _partition({1: 1, 2: 2, 3: 3})
    rb = RainbowChains({2: [1, 2], 1: [3]}, frozenset({1, 2, 3}))
    assert any("incomparable" in s or "comparable" in s for s in rb.verify(p, part))


def test_rainbow_chains_union_downward_closed():
    # 1 < 2, both in the universe; a certificate containing 2 but not 1
    # is not downward closed within the universe
    p = from_pairs(4, [(1, 2), (3, 4)])
    part = _partition({1: 1, 2: 2, 3: 1, 4: 2})
    rb = RainbowChains({2: [3, 4], 1: [2]}, frozenset({1, 2, 3, 4}))
    assert rb.verify(p, part)


# ---------------------------------------------------------------------------
# hidden-pair staged game, frozen against a hand simulation


def test_hidden_pair_game_width1_trace():
    s = HiddenRealizerStrategy(1)
    t, r = run_game(s, FirstFit())
    assert len(s.poset) == 2
    assert [row.color for row in t.rounds] == [1, 1]
    assert relation_pairs(s.poset) == {(2, 1)}
    rep = r.levels[0]
    assert rep.t == 1 and rep.separator_colors == 1
    realizer = s.extract_realizer()
    assert [o.sequence for o in realizer.orders] == [[2, 1], [2, 1]]
    assert r.ok


def test_hidden_pair_game_width2_trace():
    s = HiddenRealizerStrategy(2)
    t, r = run_game(s, FirstFit())
    assert len(s.poset) == 10
    assert [row.color for row in t.rounds] == [1, 1, 2, 3, 1, 1, 2, 3, 4, 4]
    top = r.levels[0]
    assert (top.width, top.t, top.separator_colors) == (2, 1, 3)
    tuned_to_1 = splice(*top.hosts, set(top.low_blocks[0]))
    assert tuned_to_1[0].sequence == [7, 6, 5, 8, 4, 1, 2, 3]
    assert tuned_to_1[1].sequence == [6, 8, 7, 5, 1, 3, 4, 2]
    deeper = r.levels[1]
    assert (deeper.width, deeper.t, deeper.separator_colors) == (1, 1, 1)
    realizer = s.extract_realizer()
    assert realizer.orders[0].sequence == [7, 6, 5, 8, 4, 10, 9, 1, 2, 3]
    assert realizer.orders[1].sequence == [6, 8, 10, 9, 7, 5, 1, 3, 4, 2]
    assert verify_realizer(realizer, s.poset)
    assert r.ok


def sandwiched_levels(reports) -> list[list[int]]:
    """The two orders assembled from the level reports alone, deepest level
    first: each level's hosts spliced to its t, its separator's blocks
    around the orders of the levels below."""
    first: list[int] = []
    second: list[int] = []
    for rep in reversed(reports):
        a, b = splice(*rep.hosts, set().union(*rep.low_blocks[: rep.t]))
        s1, s2 = set(rep.s1_points), set(rep.s2_points)
        c_t, d_top = set(rep.chains[rep.t]), set(rep.dual_chains[rep.width])
        first = [*a.restrict(s2), *a.restrict(c_t), *first, *a.restrict(s1 - c_t)]
        second = [*b.restrict(s2 - d_top), *second, *b.restrict(d_top), *b.restrict(s1)]
    return [first, second]


@pytest.mark.parametrize("opponent", ["first-fit", 0, 1, 2, 3])
@pytest.mark.parametrize("w", range(1, 8))
def test_hidden_hosts_are_the_levels_sandwiched(w, opponent):
    """Each level splices its block of the hosts to its t in place, inside
    its parent's window between the separator's blocks: the extracted hosts
    are the realizer a level-by-level sandwich of the reports assembles."""
    s = HiddenRealizerStrategy(w)
    _, r = run_game(s, FirstFit() if opponent == "first-fit" else RandomValid(opponent))
    assert r.ok
    assert [o.sequence for o in s.extract_realizer().orders] == sandwiched_levels(r.levels)


def test_hidden_pair_separators_beat_strict_thresholds():
    for w in range(1, 6):
        s = HiddenRealizerStrategy(w)
        _, r = run_game(s, FirstFit())
        for rep in r.levels:
            assert rep.separator_colors > theorem1_level_threshold(rep.width)
        assert r.width == w and r.ok


# ---------------------------------------------------------------------------
# visible-orders staged game


@pytest.mark.parametrize("d", [2, 3, 4])
def test_visible_game_small_widths(d):
    for w in (1, 2, 3):
        s = PresentedRealizerStrategy(w, d)
        t, r = run_game(s, FirstFit())
        assert len(s.orders) == d
        for rep in r.levels:
            assert rep.separator_colors >= theorem2_level_threshold(rep.width, d)
        assert verify_realizer(s.extract_realizer(), s.poset)
        assert r.width == w and r.ok


def test_visible_game_threshold_equality_is_enough():
    """At two orders the separator often hits the bound exactly; the game
    must accept that rather than demand strict excess."""
    s = PresentedRealizerStrategy(2, 2)
    _, r = run_game(s, FirstFit())
    top = r.levels[0]
    assert top.separator_colors == theorem2_level_threshold(2, 2) == 2
    assert r.ok


def test_visible_game_moves_carry_extension_anchors():
    s = PresentedRealizerStrategy(2, 3)
    move = s.next_move()
    assert move.ext is not None and len(move.ext) == 3
    s.observe(1)
    snap = s.realizer_snapshot()
    assert snap is not None and len(snap) == 3
    before = [list(o) for o in snap]
    s.next_move()
    s.observe(1)
    # the snapshot was a copy, not a live view
    assert [list(o) for o in snap] == before


def test_hidden_strategies_do_not_expose_orders():
    assert SzemerediStrategy(2).realizer_snapshot() is None
    assert HiddenRealizerStrategy(2).realizer_snapshot() is None


class RealizerReader:
    """First-fit, or uniform random with a seed, that reads the realizer on
    the table every round and checks it against the strategy's orders."""

    def __init__(self, strategy, seed=None):
        self.strategy = strategy
        self.inner = FirstFit() if seed is None else RandomValid(seed)
        self.name = self.inner.name

    def choose(self, view):
        seen, orders = view.realizer, self.strategy.orders
        if self.strategy.d is None:
            assert seen is None
        else:
            assert list(seen) == orders
            assert not any(a is b for a in seen for b in orders)
        return self.inner.choose(view)


REALIZER_GAMES = [
    *[("szemeredi", w, None, k) for w in range(1, 6) for k in (None, (w + 1) // 2)],
    *[("theorem1", w, None, None) for w in range(1, 6)],
    *[("theorem2", w, d, None) for w in range(1, 6) for d in (2, 3, 4)],
]


@pytest.mark.parametrize("opponent", [None, 0, 1, 2])
@pytest.mark.parametrize("name, w, d, k", REALIZER_GAMES)
def test_every_strategy_keeps_its_realizer_in_orders(name, w, d, k, opponent):
    """One attribute holds the realizer: the partitioner sees copies of it
    exactly when ``d`` is set, and the extracted realizer copies it."""
    s = make_strategy(name, w, k=k, d=d)
    assert s.d == d
    _, r = run_game(s, RealizerReader(s, opponent))
    assert r.ok
    extracted = s.extract_realizer().orders
    assert extracted == s.orders
    assert not any(a is b for a in extracted for b in s.orders)


def test_hidden_hosts_are_not_watched():
    assert _ExtensionWatch(HiddenRealizerStrategy(3)).sizes is None


@pytest.mark.parametrize("opponent", [None, 0, 1, 2])
def test_two_visible_orders_separate_at_the_top_chain_hidden_hosts_anywhere(opponent):
    """With d = 2 the visible orders keep only chain ``width`` lowest, so every
    level separates there; two hidden hosts are spliced to any chain."""
    partitioner = FirstFit() if opponent is None else RandomValid(opponent)
    ts = []
    for w in range(1, 6):
        _, shown = run_game(PresentedRealizerStrategy(w, 2), partitioner)
        assert all(rep.t == rep.width for rep in shown.levels)
        _, hidden = run_game(HiddenRealizerStrategy(w), partitioner)
        ts += [(rep.t, rep.width) for rep in hidden.levels]
    assert all(1 <= t <= width for t, width in ts)
    assert any(t < width for t, width in ts)


def test_visible_game_dimension_validation():
    with pytest.raises(ValueError):
        PresentedRealizerStrategy(2, 1)


# ---------------------------------------------------------------------------
# factory


def test_make_strategy_dispatch():
    assert isinstance(make_strategy("szemeredi", 2), SzemerediStrategy)
    assert isinstance(make_strategy("szemeredi", 3, k=1), SzemerediStrategy)
    assert isinstance(make_strategy("theorem1", 2), HiddenRealizerStrategy)
    assert isinstance(make_strategy("theorem2", 2, d=3), PresentedRealizerStrategy)
    with pytest.raises(ValueError):
        make_strategy("nope", 2)
    with pytest.raises(ValueError):
        make_strategy("theorem2", 2)  # missing d


def test_random_play_moves_certificates_but_not_guarantees():
    rng = random.Random(6)
    for _ in range(10):
        w = rng.randint(1, 4)
        s = SzemerediStrategy(w)
        _, r = run_game(s, RandomValid(rng.randint(0, 999)))
        assert r.colors >= szemeredi_bound(w)
        assert r.violations == []


# ---------------------------------------------------------------------------
# forced first-fit counts, pinned exactly


@pytest.mark.parametrize("name, d", [("theorem1", None), ("theorem2", 2), ("theorem2", 3),
                                     ("theorem2", 4)])
def test_first_fit_is_forced_to_exact_counts(name, d):
    """First-fit ends with exactly w^2 colors on the staged games, and with
    exactly C(w+1, 2), the bound, on the two-order visible game: a change to
    what first-fit sees shows up as a count, not only as a transcript digest."""
    for w in range(1, 9):
        _, report = run_game(make_strategy(name, w, d=d), FirstFit())
        assert report.ok, (w, report.violations[:3])
        assert report.colors == (szemeredi_bound(w) if d == 2 else w * w), w


# ---------------------------------------------------------------------------
# the end-of-game checks judge the presented relations


@pytest.mark.parametrize("name, w, d, fault", [
    ("theorem1", 5, None, "level 5: hosts tuned to chain index 1 present other relations at 20"),
    ("theorem2", 5, 3, "extracted realizer does not realize the presented poset"),
    ("szemeredi", 6, None, "extracted realizer does not realize the presented poset"),
])
def test_a_relation_dropped_from_one_round_fails_the_report(monkeypatch, name, w, d, fault):
    """Relations come from masks the builders record, not from the hosts'
    sequences; if one round presented one relation too few, the report,
    which checks the hosts against the presented poset, must say so."""
    intersect_relations = adversaries._intersect_relations
    rounds = []

    def one_short_at_round_20(builders):
        below, above = intersect_relations(builders)
        rounds.append(below)
        if len(rounds) == 20:
            assert below, "round 20 has something below it to drop"
            below ^= below & -below
        return below, above

    monkeypatch.setattr(adversaries, "_intersect_relations", one_short_at_round_20)
    _, report = run_game(make_strategy(name, w, d=d), FirstFit())
    assert len(rounds) > 20
    assert not report.ok
    assert fault in report.violations
