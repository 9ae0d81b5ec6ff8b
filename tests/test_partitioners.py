"""Partitioner behavior, including the scripted interactive channel."""

from __future__ import annotations

import io
import random

import pytest

from olcp import (
    ChainPartition,
    FirstFit,
    Human,
    LinearOrder,
    OlcpError,
    PartitionerView,
    Poset,
    RandomValid,
    SzemerediStrategy,
    make_partitioner,
    make_strategy,
    run_game,
)
from olcp import arena

from poset_oracles import antichain, from_pairs


def view_for(p: Poset, colors: dict[int, int], e: int, realizer=None) -> PartitionerView:
    part = ChainPartition()
    for rnd, (x, c) in enumerate(sorted(colors.items()), start=1):
        part.assign(x, c)
    return PartitionerView(p, part, e, realizer)


# ---------------------------------------------------------------------------
# the view


def test_legal_colors_are_ascending_and_correct():
    p = from_pairs(4, [(1, 4), (2, 4), (3, 4)])
    v = view_for(p, {1: 3, 2: 1, 3: 2}, 4)
    assert v.legal_colors() == [1, 2, 3]
    assert v.fresh_color() == 4


def test_fresh_color_on_empty_board():
    v = view_for(antichain(1), {}, 1)
    assert v.legal_colors() == []
    assert v.fresh_color() == 1


def test_incomparable_point_blocks_existing_colors():
    p = antichain(2)
    v = view_for(p, {1: 1}, 2)
    assert v.legal_colors() == []
    assert v.fresh_color() == 2


# ---------------------------------------------------------------------------
# first-fit and random


def test_first_fit_takes_the_lowest_legal_color():
    p = from_pairs(3, [(1, 3), (2, 3)])
    v = view_for(p, {1: 2, 2: 5}, 3)
    assert FirstFit().choose(v) == 2


def test_first_fit_opens_a_fresh_color_when_cornered():
    v = view_for(antichain(2), {1: 1}, 2)
    assert FirstFit().choose(v) == 2


def test_random_is_seed_reproducible():
    for seed in (0, 1, 99):
        a = [c for c in _random_run(seed)]
        b = [c for c in _random_run(seed)]
        assert a == b
    assert _random_run(0) != _random_run(12345) or True  # merely may differ


def _random_run(seed: int) -> list[int]:
    s = SzemerediStrategy(3)
    t, _ = run_game(s, RandomValid(seed), seed=seed)
    return [row.color for row in t.rounds]


def test_random_choices_are_always_legal():
    rng = random.Random(4)
    for _ in range(25):
        w = rng.randint(1, 4)
        s = SzemerediStrategy(w)
        _, r = run_game(s, RandomValid(rng.randint(0, 10_000)))
        assert r.violations == []


class _AgainstScan:
    """Wraps a partitioner: every round, checks the view's legal colors
    against one mask test per class."""

    def __init__(self, inner):
        self.inner, self.name, self.rounds = inner, inner.name, 0

    def choose(self, view):
        p, part, e = view.poset, view.partition, view.element
        outside = p.incomparable_mask(e)
        scan = sorted(c for c, cls in part.masks.items() if not cls & outside)
        assert view.legal_colors() == scan, f"element {e}"
        self.rounds += 1
        return self.inner.choose(view)


@pytest.mark.parametrize("name, d", [("szemeredi", None), ("theorem1", None),
                                     ("theorem2", 2), ("theorem2", 3)])
def test_legal_colors_answer_like_the_scan_on_every_round(name, d):
    for w in range(1, 9):
        for inner in (FirstFit(), RandomValid(0), RandomValid(1), RandomValid(2)):
            checked = _AgainstScan(inner)
            transcript, report = run_game(make_strategy(name, w, d=d), checked)
            assert report.ok and checked.rounds == len(transcript.rounds)


def test_a_replayed_partition_answers_like_the_scan_part_way_and_in_full():
    """A replay's partition, built with no legal colors asked, answers like
    one mask test per class after 100 of its 144 assigns and after all."""
    t, report = run_game(make_strategy("szemeredi", 12), FirstFit())
    strategy = make_strategy("szemeredi", 12)
    violations, replayed = arena._replay(strategy, t)
    assert report.ok and violations == []
    assert len(replayed.color_of) == 144

    p = strategy.poset
    part = ChainPartition()
    colored = list(replayed.color_of.items())
    for upto in (100, 144):
        for x, c in colored[len(part.color_of):upto]:
            part.assign(x, c)
        for e in p.elements:
            outside = p.incomparable_mask(e)
            scan = sorted(c for c, cls in part.masks.items() if not cls & outside)
            assert part.legal_colors(p, e) == scan, f"element {e}"


# ---------------------------------------------------------------------------
# the interactive channel, scripted


def play_scripted(inputs: str, strategy=None):
    infile, outfile = io.StringIO(inputs), io.StringIO()
    human = Human(infile, outfile)
    s = strategy if strategy is not None else SzemerediStrategy(2)
    t, r = run_game(s, human)
    return t, r, outfile.getvalue()


def test_scripted_legal_session():
    t, r, out = play_scripted("1\n1\n2\n3\n")
    assert r.ok and [row.color for row in t.rounds] == [1, 1, 2, 3]
    assert "element 1: below={} above={} incomparable={}; chains: none; color?" in out


def test_prompt_shows_relations_and_chains():
    _, _, out = play_scripted("1\n1\n2\n3\n")
    assert "element 3: below={1} above={} incomparable={2}; chains: 1:[1,2]; color?" in out


def test_illegal_color_reprompts_with_the_pair():
    t, r, out = play_scripted("1\n1\n1\n2\n3\n")
    assert "illegal: 2 and 3 would share a color but are incomparable" in out
    assert r.ok  # the re-prompted answer fixed it


def test_non_integer_input_reprompts():
    t, r, out = play_scripted("1\n1\nbanana\n2\n3\n")
    assert out.count("element 3:") == 2
    assert r.ok


def test_fresh_color_any_positive_integer_is_accepted():
    t, r, out = play_scripted("5\n5\n17\n2\n")
    assert [row.color for row in t.rounds] == [5, 5, 17, 2]
    assert r.ok


def test_closed_channel_aborts_the_game():
    with pytest.raises(OlcpError):
        play_scripted("1\n1\n")


def test_visible_orders_are_shown_to_the_human():
    from olcp import PresentedRealizerStrategy

    infile, outfile = io.StringIO("1\n2\n"), io.StringIO()
    s = PresentedRealizerStrategy(1, 2)
    run_game(s, Human(infile, outfile))
    out = outfile.getvalue()
    assert "order 0: [1]" in out
    assert "order 1: [2,1]" in out


def test_human_prompt_precedes_every_read():
    """The prompt must be flushed before the channel is read, or a piped
    session deadlocks."""

    class Tracking(io.StringIO):
        def __init__(self, text, log):
            super().__init__(text)
            self.log = log

        def readline(self, *a):
            self.log.append("read")
            return super().readline(*a)

    class TrackingOut(io.StringIO):
        def __init__(self, log):
            super().__init__()
            self.log = log

        def flush(self):
            self.log.append("flush")
            super().flush()

    log: list[str] = []
    human = Human(Tracking("1\n", log), TrackingOut(log))
    v = view_for(antichain(1), {}, 1)
    assert human.choose(v) == 1
    assert log.index("flush") < log.index("read")


# ---------------------------------------------------------------------------
# factory


def test_make_partitioner_names():
    assert make_partitioner("first-fit").name == "first-fit"
    assert make_partitioner("random", seed=3).name == "random"
    assert isinstance(make_partitioner("human", infile=io.StringIO(), outfile=io.StringIO()), Human)
    with pytest.raises(ValueError):
        make_partitioner("greedy")
