"""The bitmask whole-poset checks against their brute-force definitions.

``verify_realizer``, ``LinearOrder.is_extension_of``, ``intersect`` and
``Poset.width`` work on bitmasks; the definitions below loop over pairs and
subsets the slow way, straight from the textbook statements.
"""

from __future__ import annotations

import bisect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olcp import LinearOrder, Poset, Realizer, RelationError, intersect, verify_realizer


def brute_intersection_pairs(orders: list[LinearOrder]) -> set[tuple[int, int]]:
    """x < y iff x precedes y in every order."""
    seqs = [o.sequence for o in orders]
    return {
        (x, y)
        for x in seqs[0]
        for y in seqs[0]
        if all(s.index(x) < s.index(y) for s in seqs)
    }


def brute_is_extension(order: LinearOrder, p: Poset) -> bool:
    """Same elements, and every relation of p is kept by the order."""
    seq = order.sequence
    if set(seq) != set(p.elements):
        return False
    return all(seq.index(x) < seq.index(y) for x, y in p.relation_pairs())


def brute_verify_realizer(orders: list[LinearOrder], p: Poset) -> bool:
    """Every order extends p and the orders intersect to exactly p."""
    return (all(brute_is_extension(o, p) for o in orders)
            and brute_intersection_pairs(orders) == p.relation_pairs())


def brute_width(p: Poset) -> int:
    """Largest set of pairwise incomparable elements, by trying every subset."""
    els = p.elements
    for r in range(len(els), 0, -1):
        for combo in itertools.combinations(els, r):
            if all(not p.comparable(a, b) for a, b in itertools.combinations(combo, 2)):
                return r
    return 0


def longest_decreasing(seq: list[int]) -> int:
    """Length of a longest strictly decreasing subsequence (patience sorting)."""
    tails: list[int] = []
    for x in seq:
        i = bisect.bisect_left(tails, -x)
        if i == len(tails):
            tails.append(-x)
        else:
            tails[i] = -x
    return len(tails)


@st.composite
def realizers(draw, max_n: int = 9):
    """(orders, p): d in {2, 3, 4} random orders and the poset they realize."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    d = draw(st.sampled_from([2, 3, 4]))
    orders = [LinearOrder(draw(st.permutations(range(1, n + 1)))) for _ in range(d)]
    return orders, intersect(orders)


@settings(max_examples=150, deadline=None)
@given(realizers())
def test_intersect_matches_definition(case):
    orders, p = case
    assert p.elements == sorted(orders[0].sequence)
    assert p.relation_pairs() == brute_intersection_pairs(orders)
    assert p.check_axioms() == []


@settings(max_examples=150, deadline=None)
@given(realizers(), st.data())
def test_is_extension_of_matches_definition(case, data):
    orders, p = case
    for o in orders:
        assert o.is_extension_of(p)
    shuffled = LinearOrder(data.draw(st.permutations(orders[0].sequence)))
    assert shuffled.is_extension_of(p) == brute_is_extension(shuffled, p)
    if len(p):
        assert not LinearOrder(orders[0].sequence[1:]).is_extension_of(p)


@settings(max_examples=150, deadline=None)
@given(realizers(), st.data())
def test_verify_realizer_matches_definition(case, data):
    orders, p = case
    assert verify_realizer(Realizer(orders), p)
    n = len(p)
    if n >= 2:
        # One adjacent swap in one order.
        j = data.draw(st.integers(0, len(orders) - 1))
        i = data.draw(st.integers(0, n - 2))
        seq = list(orders[j].sequence)
        seq[i], seq[i + 1] = seq[i + 1], seq[i]
        swapped = orders[:j] + [LinearOrder(seq)] + orders[j + 1:]
        assert verify_realizer(Realizer(swapped), p) == brute_verify_realizer(swapped, p)
    # Orders that each extend p but intersect to extra relations.
    twins = [orders[0], orders[0].copy()]
    assert verify_realizer(Realizer(twins), p) == brute_verify_realizer(twins, p)
    dropped = orders[:-1]
    assert verify_realizer(Realizer(dropped), p) == brute_verify_realizer(dropped, p)


@settings(max_examples=100, deadline=None)
@given(realizers(max_n=10))
def test_width_matches_definition(case):
    orders, p = case
    assert p.width() == brute_width(p)
    cover = p.min_chain_cover()
    assert cover.distinct_colors() == p.width()
    for members in cover.classes().values():
        assert all(p.comparable(a, b) for a, b in itertools.combinations(members, 2))


def test_realizer_checks_reject_mismatched_element_sets():
    p = Poset.from_pairs(3, [(1, 2)])
    with pytest.raises(RelationError):
        verify_realizer(Realizer([LinearOrder([1, 2]), LinearOrder([2, 1])]), p)
    realizer = Realizer([LinearOrder([1, 2, 3]), LinearOrder([3, 1, 2])])
    realizer.orders[1] = LinearOrder([1, 2])
    assert not verify_realizer(realizer, p)
    assert not LinearOrder([1, 2]).is_extension_of(p)
    assert not LinearOrder([1, 2, 3, 4]).is_extension_of(p)


def test_width_of_a_large_two_dimensional_order():
    """Width and chain cover stay exact where a recursive matcher would
    exceed Python's recursion limit (it did at 1500 points)."""
    n = 2000
    rng = random.Random(2000)
    a = list(range(1, n + 1))
    b = list(range(1, n + 1))
    rng.shuffle(a)
    rng.shuffle(b)
    p = intersect([LinearOrder(a), LinearOrder(b)])
    # An antichain is a subsequence of a whose b-positions fall.
    a_pos = {x: i for i, x in enumerate(a)}
    b_pos = {x: i for i, x in enumerate(b)}
    expected = longest_decreasing([b_pos[x] for x in a])
    assert p.width() == expected
    cover = p.min_chain_cover()
    assert sorted(cover.color_of) == p.elements
    assert cover.distinct_colors() == expected
    for members in cover.classes().values():
        chain = sorted(members, key=a_pos.__getitem__)
        assert all(p.less(x, y) for x, y in zip(chain, chain[1:]))
