"""Core order structure: closure, width, chain covers, linear orders."""

from __future__ import annotations

import itertools
import random

import pytest

from olcp import (
    ChainPartition,
    LinearOrder,
    Poset,
    Realizer,
    RelationError,
    intersect,
    verify_chain_partition,
    verify_realizer,
)

from poset_oracles import (
    antichain,
    chain,
    check_axioms,
    dual,
    from_pairs,
    is_completely_below,
    is_completely_incomparable,
    less,
    relation_pairs,
)


def brute_width(p: Poset) -> int:
    """Largest antichain by exhaustive enumeration.  Usable up to ~12 points."""
    els = p.elements
    assert len(els) <= 12
    best = 0
    for r in range(len(els), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(els, r):
            if all(not p.comparable(a, b) for a, b in itertools.combinations(combo, 2)):
                best = r
                break
    return best


def random_poset(rng: random.Random, n: int) -> Poset:
    pairs = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < 0.3
    ]
    return from_pairs(n, pairs)


# ---------------------------------------------------------------------------
# construction and closure


def test_add_element_closes_transitively():
    p = Poset()
    a = p.add_element()
    b = p.add_element(below={a})
    c = p.add_element(below={b})
    assert less(p, a, c)
    assert relation_pairs(p) == {(a, b), (b, c), (a, c)}


def test_add_element_rejects_contradiction():
    p = Poset()
    a = p.add_element()
    b = p.add_element(below={a})
    with pytest.raises(RelationError):
        p.add_element(below={b}, above={a})


def test_add_element_rejects_unknown_ids():
    p = Poset()
    p.add_element()
    with pytest.raises(RelationError):
        p.add_element(below={9})


def test_add_element_rejects_generating_sets_that_relate_old_elements():
    """1 and 2 are incomparable, so nothing can go above 1 and below 2."""
    p = antichain(2)
    with pytest.raises(RelationError, match="^the new element would put 1 below 2, which are unrelated$"):
        p.add_element(below={1}, above={2})
    assert p == antichain(2)
    assert check_axioms(p) == []
    assert p.add_element(below={2}, above=()) == 3


def test_new_ids_continue_past_the_largest_id():
    p = from_pairs(3, [(1, 2), (2, 3)]).restrict({2, 3})
    assert p.add_element() == 4
    assert p.elements == [2, 3, 4]
    assert relation_pairs(p) == {(2, 3)}
    q = intersect([LinearOrder([5, 2]), LinearOrder([2, 5])])
    assert q.add_element(below={2}) == 6
    assert relation_pairs(q) == {(2, 6)}
    assert chain(3).restrict({1}).add_element() == 2


def test_intersect_rejects_ids_below_one():
    with pytest.raises(RelationError, match="positive integers"):
        intersect([LinearOrder([0, 1]), LinearOrder([1, 0])])


def test_from_pairs_requires_ascending_ids():
    with pytest.raises(RelationError):
        from_pairs(3, [(2, 1)])


def test_chain_and_antichain_factories():
    c = chain(4)
    assert less(c, 1, 4) and c.width() == 1
    a = antichain(4)
    assert relation_pairs(a) == set() and a.width() == 4


def test_axioms_hold_on_random_posets():
    rng = random.Random(11)
    for _ in range(40):
        p = random_poset(rng, rng.randint(1, 10))
        assert check_axioms(p) == []


def test_dual_reverses_every_relation():
    rng = random.Random(5)
    p = random_poset(rng, 8)
    d = dual(p)
    assert relation_pairs(d) == {(b, a) for a, b in relation_pairs(p)}
    assert dual(d) == p
    pytest.raises(TypeError, hash, p)  # equal by value, so unhashable


def test_restrict_keeps_induced_relations():
    p = from_pairs(5, [(1, 2), (2, 3), (4, 5)])
    q = p.restrict([1, 3, 5])
    assert q.elements == [1, 3, 5]
    assert less(q, 1, 3)
    assert not q.comparable(1, 5)


def test_completely_related_blocks():
    p = from_pairs(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    assert is_completely_below(p, {1, 2}, {3, 4})
    assert not is_completely_below(p, {1, 3}, {2, 4})
    assert is_completely_incomparable(p, {1}, {2})
    assert is_completely_incomparable(p, set(), {1, 2})  # vacuous


# ---------------------------------------------------------------------------
# width and chain covers


def test_width_matches_exhaustive_search():
    rng = random.Random(77)
    for _ in range(60):
        p = random_poset(rng, rng.randint(1, 10))
        assert p.width() == brute_width(p)


def test_min_chain_cover_is_valid_and_optimal():
    """Chain covers must partition into chains and use exactly width() colors."""
    rng = random.Random(123)
    for _ in range(60):
        p = random_poset(rng, rng.randint(1, 11))
        cover = p.min_chain_cover()
        assert verify_chain_partition(p, cover) == []
        assert cover.distinct_colors() == p.width()


def test_min_chain_cover_on_a_chain_uses_one_color():
    cover = chain(6).min_chain_cover()
    assert cover.distinct_colors() == 1


# ---------------------------------------------------------------------------
# linear orders


def test_insert_above_none_becomes_bottom():
    order = LinearOrder([1, 2])
    order.insert_above(None, 3)
    assert order.sequence == [3, 1, 2]


def test_insert_above_anchor():
    order = LinearOrder([1, 2, 3])
    order.insert_above(2, 9)
    assert order.sequence == [1, 2, 9, 3]


def test_insert_rejects_duplicates_and_unknown_anchor():
    order = LinearOrder([1])
    with pytest.raises(RelationError):
        order.insert_above(None, 1)
    with pytest.raises(RelationError):
        order.insert_above(5, 2)


def test_reorder_rewrites_a_block_and_its_positions():
    order = LinearOrder([1, 2, 3, 4])
    assert order.positions() == {1: 0, 2: 1, 3: 2, 4: 3}
    order.reorder(1, [3, 2])
    assert order.sequence == [1, 3, 2, 4]
    assert order.positions() == {1: 0, 3: 1, 2: 2, 4: 3}
    order.insert_above(3, 5)
    assert order.sequence == [1, 3, 5, 2, 4]


def test_restrict_preserves_order():
    order = LinearOrder([4, 1, 3, 2])
    assert order.restrict({3, 4}).sequence == [4, 3]


def test_is_extension_of():
    p = from_pairs(3, [(1, 2)])
    assert LinearOrder([1, 2, 3]).is_extension_of(p)
    assert LinearOrder([3, 1, 2]).is_extension_of(p)
    assert not LinearOrder([2, 1, 3]).is_extension_of(p)


def test_intersect_two_orders():
    a = LinearOrder([1, 2, 3])
    b = LinearOrder([2, 1, 3])
    p = intersect([a, b])
    assert relation_pairs(p) == {(1, 3), (2, 3)}


def test_intersect_rejects_mismatched_supports():
    with pytest.raises(RelationError):
        intersect([LinearOrder([1]), LinearOrder([1, 2])])


def test_realizer_roundtrip_on_random_posets():
    """Any poset is realized by enough of its linear extensions."""
    rng = random.Random(3)
    for _ in range(25):
        p = random_poset(rng, rng.randint(1, 7))
        els = p.elements
        orders = []
        for perm in itertools.permutations(els):
            o = LinearOrder(perm)
            if o.is_extension_of(p):
                orders.append(o)
        r = Realizer(orders)
        assert verify_realizer(r, p)


def test_verify_realizer_spots_a_missing_relation():
    p = from_pairs(2, [(1, 2)])
    r = Realizer([LinearOrder([1, 2]), LinearOrder([2, 1])])
    assert not verify_realizer(r, p)


# ---------------------------------------------------------------------------
# chain partitions


def test_assign_rejects_recolor_and_bad_colors():
    part = ChainPartition()
    part.assign(1, 1)
    with pytest.raises(RelationError):
        part.assign(1, 2)
    with pytest.raises(RelationError):
        part.assign(2, 0)
    for e in (-1, 0):
        for _ in range(2):  # a rejected id leaves nothing behind to trip a retry
            with pytest.raises(RelationError, match=f"element ids are positive integers, got {e}"):
                part.assign(e, 1)
    assert (part.color_of, part.masks, part.top) == ({1: 1}, {1: 2}, 1)


def test_legal_names_the_offending_pair():
    p = from_pairs(3, [(1, 2)])
    part = ChainPartition()
    part.assign(1, 1)
    part.assign(2, 1)
    ok, pair = part.legal(p, 3, 1)
    assert not ok and pair == (1, 3)
    ok, pair = part.legal(p, 3, 2)
    assert ok and pair is None


def test_distinct_colors_and_rainbow():
    part = ChainPartition()
    part.assign(1, 1)
    part.assign(2, 4)
    part.assign(3, 4)
    assert part.distinct_colors() == 2
    assert part.distinct_colors([1, 2]) == 2
    assert part.is_rainbow([1, 2])
    assert not part.is_rainbow([2, 3])


def test_verify_chain_partition_reports_broken_class():
    p = antichain(2)
    part = ChainPartition()
    part.assign(1, 3)
    part.assign(2, 3)
    problems = verify_chain_partition(p, part)
    assert len(problems) == 1 and "(1, 2)" in problems[0]


def test_verify_chain_partition_wants_every_element_colored():
    p = chain(2)
    part = ChainPartition()
    part.assign(1, 1)
    assert any("2" in s for s in verify_chain_partition(p, part))


def test_greedy_color_never_beats_width_on_chains():
    """Fuzz: first-fit style greedy coloring of a poset in presentation order
    always yields a legal partition; verify_chain_partition agrees."""
    rng = random.Random(2024)
    for _ in range(30):
        p = random_poset(rng, rng.randint(1, 10))
        part = ChainPartition()
        for rnd, e in enumerate(p.elements, start=1):
            color = 1
            while not part.legal(p, e, color)[0]:
                color += 1
            part.assign(e, color)
        assert verify_chain_partition(p, part) == []
        assert part.distinct_colors() >= p.width() // 2  # sanity, loose
