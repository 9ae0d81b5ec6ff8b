"""The bitmask order core against brute-force definitions.

``Poset`` stores its relation as bitmasks and ``ChainPartition`` one mask
per color; ``verify_realizer``, ``LinearOrder.is_extension_of``,
``intersect``, ``Poset.width`` and the legality scan all work on them.  The
definitions below loop over pairs, subsets and plain lists the slow way,
straight from the textbook statements.
"""

from __future__ import annotations

import bisect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olcp import (
    ChainPartition,
    LinearOrder,
    PartitionerView,
    Poset,
    Realizer,
    RelationError,
    intersect,
    verify_realizer,
)

from poset_oracles import check_axioms, from_pairs, relation_pairs


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
    return all(seq.index(x) < seq.index(y) for x, y in relation_pairs(p))


def brute_verify_realizer(orders: list[LinearOrder], p: Poset) -> bool:
    """Every order extends p and the orders intersect to exactly p."""
    return (all(brute_is_extension(o, p) for o in orders)
            and brute_intersection_pairs(orders) == relation_pairs(p))


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
    assert relation_pairs(p) == brute_intersection_pairs(orders)
    assert check_axioms(p) == []


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


@settings(max_examples=150, deadline=None)
@given(realizers(), st.data())
def test_incomparable_pairs_matches_definition(case, data):
    orders, p = case
    pts = data.draw(st.lists(st.sampled_from(p.elements), unique=True) if len(p) else st.just([]))
    related = brute_intersection_pairs(orders)
    expected = [(x, y) for i, x in enumerate(pts) for y in pts[i + 1:]
                if (x, y) not in related and (y, x) not in related]
    assert list(p.incomparable_pairs(pts)) == expected


def test_realizer_checks_reject_mismatched_element_sets():
    p = from_pairs(3, [(1, 2)])
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


# ---------------------------------------------------------------------------
# element queries on every way a poset is built


def closure(n: int, pairs: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Transitive closure of a relation on 1..n, Warshall-style."""
    rel = set(pairs)
    for k in range(1, n + 1):
        rel |= {(x, y) for x, k1 in rel if k1 == k for k2, y in rel if k2 == k}
    return rel


@st.composite
def grown_posets(draw, max_n: int = 9):
    """(p, rel): a poset grown by ``add_element`` from random generating
    sets, and its relation computed independently as a set of pairs.
    Generating sets the order cannot take must raise and change nothing."""
    p = Poset()
    rel: set[tuple[int, int]] = set()
    for e in range(1, draw(st.integers(0, max_n)) + 1):
        old = list(range(1, e))
        below = draw(st.sets(st.sampled_from(old), max_size=3)) if old else set()
        above = draw(st.sets(st.sampled_from(old), max_size=3)) if old else set()
        down = below | {x for x, y in rel if y in below}
        up = above | {y for x, y in rel if x in above}
        if down & up or any((x, y) not in rel for x in down for y in up):
            with pytest.raises(RelationError):
                p.add_element(below=below, above=above)
            assert p.elements == old and relation_pairs(p) == rel
            above, up = set(), set()
        assert p.add_element(below=below, above=above) == e
        rel |= {(x, e) for x in down} | {(e, y) for y in up}
    return p, rel


@st.composite
def derived_posets(draw):
    """(p, rel) from add_element, from_pairs, dual, restrict or intersect."""
    how = draw(st.sampled_from(["add_element", "from_pairs", "dual", "restrict", "intersect"]))
    if how == "intersect":
        orders, p = draw(realizers())
        return p, brute_intersection_pairs(orders)
    if how == "from_pairs":
        n = draw(st.integers(0, 9))
        pairs = draw(st.sets(st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(n, 1)))
                             .filter(lambda xy: xy[0] < xy[1] <= n), max_size=12))
        return from_pairs(n, pairs), closure(n, pairs)
    p, rel = draw(grown_posets())
    if how == "dual":
        return p.dual(), {(y, x) for x, y in rel}
    if how == "restrict":
        keep = draw(st.sets(st.sampled_from(p.elements))) if len(p) else set()
        return p.restrict(keep), {(x, y) for x, y in rel if x in keep and y in keep}
    return p, rel


@st.composite
def sparse_posets(draw):
    """(p, rel) from restrict, dual or intersect over ids that are not 1..n."""
    how = draw(st.sampled_from(["restrict", "dual", "intersect"]))
    if how == "intersect":
        ids = draw(st.lists(st.integers(1, 40), unique=True, max_size=8))
        orders = [LinearOrder(draw(st.permutations(ids))) for _ in range(draw(st.integers(1, 3)))]
        return intersect(orders), brute_intersection_pairs(orders)
    p, rel = draw(grown_posets())
    keep = draw(st.sets(st.sampled_from(p.elements))) if len(p) else set()
    p, rel = p.restrict(keep), {(x, y) for x, y in rel if x in keep and y in keep}
    if how == "dual":
        return p.dual(), {(y, x) for x, y in rel}
    return p, rel


def assert_queries_match(p: Poset, rel: set[tuple[int, int]]) -> None:
    """Every per-element query of p against the pair relation rel."""
    els = p.elements
    assert check_axioms(p) == []
    assert relation_pairs(p) == rel
    for x in els:
        assert p.below(x) == {u for u, v in rel if v == x}
        assert p.above(x) == {v for u, v in rel if u == x}
        assert p.down_set(x) == p.below(x) | {x}
        assert p.up_set(x) == p.above(x) | {x}
        for y in els:
            assert p.less(x, y) == ((x, y) in rel)
            assert p.comparable(x, y) == (x == y or (x, y) in rel or (y, x) in rel)
            assert bool(p.comparable_mask(x) >> y & 1) == p.comparable(x, y)
        incomparable = p.incomparable_mask(x)
        assert incomparable >= 0
        assert incomparable == sum(1 << y for y in els if not p.comparable(x, y))


@settings(max_examples=200, deadline=None)
@given(derived_posets(), st.data())
def test_element_queries_match_pair_definitions(case, data):
    p, rel = case
    els = p.elements
    assert_queries_match(p, rel)
    if els:
        U = data.draw(st.lists(st.sampled_from(els), max_size=4))
        V = data.draw(st.lists(st.sampled_from(els), max_size=4))
        assert p.is_completely_below(U, V) == all((u, v) in rel for u in U for v in V)
        assert p.is_completely_incomparable(U, V) == all(
            u != v and (u, v) not in rel and (v, u) not in rel for u in U for v in V)


@settings(max_examples=200, deadline=None)
@given(sparse_posets())
def test_sparse_rows_answer_like_dense_ones(case):
    """Rows of ids that are absent hold nothing and answer nothing: every
    query of an absent id raises KeyError, and a new id goes past the top."""
    p, rel = case
    els = set(p.elements)
    assert_queries_match(p, rel)
    assert p.width() == brute_width(p)
    top = max(els, default=0)
    for x in range(-2, top + 3):
        assert (x in p) == (x in els)
        if x not in els:
            for query in (p.below, p.above, p.comparable_mask, p.incomparable_mask):
                with pytest.raises(KeyError):
                    query(x)
    assert p.add_element() == top + 1
    assert relation_pairs(p) == rel


@settings(max_examples=100, deadline=None)
@given(sparse_posets())
def test_equality_reads_elements_and_relations_not_row_lengths(case):
    p, rel = case
    padded = p.dual().dual()
    padded._below += [0, 0, 0]
    padded._above += [0, 0, 0]
    assert padded == p and p == padded
    assert (p.dual() == p) == (not rel)
    assert p.restrict(list(p)[1:]) != p or not len(p)


# ---------------------------------------------------------------------------
# the legality scan against set-based classes


def reference_legal(rel, classes: dict[int, set[int]], e: int, color: int):
    """The pre-mask rule: walk the color's class set, name the first
    member incomparable to e."""
    for x in classes.get(color, ()):
        if x != e and (x, e) not in rel and (e, x) not in rel:
            return False, (min(x, e), max(x, e))
    return True, None


@settings(max_examples=200, deadline=None)
@given(derived_posets(), st.data())
def test_legal_colors_and_legal_match_a_set_based_reference(case, data):
    p, rel = case
    els = p.elements
    if not els:
        return
    part = ChainPartition()
    classes: dict[int, set[int]] = {}  # grown in the same order as the partition's
    colored = data.draw(st.lists(st.sampled_from(els), unique=True))
    for x in colored:
        color = data.draw(st.integers(1, 6))  # any order, gaps included
        part.assign(x, color)
        classes.setdefault(color, set()).add(x)
    assert list(part.masks) == sorted(classes)
    assert part.top == max(classes, default=0)
    for e in els:
        for color in range(1, 8):
            assert part.legal(p, e, color) == reference_legal(rel, classes, e, color)
        view = PartitionerView(p, part, e)
        assert view.legal_colors() == [c for c in sorted(classes)
                                       if reference_legal(rel, classes, e, c)[0]]
        assert view.fresh_color() == max(classes, default=0) + 1


# ---------------------------------------------------------------------------
# linear orders against a plain list


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 12), unique=True, max_size=4),
       st.lists(st.tuples(st.integers(0, 14), st.integers(1, 14),
                          st.sampled_from(["none", "right", "stale", "out"]), st.integers(-20, 20)),
                max_size=20))
def test_linear_order_matches_a_plain_list(start, steps):
    """``insert_above`` with anchor id 0 standing for the bottom, and with
    no position hint, the anchor's true index, a stale index in range, or
    an index out of range."""
    order = LinearOrder(start)
    model = list(start)
    for anchor_id, e, kind, offset in steps:
        anchor = None if anchor_id == 0 else anchor_id
        true = model.index(anchor) if anchor in model else 0
        hint = {"none": None, "right": true, "stale": offset % (len(model) or 1),
                "out": len(model) + abs(offset) if offset >= 0 else offset}[kind]
        if e in model:
            with pytest.raises(RelationError, match=f"^element {e} is already in the order$"):
                order.insert_above(anchor, e, hint)
        elif anchor is not None and anchor not in model:
            with pytest.raises(RelationError, match=f"^anchor {anchor} is not in the order$"):
                order.insert_above(anchor, e, hint)
        else:
            order.insert_above(anchor, e, hint)
            model.insert(0 if anchor is None else model.index(anchor) + 1, e)
        assert order.sequence == model
        for x in range(1, 15):
            assert (x in order) == (x in model)
            if x in model:
                assert order.position(x) == model.index(x)
                assert order.locate(x, hint) == model.index(x)
            else:
                with pytest.raises(ValueError):
                    order.locate(x, hint)
        assert order.positions() == {x: i for i, x in enumerate(model)}
    copy = order.copy()
    assert copy == order and all(x in copy for x in model)
