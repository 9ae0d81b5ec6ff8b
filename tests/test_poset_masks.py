"""The bitmask order core against brute-force definitions.

``Poset`` stores its relation as bitmasks and ``ChainPartition`` one mask
per color; ``verify_realizer``, ``LinearOrder.is_extension_of``,
``intersect``, ``Poset.width``, the report's seeded width, the partition
check and the legality scan all work on them.  The
definitions below loop over pairs, subsets and plain lists the slow way,
straight from the textbook statements.
"""

from __future__ import annotations

import bisect
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olcp import (
    ChainPartition,
    FirstFit,
    LinearOrder,
    PartitionerView,
    Poset,
    RandomValid,
    Realizer,
    RelationError,
    intersect,
    make_strategy,
    run_game,
    verify_chain_partition,
    verify_realizer,
)
from olcp import arena
from olcp.builders import BOTTOM, TOP, Builder
from olcp.poset import _realizer_width

from poset_oracles import (
    check_axioms,
    dual,
    from_pairs,
    is_completely_below,
    is_completely_incomparable,
    less,
    relation_pairs,
)


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
        assert all(less(p, x, y) for x, y in zip(chain, chain[1:]))


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
        return dual(p), {(y, x) for x, y in rel}
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
        return dual(p), {(y, x) for x, y in rel}
    return p, rel


def assert_queries_match(p: Poset, rel: set[tuple[int, int]]) -> None:
    """Every per-element query of p against the pair relation rel."""
    els = p.elements
    assert check_axioms(p) == []
    assert relation_pairs(p) == rel
    for x in els:
        assert p.below(x) == {u for u, v in rel if v == x}
        assert p.above(x) == {v for u, v in rel if u == x}
        for y in els:
            assert less(p, x, y) == ((x, y) in rel)
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
        assert is_completely_below(p, U, V) == all((u, v) in rel for u in U for v in V)
        assert is_completely_incomparable(p, U, V) == all(
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
    padded = dual(dual(p))
    padded._below += [0, 0, 0]
    padded._above += [0, 0, 0]
    assert padded == p and p == padded
    assert (dual(p) == p) == (not rel)
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
    firsts: dict[int, int] = {}  # each color's first member
    colored = data.draw(st.lists(st.sampled_from(els), unique=True))
    for x in colored:
        color = data.draw(st.integers(1, 6))  # any order, gaps included
        part.assign(x, color)
        classes.setdefault(color, set()).add(x)
        firsts.setdefault(color, x)
    assert sorted(part.masks) == sorted(classes)
    assert part.top == max(classes, default=0)
    assert part._firsts == sum(1 << x for x in firsts.values())
    for e in els:
        for color in range(1, 8):
            assert part.legal(p, e, color) == reference_legal(rel, classes, e, color)
        view = PartitionerView(p, part, e)
        legal = [c for c in sorted(classes) if reference_legal(rel, classes, e, c)[0]]
        assert view.legal_colors() == legal
        outside = p.incomparable_mask(e)  # the walk, whatever legal_colors would pick
        assert part._legal_by_firsts(part._firsts & ~outside, outside) == legal
        assert view.fresh_color() == max(classes, default=0) + 1
    flipped = dual(p)  # the same comparabilities, every relation flipped
    for e in els:
        legal = PartitionerView(p, part, e).legal_colors()
        assert PartitionerView(flipped, part, e).legal_colors() == legal
        outside = flipped.incomparable_mask(e)
        assert part._legal_by_firsts(part._firsts & ~outside, outside) == legal


@settings(max_examples=200, deadline=None)
@given(sparse_posets(), st.data())
def test_legal_colors_read_classes_restricted_to_the_poset(case, data):
    """Members absent from the poset, in its gaps or past its largest id,
    may be a class's first member: ``legal_colors`` and the walk still
    answer like one mask test per class, which reads each class restricted
    to the poset."""
    p, rel = case
    els = p.elements
    if not els:
        return
    part = ChainPartition()
    present: dict[int, set[int]] = {}
    ids = range(1, max(els) + 4)
    for x in data.draw(st.lists(st.sampled_from(ids), unique=True, min_size=1)):
        color = data.draw(st.integers(1, 6))
        part.assign(x, color)
        members = present.setdefault(color, set())
        if x in p:
            members.add(x)
    for e in els:
        legal = [c for c in sorted(present) if reference_legal(rel, present, e, c)[0]]
        outside = p.incomparable_mask(e)
        assert sorted(c for c, cls in part.masks.items() if not cls & outside) == legal
        assert part.legal_colors(p, e) == legal
        assert part._legal_by_firsts(part._firsts & ~outside, outside) == legal


def test_assigning_descending_colors_takes_linear_time():
    """An all-distinct replay may name its colors in any order; 20,000 of
    them, each below every earlier one, take about as long as ascending
    ones (re-sorting the classes on every new color took 55 s)."""
    part = ChainPartition()
    n = 20_000
    start = time.perf_counter()
    for e in range(1, n + 1):
        part.assign(e, n + 1 - e)
    assert time.perf_counter() - start < 2.0
    assert part.distinct_colors() == n and part.top == n


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
        assert order.positions() == {x: i for i, x in enumerate(model)}
    copy = order.copy()
    assert copy == order and all(x in copy for x in model)


def _plain_mask(ids) -> int:
    return sum(1 << x for x in ids)


small_games = st.one_of(
    st.tuples(st.just("szemeredi"), st.integers(1, 6), st.none()),
    st.tuples(st.just("theorem1"), st.integers(1, 4), st.none()),
    st.tuples(st.just("theorem2"), st.integers(1, 4), st.integers(2, 4)),
)


@settings(max_examples=100, deadline=None)
@given(small_games, st.one_of(st.just("first-fit"), st.integers(0, 2**16)))
def test_each_host_records_the_masks_around_its_new_point(game, opponent):
    """A builder reads a new point's masks from its window: the outside
    masks and its own points on either side.  After every placement each
    root's masks are those of its host's sequence below and above the
    point, host by host, since an error in one host could hide in the AND
    with another.  The window invariant they rest on holds too: the active
    instance's ``_lo`` indexes its region's low bound, and the host between
    its two bounds holds exactly the instance's own points."""
    name, w, d = game
    place_next = Builder.place_next
    checked = []

    def checked_place_next(self, e):
        anchor = place_next(self, e)
        seq = self.host.sequence
        i = seq.index(e)
        assert self.masks == (_plain_mask(seq[:i]), _plain_mask(seq[i + 1:]))
        inst, r = self.active(), self.active().region
        assert inst._lo == (-1 if r.low is BOTTOM else seq.index(r.low))
        hi = len(seq) if r.high is TOP else seq.index(r.high)
        assert seq[inst._lo + 1:hi] == inst._in_host_order
        checked.append(e)
        return anchor

    partitioner = FirstFit() if opponent == "first-fit" else RandomValid(opponent)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Builder, "place_next", checked_place_next)
        transcript, report = run_game(make_strategy(name, w, d=d), partitioner)
    assert report.ok
    hosts = 2 if d is None else d
    assert len(checked) == hosts * len(transcript.rounds)


# ---------------------------------------------------------------------------
# the end-of-game report: the partition check and the seeded width


def pairwise_partition_check(p: Poset, rel: set[tuple[int, int]], part: ChainPartition) -> list[str]:
    """``verify_chain_partition`` by its definition: the uncolored elements,
    then per color, ascending, the first incomparable pair of the class's
    members in the poset, listed in ascending order."""
    problems = []
    missing = sorted(e for e in p.elements if e not in part.color_of)
    if missing:
        problems.append(f"uncolored elements: {missing}")
    for color, members in sorted(part.classes().items()):
        pts = sorted(members & set(p.elements))
        pair = next(((x, y) for i, x in enumerate(pts) for y in pts[i + 1:]
                     if (x, y) not in rel and (y, x) not in rel), None)
        if pair is not None:
            problems.append(f"color {color} is not a chain: ({pair[0]}, {pair[1]}) incomparable")
    return problems


@st.composite
def presented_posets(draw):
    """(p, rel) from ``add_element``, ``restrict`` or ``intersect``, or a
    poset grown as games grow theirs: each element's rows as presented,
    relating it to older ids only (``_add_closed``)."""
    how = draw(st.sampled_from(["add_element", "restrict", "intersect", "presented"]))
    if how == "intersect":
        orders, p = draw(realizers())
        return p, brute_intersection_pairs(orders)
    p, rel = draw(grown_posets())
    if how == "restrict":
        keep = draw(st.sets(st.sampled_from(p.elements))) if len(p) else set()
        return p.restrict(keep), {(x, y) for x, y in rel if x in keep and y in keep}
    if how == "presented":
        q = Poset()
        for e in p.elements:
            q._add_closed(_plain_mask(x for x, y in rel if y == e and x < e),
                          _plain_mask(y for x, y in rel if x == e and y < e))
        return q, rel
    return p, rel


@settings(max_examples=300, deadline=None)
@given(presented_posets(), st.data())
def test_partition_check_matches_the_pairwise_definition(case, data):
    """Classes that are chains or not, uncolored elements, and colored ids
    absent from the poset; the same list on presented and on full rows."""
    p, rel = case
    n = max(p.elements, default=0)
    part = ChainPartition()
    for e in p.elements:
        color = data.draw(st.integers(0, 4))  # 0: left uncolored
        if color:
            part.assign(e, color)
    absent = [x for x in range(1, n + 4) if x not in p]
    for x in data.draw(st.lists(st.sampled_from(absent), unique=True, max_size=3)):
        part.assign(x, data.draw(st.integers(1, 5)))
    expected = pairwise_partition_check(p, rel, part)
    assert verify_chain_partition(p, part) == expected
    p._rows()
    assert verify_chain_partition(p, part) == expected


@pytest.mark.parametrize("name, w, d", [("szemeredi", 8, None), ("theorem1", 4, None),
                                        ("theorem2", 4, 3)])
def test_a_game_checks_its_partition_on_rows_as_presented(monkeypatch, name, w, d):
    """``run_game`` checks the partition on the rows as the rounds left
    them: the check moves no row forward, and no reader completes rows
    before the realizer check gives the full ones."""
    fresh, completions = [], []
    check, rows = arena.verify_chain_partition, Poset._rows

    def spy_check(p, part):
        before = p._fresh
        problems = check(p, part)
        fresh.append((before, p._fresh))
        return problems

    def spy_rows(self):
        if self._fresh < len(self._elements):
            completions.append(len(self._elements) - self._fresh)
        return rows(self)

    monkeypatch.setattr(arena, "verify_chain_partition", spy_check)
    monkeypatch.setattr(Poset, "_rows", spy_rows)
    strategy = make_strategy(name, w, d=d)
    _, report = run_game(strategy, FirstFit())
    assert report.ok
    assert fresh == [(0, 0)] and completions == []


def first_fit_chains(p: Poset, order: LinearOrder) -> int:
    """Chains of the first-fit cover along ``order``, a linear extension."""
    tops: list[int] = []
    for x in order:
        i = next((i for i, top in enumerate(tops) if less(p, top, x)), len(tops))
        tops[i:i + 1] = [x]
    return len(tops)


#: Three orders on 12 points: first-fit along the first uses 3 chains more
#: than the width, and along the best of them still one more.
FAR_FROM_OPTIMAL = [[11, 12, 10, 2, 6, 7, 8, 3, 1, 5, 9, 4],
                    [12, 4, 9, 6, 2, 8, 10, 11, 5, 1, 3, 7],
                    [2, 3, 9, 11, 1, 6, 10, 7, 8, 12, 5, 4]]


def test_a_realizer_whose_first_fit_covers_are_far_from_optimal():
    orders = [LinearOrder(o) for o in FAR_FROM_OPTIMAL]
    p = intersect(orders)
    width = brute_width(p)
    assert [first_fit_chains(p, o) - width for o in orders] == [3, 1, 1]
    assert verify_realizer(Realizer(orders), p)
    assert _realizer_width(p, orders, True) == width


@settings(max_examples=150, deadline=None)
@given(realizers(max_n=10), st.sampled_from([3, 4]), st.data())
def test_seeded_width_matches_definition(case, d, data):
    """The report's width: d >= 3 orders that pass seed the matching from a
    first-fit cover; a realizer that fails leaves ``Poset.width``."""
    orders, _ = case
    ids = sorted(orders[0].sequence)
    orders = [*orders, *(LinearOrder(data.draw(st.permutations(ids))) for _ in range(d))][:d]
    p = intersect(orders)
    assert verify_realizer(Realizer(orders), p)
    assert _realizer_width(p, orders, True) == brute_width(p)
    if len(ids) >= 2:  # a realizer of another poset: the matching alone
        other = [LinearOrder(reversed(o.sequence)) for o in orders[:1]] + orders[1:]
        realized = verify_realizer(Realizer(other), p)
        assert _realizer_width(p, other, realized) == brute_width(p)
