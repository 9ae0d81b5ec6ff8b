"""Finite posets, linear orders, realizers and chain partitions.

Elements are positive integer ids (the round an element entered the game).
A :class:`Poset` keeps one below and one above bitmask per element (bit
``x`` stands for element ``x``) in two lists indexed by id, plus the mask
of the ids present; a :class:`ChainPartition` keeps one mask per color.
An insertion appends the new element's rows as presented, relating it to
older ids only, and updates no older row: that would copy an n-bit int per
relation, time cubic in a game's points.  What the on-line rounds read,
the newest element's rows and a pair's newer element's row, is complete as
presented; full rows come once, from the realizer a game's report checks
(:func:`verify_realizer`, O(n·d) big-int operations), or on demand.
Staged games reach 770-1300 points and about 256k relations, so neither
the per-round legal colors nor the whole-poset checks (realizer,
extension, partition, width) loop over pairs of elements in Python.
Legal colors come from each class's first member: only a class whose first
member is not incomparable to the new point is tested against the
non-negative :meth:`Poset.incomparable_mask`.  :meth:`Poset.width` seeds
its matching greedily, a game's report from a chain cover along one of its
realizer's orders (:func:`_realizer_width`): few augmenting searches remain.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, compress, count, filterfalse
from typing import Iterable, Iterator

from .errors import RelationError


class Poset:
    """A strict partial order over integer ids, grown one element at a time.

    Rows are kept as presented until a checked realizer replaces them or a
    reader of an older element's full row brings them up to date
    (:meth:`_rows`); every public reader answers for the whole poset.
    """

    __slots__ = ("_below", "_above", "_all", "_elements", "_fresh", "__weakref__")

    def __init__(self) -> None:
        # Rows indexed by id: _below[x] is the mask of the elements below x.
        # Slot 0 is unused and an absent id holds 0; _all masks the present
        # ids, and the lists end at the largest one.  _elements ascends; the
        # rows of _elements[_fresh:] relate them to older ids only, and the
        # older rows do not hold those relations yet.
        self._below: list[int] = [0]
        self._above: list[int] = [0]
        self._all = 0
        self._elements: list[int] = []
        self._fresh = 0

    @classmethod
    def _of_rows(cls, elements: list[int], below: list[int], above: list[int]) -> "Poset":
        """A poset over ascending ``elements`` with full rows."""
        p = cls()
        p._elements = elements
        p._below = below
        p._above = above
        p._all = _digits_mask(elements, len(below))
        p._fresh = len(elements)
        return p

    def _rows(self) -> tuple[list[int], list[int]]:
        """The below and above rows, brought up to date first: each relation
        held only in the newer element's row is copied into the older one's,
        an eager insertion's update deferred until a reader needs it."""
        below, above = self._below, self._above
        for y in self._elements[self._fresh:]:
            bit = 1 << y
            for u in _mask_ids(below[y]):
                above[u] |= bit
            for v in _mask_ids(above[y]):
                below[v] |= bit
        self._fresh = len(self._elements)
        return below, above

    # -- construction -----------------------------------------------------

    def add_element(self, below: Iterable[int] = (), above: Iterable[int] = ()) -> int:
        """Insert a fresh element related to existing ones and return its id.

        ``below``/``above`` may be any generating sets; the transitive
        closure is taken.  The new id is one past the largest id present.
        If some element would end up both below and above the new one, or
        the sets would relate two elements that are not related already,
        ``RelationError`` is raised and the poset is left untouched.
        """
        below = set(below)
        above = set(above)
        for x in below | above:
            if x not in self:
                raise RelationError(f"unknown element {x}")
        rows_below, rows_above = self._rows()
        down = _mask(below)
        for b in below:
            down |= rows_below[b]
        up = _mask(above)
        for a in above:
            up |= rows_above[a]
        if down & up:
            clash = next(_mask_ids(down & up))
            raise RelationError(f"element {clash} forced both below and above the new element")
        for x in _mask_ids(down):
            missing = up & ~rows_above[x]
            if missing:
                y = next(_mask_ids(missing))
                raise RelationError(f"the new element would put {x} below {y}, which are unrelated")
        return self._add_closed(down, up)

    def _add_closed(self, down: int, up: int) -> int:
        """Fast path: the masks ``down``/``up`` of present ids are already
        transitively closed and consistent.  Appends them as the new
        element's rows and touches no older row; having no newer elements,
        the new one's rows are complete as presented."""
        e = len(self._below)
        self._below.append(down)
        self._above.append(up)
        self._all |= 1 << e
        self._elements.append(e)
        return e

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, x: int) -> bool:
        return isinstance(x, int) and x > 0 and bool(self._all >> x & 1)

    def _id(self, x: int) -> int:
        """x, checked to be an element: an absent id raises KeyError."""
        if x in self:
            return x
        raise KeyError(x)

    def _full(self, x: int) -> int:
        """x, checked to be an element, with full rows: the newest element's
        are full as presented, another's may need bringing up to date."""
        if self._id(x) != self._elements[-1]:
            self._rows()
        return x

    def __iter__(self) -> Iterator[int]:
        return iter(self._elements)

    @property
    def elements(self) -> list[int]:
        return list(self._elements)

    def comparable(self, x: int, y: int) -> bool:
        return x == y or bool(self.comparable_mask(y) >> x & 1)

    def comparable_mask(self, x: int) -> int:
        """Mask of the elements comparable to x, x itself included."""
        x = self._full(x)
        return self._below[x] | self._above[x] | 1 << x

    def incomparable_mask(self, x: int) -> int:
        """Mask of the elements incomparable to x: never negative, so
        ``cls & incomparable_mask(x)`` costs no two's-complement copy."""
        return self._all ^ self.comparable_mask(x)

    def incomparable_pairs(self, pts: Iterable[int]) -> Iterator[tuple[int, int]]:
        """Incomparable pairs (x, y) of ``pts``, x listed before y, in listing
        order.  Each pair is read from its newer element's row, which holds
        it as presented, so no row needs bringing up to date."""
        pts = list(pts)
        below, above = self._below, self._above
        reach = [below[x] | above[x] | 1 << x for x in map(self._id, pts)]
        for i, x in enumerate(pts):
            for j in range(i + 1, len(pts)):
                y = pts[j]
                if not (reach[i] >> y if y < x else reach[j] >> x) & 1:
                    yield x, y

    def below(self, x: int) -> set[int]:
        """Elements strictly below x (a fresh set)."""
        return set(_mask_ids(self._below[self._full(x)]))

    def above(self, x: int) -> set[int]:
        return set(_mask_ids(self._above[self._full(x)]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        mine, theirs = self._rows()[0], other._rows()[0]
        return self._elements == other._elements and all(
            mine[e] == theirs[e] for e in self._elements)

    # -- derived posets ------------------------------------------------------

    def restrict(self, keep: Iterable[int]) -> "Poset":
        """Induced sub-poset on ``keep`` (ids preserved)."""
        km = _mask(keep) & self._all
        elements = [e for e in self._elements if km >> e & 1]
        size = max(elements, default=0) + 1
        rows_below, rows_above = self._rows()
        below, above = [0] * size, [0] * size
        for e in elements:
            below[e] = rows_below[e] & km
            above[e] = rows_above[e] & km
        return Poset._of_rows(elements, below, above)

    # -- width and chain covers ----------------------------------------------

    def width(self) -> int:
        """Size of a maximum antichain (= chains in a minimum chain cover)."""
        if not self._elements:
            return 0
        return len(self._elements) - len(self._max_matching())

    def min_chain_cover(self) -> "ChainPartition":
        """A minimum partition into chains, colors assigned deterministically.

        Built from a maximum matching on the split comparability graph:
        a matched pair (u, v) with u < v makes v the successor of u in its
        chain.  Chains are numbered 1.. in ascending order of their minimal
        element.  Which minimum cover comes out depends on the matching.
        """
        succ = self._max_matching()
        has_pred = set(succ.values())
        part = ChainPartition()
        color = 0
        for e in sorted(self._elements):
            if e in has_pred:
                continue
            color += 1
            x: int | None = e
            while x is not None:
                part.assign(x, color)
                x = succ.get(x)
        return part

    def _max_matching(self, seed: dict[int, int] | None = None) -> dict[int, int]:
        """Maximum matching u -> v over pairs u < v, by augmenting paths,
        from ``seed``, a matching of such pairs (taken over), if given.

        Else a greedy pass visits u top-down, largest down-set first (ties
        in element order), and matches it to its lowest free v.  On the
        games' posets that leaves far fewer u unmatched than visiting them
        by id (62 rather than 666 of 1296 on the szemeredi w=36 game).  Then
        the unmatched u search for augmenting paths over the ``above`` masks,
        depth first on an explicit stack so that no poset is too deep for
        it, in passes: the v seen by one pass are not searched again until
        the next, and a pass that augments nothing proves the matching
        maximum, whatever the seed.  Every step takes the lowest id first.
        """
        below, above = self._rows()
        match_l: dict[int, int] = {} if seed is None else seed
        match_r = {v: u for u, v in match_l.items()}
        free = self._all ^ _digits_mask(match_r, len(below))  # mask of unmatched v
        roots = self._elements
        if seed is None:
            roots = sorted(roots, key=lambda u: below[u].bit_count(), reverse=True)
            for u in roots:
                cand = above[u] & free
                if cand:
                    low = cand & -cand
                    v = low.bit_length() - 1
                    match_l[u] = v
                    match_r[v] = u
                    free ^= low
        roots = [u for u in roots if u not in match_l]
        while roots:
            unseen = self._all
            left: list[int] = []
            for root in roots:
                path = [root]  # path[i + 1] is the current partner of via[i]
                via: list[int] = []
                while path:
                    cand = above[path[-1]] & unseen
                    if not cand:
                        path.pop()
                        if via:
                            via.pop()
                        continue
                    low = cand & -cand
                    unseen ^= low
                    v = low.bit_length() - 1
                    via.append(v)
                    if low & free:
                        free ^= low
                        for u, v in zip(path, via):
                            match_l[u] = v
                            match_r[v] = u
                        break
                    path.append(match_r[v])
                else:
                    left.append(root)
            if len(left) == len(roots):
                break
            roots = left
        return match_l


class LinearOrder:
    """A growing sequence of element ids, lowest first.

    Grows by the one mutation the game needs: insert a fresh element
    directly above an existing anchor (or at the very bottom).  Existing
    relative order is never disturbed, which is exactly the on-line
    extension property the adversaries rely on; a hidden host, which no
    partitioner sees, may also have a finished block reordered in place
    (:meth:`reorder`).  Insertions check membership in a set built on first
    use (so read-only copies never pay for one) and find the anchor with
    ``list.index``, unless the caller passes a position hint that the
    sequence confirms: a stale hint costs one comparison and a search.
    Only whole-order checks build :meth:`positions`.  The order keeps no
    masks; builders read those from their windows (see :mod:`olcp.builders`).
    """

    __slots__ = ("sequence", "_members", "_pos", "_stale")

    def __init__(self, sequence: Iterable[int] = ()):
        self.sequence: list[int] = list(sequence)
        self._members: set[int] | None = None
        self._pos: dict[int, int] = {}
        self._stale = True

    def insert_above(self, anchor: int | None, e: int, hint: int | None = None) -> None:
        """Insert ``e`` directly above ``anchor`` (``None`` = new bottom);
        ``hint`` is where the caller expects ``anchor`` to be."""
        if self._members is None:
            self._members = set(self.sequence)
        members = self._members
        if e in members:
            raise RelationError(f"element {e} is already in the order")
        seq = self.sequence
        if anchor is None:
            at = 0
        elif anchor not in members:
            raise RelationError(f"anchor {anchor} is not in the order")
        elif hint is not None and 0 <= hint < len(seq) and seq[hint] == anchor:
            at = hint + 1
        else:
            at = seq.index(anchor) + 1
        seq.insert(at, e)
        members.add(e)
        self._stale = True

    def reorder(self, at: int, block: list[int]) -> None:
        """Write ``block``, the elements from index ``at`` on in another
        order, over them."""
        self.sequence[at:at + len(block)] = block
        self._stale = True

    def positions(self) -> dict[int, int]:
        if self._stale:
            self._pos = {x: i for i, x in enumerate(self.sequence)}
            self._stale = False
        return self._pos

    def restrict(self, keep: Iterable[int]) -> "LinearOrder":
        return LinearOrder(filter(set(keep).__contains__, self.sequence))

    def is_extension_of(self, p: Poset) -> bool:
        """True when every relation of p appears in this order."""
        pos = self.positions()
        if set(pos) != set(p._elements):
            return False
        at = pos.__getitem__
        below = p._rows()[0]
        return all(max(map(at, _mask_ids(below[y])), default=-1) < pos[y] for y in p._elements)

    def copy(self) -> "LinearOrder":
        return LinearOrder(self.sequence)

    def __len__(self) -> int:
        return len(self.sequence)

    def __iter__(self) -> Iterator[int]:
        return iter(self.sequence)

    def __contains__(self, x: int) -> bool:
        return x in (self.sequence if self._members is None else self._members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearOrder):
            return NotImplemented
        return self.sequence == other.sequence

    def __repr__(self) -> str:
        return f"LinearOrder({self.sequence})"


def _mask(ids: Iterable[int]) -> int:
    m = 0
    for x in ids:
        m |= 1 << x
    return m


_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits as compress() selectors


def _digits(mask: int) -> bytes:
    """The bits of a non-negative ``mask``, lowest first, as ``compress()`` selectors."""
    return bin(mask)[:1:-1].encode().translate(_BITS)


def _mask_ids(mask: int) -> Iterator[int]:
    """The ids of ``mask``, ascending, picked by its digits in one C-level pass."""
    return compress(count(), _digits(mask))


def _digits_mask(ids: Iterable[int], size: int) -> int:
    """Mask of ids in 1..size-1, read from a string of binary digits: one
    linear pass, where OR-ing bit by bit copies the growing mask each time."""
    digits = bytearray(b"0") * size
    for x in ids:
        digits[x] = 49  # "1" for id x, read from the end
    return int(digits[::-1], 2)


def _realized_rows(orders: list[LinearOrder], size: int) -> tuple[list[int], list[int]]:
    """Full rows, indexed by ids below ``size``, of the intersection of
    ``orders``, which carry one element set: an element's below row masks
    what precedes it in every order (a prefix walk of each) and its above
    row what follows it (a suffix walk), O(n·d) big-int operations in all.
    A repeated id counts at its last copy, as ``positions()`` keeps it."""
    below, above = [0] * size, [0] * size
    for i, o in enumerate(orders):
        top_down = list(dict.fromkeys(reversed(o.sequence)))
        for rows, walk in ((below, reversed(top_down)), (above, top_down)):
            seen = 0
            for x in walk:
                rows[x] = seen if i == 0 else rows[x] & seen
                seen |= 1 << x
    return below, above


def _two_order_width(first: LinearOrder, second: LinearOrder) -> int:
    """Width of the intersection of two orders on one element set: its
    antichains are the sequences that rise in ``first`` and fall in
    ``second``, so the width is the longest decreasing run of ``second``
    positions read in ``first`` order, found by patience sorting in
    O(n log n).  A repeated id counts at its last copy, as in
    :func:`_realized_rows`."""
    at = {x: i for i, x in enumerate(second.sequence)}
    tails: list[int] = []  # tails[k]: least last position of a rising run of k + 1
    for i in map(at.__getitem__, dict.fromkeys(reversed(first.sequence))):
        k = bisect_left(tails, i)
        if k == len(tails):
            tails.append(i)
        else:
            tails[k] = i
    return len(tails)


def _realizer_width(p: Poset, orders: list[LinearOrder], realized: bool) -> int:
    """The width of ``p``: :meth:`Poset.width` unless ``orders`` passed :func:`verify_realizer`
    (``realized``).  Two orders give it by patience sorting; more seed the matching with the
    consecutive pairs of the first-fit chain cover, along one of them, with the fewest chains."""
    if not realized:
        return p.width()
    if len(orders) == 2:
        return _two_order_width(*orders)
    below, best = p._below, {}
    for o in orders:
        tops, pairs = [], {}  # each chain's top, oldest chain first; the chains' pairs
        for x in reversed(dict.fromkeys(reversed(o.sequence))):  # a repeated id at its last copy
            row = below[x]
            for i, top in enumerate(tops):
                if row >> top & 1:
                    pairs[top] = tops[i] = x
                    break
            else:
                tops.append(x)
        best = max(best, pairs, key=len)
    return len(p) - len(p._max_matching(best))


def _first_difference(below: list[int], above: list[int], rows_below: list[int],
                      rows_above: list[int], ids: Iterable[int]) -> int | None:
    """The first of ``ids`` whose ``below``/``above`` rows differ from
    ``rows_below``/``rows_above``'s, both restricted to older ids, which
    hold each relation once."""
    for y in ids:
        older = (1 << y) - 1
        if (below[y] ^ rows_below[y]) & older or (above[y] ^ rows_above[y]) & older:
            return y
    return None


def _tuned_hosts(seq: list[int], stack_seq: list[int], is_low) -> tuple[Iterator[int], Iterator[int]]:
    """The scan and stack hosts tuned to the low block ``is_low`` tests, lowest
    point first, from ``seq`` and ``stack_seq``, the two tuned to the widest:
    the scan host is ``seq``'s low points, then ``stack_seq``'s rest; the stack host
    is ``seq`` with its low slots refilled in order by ``stack_seq``'s, while they last."""
    refill = filter(is_low, stack_seq)
    return (chain(filter(is_low, seq), filterfalse(is_low, stack_seq)),
            (next(refill, x) if is_low(x) else x for x in seq))


def intersect(orders: Iterable[LinearOrder]) -> Poset:
    """The poset x < y iff x precedes y in every given order."""
    orders = Realizer(orders).orders
    elements = sorted(set(orders[0].sequence))
    if elements and elements[0] < 1:
        raise RelationError(f"element ids are positive integers, got {elements[0]}")
    below, above = _realized_rows(orders, max(elements, default=0) + 1)
    return Poset._of_rows(elements, below, above)


class Realizer:
    """A family of linear orders over one element set."""

    __slots__ = ("orders",)

    def __init__(self, orders: Iterable[LinearOrder]):
        self.orders = list(orders)
        if not self.orders:
            raise RelationError("a realizer needs at least one order")
        base = set(self.orders[0].sequence)
        for o in self.orders[1:]:
            if set(o.sequence) != base:
                raise RelationError("realizer orders carry different element sets")


def verify_realizer(realizer: Realizer, p: Poset) -> bool:
    """True iff every order extends p and their intersection is exactly p.

    The second half implies the first: a relation of p missing from one
    order is missing from the intersection too.  Both row families of the
    intersection are compared with p's restricted to older ids, which hold
    every relation once even as presented; when they match, they become
    p's full rows.
    """
    elements = set(p._elements)
    if set(realizer.orders[0].sequence) != elements:
        raise RelationError("realizer and poset carry different element sets")
    if any(set(o.sequence) != elements for o in realizer.orders[1:]):
        return False
    below, above = _realized_rows(realizer.orders, len(p._below))
    if _first_difference(below, above, p._below, p._above, p._elements) is not None:
        return False
    p._below[:], p._above[:] = below, above
    p._fresh = len(p._elements)
    return True


class ChainPartition:
    """An assignment of colors (opaque positive ints) to elements; ``masks``
    maps every color, in order of first use, to its class's mask and
    ``top`` is the largest color (0 if none), both read-only outside
    :meth:`assign`.

    ``_firsts`` masks the first member assigned to each color, set when the
    color is new.  A class that a new point may join has every member
    comparable to it, its first member included, so :meth:`legal_colors`
    need test only the classes whose first member is not incomparable to
    the point.  The rule holds for any partition and poset, so there is
    nothing to keep up to date.
    """

    __slots__ = ("color_of", "masks", "top", "_firsts")

    def __init__(self) -> None:
        self.color_of: dict[int, int] = {}
        self.masks: dict[int, int] = {}
        self.top = 0
        self._firsts = 0

    def assign(self, e: int, color: int) -> None:
        if type(e) is not int or e < 1:
            raise RelationError(f"element ids are positive integers, got {e!r}")
        if e in self.color_of:
            raise RelationError(f"element {e} already colored")
        if color < 1:
            raise RelationError(f"colors are positive integers, got {color}")
        self.color_of[e] = color
        cls = self.masks.get(color, 0)
        if not cls:
            self._firsts |= 1 << e
        self.masks[color] = cls | 1 << e
        self.top = max(self.top, color)

    def legal_colors(self, p: Poset, e: int) -> list[int]:
        """Colors whose class ``e`` may join, ascending.

        A class is legal when its mask misses ``p.incomparable_mask(e)``.
        Only a class whose first member is not incomparable to ``e`` can be:
        in a ``szemeredi`` game about a dozen of the hundreds of classes.
        When those are not few next to all classes, as in staged games,
        where most first members lie below the new point, one mask test per
        class is cheaper than the walk and runs instead.
        """
        outside = p.incomparable_mask(e)
        walk = self._firsts & ~outside
        if 4 * walk.bit_count() < len(self.masks):
            return self._legal_by_firsts(walk, outside)
        return sorted(c for c, cls in self.masks.items() if not cls & outside)

    def _legal_by_firsts(self, walk: int, outside: int) -> list[int]:
        """:meth:`legal_colors`, given ``outside``, the mask of the elements
        incomparable to ``e``, and ``walk``, the first members not in
        ``outside``: tests the class of each, walked bit by bit."""
        masks, color_of = self.masks, self.color_of
        legal = []
        while walk:
            low = walk & -walk
            c = color_of[low.bit_length() - 1]
            if not masks[c] & outside:
                legal.append(c)
            walk ^= low
        legal.sort()
        return legal

    def classes(self) -> dict[int, set[int]]:
        out: dict[int, set[int]] = {}
        for e, c in self.color_of.items():
            out.setdefault(c, set()).add(e)
        return out

    def distinct_colors(self, elements: Iterable[int] | None = None) -> int:
        """Number of distinct colors on ``elements`` (all, if omitted)."""
        if elements is None:
            return len(self.masks)
        return len({self.color_of[e] for e in elements})

    def is_rainbow(self, elements: Iterable[int]) -> bool:
        """True when no color repeats on ``elements`` (vacuously on empty)."""
        elements = list(elements)
        return self.distinct_colors(elements) == len(elements)

    def legal(self, p: Poset, e: int, color: int) -> tuple[bool, tuple[int, int] | None]:
        """Would coloring ``e`` with ``color`` keep that class a chain?

        Returns (ok, offending_pair) where the pair names an incomparable
        same-color conflict when not ok.  One test of the class mask
        against ``p.incomparable_mask(e)`` clears a legal color; only a
        class that fails it is walked, to name the pair: the first
        incomparable member of the class as a set grown in assignment order.
        """
        cls = self.masks.get(color)
        if not cls or not cls & p.incomparable_mask(e):
            return True, None
        as_assigned = {x for x, c in self.color_of.items() if c == color}
        x = next(x for x in as_assigned if not p.comparable(x, e))
        return False, (min(x, e), max(x, e))


def verify_chain_partition(p: Poset, part: ChainPartition) -> list[str]:
    """All violations of the chains-only rule; empty means valid.

    Checks every element is colored and every color class is a chain;
    each chain violation names one incomparable same-color pair.  Each member's
    row, as presented or full, must reach every older member of its class.
    """
    problems = []
    missing = [e for e in p._elements if e not in part.color_of]
    if missing:
        problems.append(f"uncolored elements: {missing}")
    for color, members in sorted(part.classes().items()):
        members, older = sorted(filter(p.__contains__, members)), 0
        for x in members:
            if (p._below[x] | p._above[x]) & older != older:
                x, y = next(p.incomparable_pairs(members))
                problems.append(f"color {color} is not a chain: ({x}, {y}) incomparable")
                break
            older |= 1 << x
    return problems
