"""Finite posets, linear orders, realizers and chain partitions.

Elements are positive integer ids (the round an element entered the game).
A :class:`Poset` keeps one below and one above bitmask per element (bit
``x`` stands for element ``x``) in two lists indexed by id, transitively
closed on every insertion, plus the mask of the ids present; a
:class:`ChainPartition` keeps one mask per color.  Staged games reach
770-1300 points and about 256k relations, so neither the per-round legality
scan nor the whole-poset checks (realizer, extension, width) loop over
pairs of elements in Python.  The legality scan tests each class against
the non-negative :meth:`Poset.incomparable_mask`, and :meth:`Poset.width`
seeds its matching greedily from the top of the order down, which leaves
few augmenting searches to run.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import RelationError


class Poset:
    """A strict partial order over integer ids, grown one element at a time."""

    __slots__ = ("_below", "_above", "_all", "_elements", "__weakref__")

    def __init__(self) -> None:
        # Rows indexed by id: _below[x] is the mask of the elements below x.
        # Slot 0 is unused and an absent id holds 0; _all masks the present
        # ids, and the lists end at the largest one.
        self._below: list[int] = [0]
        self._above: list[int] = [0]
        self._all = 0
        self._elements: list[int] = []

    @classmethod
    def _of_rows(cls, elements: list[int], below: list[int], above: list[int]) -> "Poset":
        p = cls()
        p._elements = elements
        p._below = below
        p._above = above
        p._all = _digits_mask(elements, len(below))
        return p

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
        down = _mask(below)
        for b in below:
            down |= self._below[b]
        up = _mask(above)
        for a in above:
            up |= self._above[a]
        if down & up:
            clash = min(_ids(down & up))
            raise RelationError(f"element {clash} forced both below and above the new element")
        for x in sorted(_ids(down)):
            missing = up & ~self._above[x]
            if missing:
                y = min(_ids(missing))
                raise RelationError(f"the new element would put {x} below {y}, which are unrelated")
        return self._add_closed(_ids(down), _ids(up))

    def _add_closed(self, down: Iterable[int], up: Iterable[int]) -> int:
        """Fast path: ``down``/``up`` are already transitively closed and
        consistent.  The older rows are updated by walking these sets; the
        new element's own two masks are read from digit strings in linear time."""
        below, above = self._below, self._above
        e = len(below)
        bit = 1 << e
        for u in down:
            above[u] |= bit
        for v in up:
            below[v] |= bit
        below.append(_digits_mask(down, e))
        above.append(_digits_mask(up, e))
        self._all |= bit
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

    def __iter__(self) -> Iterator[int]:
        return iter(self._elements)

    @property
    def elements(self) -> list[int]:
        return list(self._elements)

    def less(self, x: int, y: int) -> bool:
        return bool(self._below[self._id(y)] >> x & 1)

    def comparable(self, x: int, y: int) -> bool:
        return x == y or bool(self.comparable_mask(y) >> x & 1)

    def comparable_mask(self, x: int) -> int:
        """Mask of the elements comparable to x, x itself included."""
        x = self._id(x)
        return self._below[x] | self._above[x] | 1 << x

    def incomparable_mask(self, x: int) -> int:
        """Mask of the elements incomparable to x: never negative, so
        ``cls & incomparable_mask(x)`` costs no two's-complement copy."""
        return self._all ^ self.comparable_mask(x)

    def incomparable_pairs(self, pts: Iterable[int]) -> Iterator[tuple[int, int]]:
        """Incomparable pairs (x, y) of ``pts``, x listed before y, in listing order."""
        pts = list(pts)
        for i, x in enumerate(pts):
            reach = self.comparable_mask(x)
            for y in pts[i + 1 :]:
                if not reach >> y & 1:
                    yield x, y

    def below(self, x: int) -> set[int]:
        """Elements strictly below x (a fresh set)."""
        return _ids(self._below[self._id(x)])

    def above(self, x: int) -> set[int]:
        return _ids(self._above[self._id(x)])

    def down_set(self, x: int) -> set[int]:
        """x together with everything below it."""
        return self.below(x) | {x}

    def up_set(self, x: int) -> set[int]:
        return self.above(x) | {x}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self._elements == other._elements and all(
            self._below[e] == other._below[e] for e in self._elements)

    # -- whole-poset classification ----------------------------------------

    def is_completely_below(self, U: Iterable[int], V: Iterable[int]) -> bool:
        vm = _mask(V)
        return all(self._above[self._id(u)] & vm == vm for u in U)

    def is_completely_incomparable(self, U: Iterable[int], V: Iterable[int]) -> bool:
        vm = _mask(V)
        return not any(self.comparable_mask(u) & vm for u in U)

    # -- derived posets ------------------------------------------------------

    def dual(self) -> "Poset":
        """The same elements with every relation flipped."""
        return Poset._of_rows(list(self._elements), list(self._above), list(self._below))

    def restrict(self, keep: Iterable[int]) -> "Poset":
        """Induced sub-poset on ``keep`` (ids preserved)."""
        km = _mask(keep) & self._all
        elements = [e for e in self._elements if km >> e & 1]
        size = max(elements, default=0) + 1
        below, above = [0] * size, [0] * size
        for e in elements:
            below[e] = self._below[e] & km
            above[e] = self._above[e] & km
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

    def _max_matching(self) -> dict[int, int]:
        """Maximum matching u -> v over pairs u < v, by augmenting paths.

        A greedy pass visits u top-down, largest down-set first (ties in
        element order), and matches it to its lowest free v.  On the games'
        posets that leaves far fewer u unmatched than visiting them by id
        (62 rather than 666 of 1296 on the szemeredi w=36 game).  Then the
        unmatched u search for augmenting paths over the ``above`` masks,
        depth first on an explicit stack so that no poset is too deep for
        it, in passes: the v seen by one pass are not searched again until
        the next, and a pass that augments nothing proves the matching
        maximum.  Every step takes the lowest id first, so the result is
        deterministic for a given poset.
        """
        above, below = self._above, self._below
        roots = sorted(self._elements, key=lambda u: below[u].bit_count(), reverse=True)
        match_l: dict[int, int] = {}
        match_r: dict[int, int] = {}
        free = self._all  # mask of unmatched v
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

    Supports the single mutation the game needs: insert a fresh element
    directly above an existing anchor (or at the very bottom).  Existing
    relative order is never disturbed, which is exactly the on-line
    extension property the adversaries rely on.  Insertions check
    membership in a set built on first use (so read-only copies never pay
    for one) and find the anchor with ``list.index``, unless the caller
    passes a position hint: :meth:`locate` trusts a hint only after checking
    that the sequence still holds the element there, so a stale hint costs
    one comparison and a search.  The order remembers where its last
    insertion went, a hint for finding the new element.  Only whole-order
    checks build :meth:`positions`.
    """

    __slots__ = ("sequence", "_members", "_pos", "_stale", "_last")

    def __init__(self, sequence: Iterable[int] = ()):
        self.sequence: list[int] = list(sequence)
        self._members: set[int] | None = None
        self._pos: dict[int, int] = {}
        self._stale = True
        self._last: int | None = None  # index of the last inserted element

    def insert_above(self, anchor: int | None, e: int, hint: int | None = None) -> None:
        """Insert ``e`` directly above ``anchor`` (``None`` = new bottom);
        ``hint`` is where the caller expects ``anchor`` to be."""
        if self._members is None:
            self._members = set(self.sequence)
        members = self._members
        if e in members:
            raise RelationError(f"element {e} is already in the order")
        if anchor is None:
            at = 0
        else:
            if anchor not in members:
                raise RelationError(f"anchor {anchor} is not in the order")
            at = self.locate(anchor, hint) + 1
        self.sequence.insert(at, e)
        self._last = at
        members.add(e)
        self._stale = True

    def locate(self, x: int, hint: int | None) -> int:
        """Index of ``x``: ``hint`` if the sequence holds ``x`` there, else
        found by search (``ValueError`` when ``x`` is absent)."""
        seq = self.sequence
        if hint is not None and 0 <= hint < len(seq) and seq[hint] == x:
            return hint
        return seq.index(x)

    def positions(self) -> dict[int, int]:
        if self._stale:
            self._pos = {x: i for i, x in enumerate(self.sequence)}
            self._stale = False
        return self._pos

    def position(self, x: int) -> int:
        return self.sequence.index(x)

    def restrict(self, keep: Iterable[int]) -> "LinearOrder":
        keep = set(keep)
        return LinearOrder(x for x in self.sequence if x in keep)

    def is_extension_of(self, p: Poset) -> bool:
        """True when every relation of p appears in this order."""
        pos = self.positions()
        if set(pos) != set(p._elements):
            return False
        at = pos.__getitem__
        return all(max(map(at, _ids(p._below[y])), default=-1) < pos[y] for y in p._elements)

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


def _ids(mask: int) -> set[int]:
    return {i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"}


def _digits_mask(ids: Iterable[int], size: int) -> int:
    """Mask of ids in 1..size-1, read from a string of binary digits: one
    linear pass, where OR-ing bit by bit copies the growing mask each time."""
    digits = bytearray(b"0") * size
    for x in ids:
        digits[~x] = 49  # "1" at place value 2**x
    return int(digits, 2)


def _common_below(orders: list[LinearOrder]) -> dict[int, int]:
    """x -> mask of the elements before x in every order (x in orders[0])."""
    common: dict[int, int] = {}
    for i, o in enumerate(orders):
        pos = o.positions()
        prefix = 0
        # positions() keeps the last copy of a repeated id, so walk by it.
        for x in sorted(pos, key=pos.__getitem__):
            common[x] = prefix if i == 0 else common[x] & prefix
            prefix |= 1 << x
    return common


def intersect(orders: Iterable[LinearOrder]) -> Poset:
    """The poset x < y iff x precedes y in every given order."""
    orders = list(orders)
    if not orders:
        raise RelationError("intersect needs at least one order")
    base = set(orders[0].sequence)
    for o in orders[1:]:
        if set(o.sequence) != base:
            raise RelationError("orders carry different element sets")
    elements = sorted(base)
    if elements and elements[0] < 1:
        raise RelationError(f"element ids are positive integers, got {elements[0]}")
    common = _common_below(orders)
    size = max(elements, default=0) + 1
    below, above = [0] * size, [0] * size
    for e in elements:
        below[e] = common[e]
        for u in _ids(common[e]):
            above[u] |= 1 << e
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

    def __len__(self) -> int:
        return len(self.orders)

    def __iter__(self) -> Iterator[LinearOrder]:
        return iter(self.orders)


def verify_realizer(realizer: Realizer, p: Poset) -> bool:
    """True iff every order extends p and their intersection is exactly p.

    The second half implies the first: a relation of p missing from one
    order is missing from the intersection too.
    """
    elements = set(p._elements)
    if set(realizer.orders[0].sequence) != elements:
        raise RelationError("realizer and poset carry different element sets")
    if any(set(o.sequence) != elements for o in realizer.orders[1:]):
        return False
    common = _common_below(realizer.orders)
    return all(common[y] == p._below[y] for y in p._elements)


class ChainPartition:
    """An assignment of colors (opaque positive ints) to elements; ``masks``
    maps every color, ascending, to its class's mask and ``top`` is the
    largest color (0 if none), both read-only outside :meth:`assign`."""

    __slots__ = ("color_of", "_classes", "masks", "top")

    def __init__(self) -> None:
        self.color_of: dict[int, int] = {}
        self._classes: dict[int, set[int]] = {}
        self.masks: dict[int, int] = {}
        self.top = 0

    def assign(self, e: int, color: int) -> None:
        if e in self.color_of:
            raise RelationError(f"element {e} already colored")
        if color < 1:
            raise RelationError(f"colors are positive integers, got {color}")
        self.color_of[e] = color
        self._classes.setdefault(color, set()).add(e)
        if color < self.top and color not in self.masks:  # keep masks ascending
            self.masks = dict(sorted({**self.masks, color: 0}.items()))
        self.masks[color] = self.masks.get(color, 0) | 1 << e
        self.top = max(self.top, color)

    def classes(self) -> dict[int, set[int]]:
        return {c: set(s) for c, s in self._classes.items()}

    def distinct_colors(self, elements: Iterable[int] | None = None) -> int:
        """Number of distinct colors on ``elements`` (all, if omitted)."""
        if elements is None:
            return len(self._classes)
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
        class that fails it is walked, to name the pair.
        """
        cls = self.masks.get(color)
        if not cls or not cls & p.incomparable_mask(e):
            return True, None
        for x in self._classes[color]:
            if not p.comparable(x, e):
                return False, (min(x, e), max(x, e))
        return True, None

    def __len__(self) -> int:
        return len(self.color_of)


def verify_chain_partition(p: Poset, part: ChainPartition) -> list[str]:
    """All violations of the chains-only rule; empty means valid.

    Checks every element is colored and every color class is a chain;
    each chain violation names one incomparable same-color pair.
    """
    problems = []
    elements = set(p.elements)
    missing = [e for e in p.elements if e not in part.color_of]
    if missing:
        problems.append(f"uncolored elements: {sorted(missing)}")
    for color, members in sorted(part.classes().items()):
        pair = next(p.incomparable_pairs(sorted(members & elements)), None)
        if pair is not None:
            problems.append(f"color {color} is not a chain: ({pair[0]}, {pair[1]}) incomparable")
    return problems
