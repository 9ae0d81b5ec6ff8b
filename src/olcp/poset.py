"""Finite posets, linear orders, realizers and chain partitions.

Elements are positive integer ids (the round an element entered the game).
A :class:`Poset` stores the full strict-order relation as below/above sets
per element, kept transitively closed on every insertion.  Staged games
reach 770-1300 points and about 256k relations, so the whole-poset checks
(realizer, extension, width) never loop over pairs of elements in Python:
they work on Python-int bitmasks, bit ``x`` standing for element ``x``.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator

from .errors import RelationError


class Relation(Enum):
    """How two element sets sit relative to each other, as a whole."""

    BELOW = "U<V"              # every u strictly below every v
    COMPARABLE = "comparable"  # every cross pair comparable (either way)
    INCOMPARABLE = "incomparable"
    MIXED = "mixed"


class Poset:
    """A strict partial order over integer ids, grown one element at a time."""

    __slots__ = ("_below", "_above", "_elements", "__weakref__")

    def __init__(self) -> None:
        self._below: dict[int, set[int]] = {}
        self._above: dict[int, set[int]] = {}
        self._elements: list[int] = []

    # -- construction -----------------------------------------------------

    def add_element(self, below: Iterable[int] = (), above: Iterable[int] = ()) -> int:
        """Insert a fresh element related to existing ones and return its id.

        ``below``/``above`` may be any generating sets; the transitive
        closure is taken.  If some element would end up both below and
        above the new one, ``RelationError`` is raised and the poset is
        left untouched.
        """
        below = set(below)
        above = set(above)
        for x in below | above:
            if x not in self._below:
                raise RelationError(f"unknown element {x}")
        down = set(below)
        for b in below:
            down |= self._below[b]
        up = set(above)
        for a in above:
            up |= self._above[a]
        if down & up:
            clash = min(down & up)
            raise RelationError(f"element {clash} forced both below and above the new element")
        return self._add_closed(down, up)

    def _add_closed(self, down: set[int], up: set[int]) -> int:
        """Fast path: ``down``/``up`` are already transitively closed."""
        e = len(self._elements) + 1
        self._below[e] = down
        self._above[e] = up
        for u in down:
            self._above[u].add(e)
        for v in up:
            self._below[v].add(e)
        self._elements.append(e)
        return e

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Poset":
        """Build an n-element poset from (x, y) meaning x < y (closure taken)."""
        p = cls()
        want: dict[int, set[int]] = {e: set() for e in range(1, n + 1)}
        for x, y in pairs:
            want[y].add(x)
        for e in range(1, n + 1):
            p.add_element(below={x for x in want[e] if x < e})
            late = {x for x in want[e] if x >= e}
            if late:
                raise RelationError(f"pair ({late.pop()}, {e}) is not id-ascending")
        return p

    @classmethod
    def chain(cls, n: int) -> "Poset":
        return cls.from_pairs(n, ((i, i + 1) for i in range(1, n)))

    @classmethod
    def antichain(cls, n: int) -> "Poset":
        return cls.from_pairs(n, ())

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, x: int) -> bool:
        return x in self._below

    def __iter__(self) -> Iterator[int]:
        return iter(self._elements)

    @property
    def elements(self) -> list[int]:
        return list(self._elements)

    def less(self, x: int, y: int) -> bool:
        return x in self._below[y]

    def leq(self, x: int, y: int) -> bool:
        return x == y or x in self._below[y]

    def comparable(self, x: int, y: int) -> bool:
        return x == y or x in self._below[y] or y in self._below[x]

    def below(self, x: int) -> set[int]:
        """Elements strictly below x (a copy)."""
        return set(self._below[x])

    def above(self, x: int) -> set[int]:
        return set(self._above[x])

    def down_set(self, x: int) -> set[int]:
        """x together with everything below it."""
        return self._below[x] | {x}

    def up_set(self, x: int) -> set[int]:
        return self._above[x] | {x}

    def relation_pairs(self) -> set[tuple[int, int]]:
        return {(x, y) for y in self._elements for x in self._below[y]}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self._elements == other._elements and self._below == other._below

    def __hash__(self):  # pragma: no cover - posets are not hashable
        raise TypeError("Poset is unhashable")

    # -- whole-poset classification ----------------------------------------

    def completely_related(self, U: Iterable[int], V: Iterable[int]) -> Relation:
        """Classify how the whole of U sits against the whole of V.

        Empty sides classify vacuously as ``BELOW`` (the strongest case);
        the ``is_completely_*`` helpers answer the individual vacuous
        questions directly.
        """
        U, V = set(U), set(V)
        if not U or not V:
            return Relation.BELOW
        all_below = all_comp = all_incomp = True
        for u in U:
            ab = self._above[u]
            be = self._below[u]
            for v in V:
                if v in ab:
                    all_incomp = False
                elif v in be:
                    all_below = all_incomp = False
                else:
                    all_below = all_comp = False
        if all_below:
            return Relation.BELOW
        if all_comp:
            return Relation.COMPARABLE
        if all_incomp:
            return Relation.INCOMPARABLE
        return Relation.MIXED

    def is_completely_below(self, U: Iterable[int], V: Iterable[int]) -> bool:
        return all(v in self._above[u] for u in U for v in V)

    def is_completely_incomparable(self, U: Iterable[int], V: Iterable[int]) -> bool:
        return all(
            v not in self._above[u] and v not in self._below[u] and u != v
            for u in U
            for v in V
        )

    # -- derived posets ------------------------------------------------------

    def dual(self) -> "Poset":
        """The same elements with every relation flipped."""
        d = Poset()
        d._elements = list(self._elements)
        d._below = {e: set(s) for e, s in self._above.items()}
        d._above = {e: set(s) for e, s in self._below.items()}
        return d

    def restrict(self, keep: Iterable[int]) -> "Poset":
        """Induced sub-poset on ``keep`` (ids preserved)."""
        keep = set(keep)
        r = Poset()
        r._elements = [e for e in self._elements if e in keep]
        r._below = {e: self._below[e] & keep for e in r._elements}
        r._above = {e: self._above[e] & keep for e in r._elements}
        return r

    def check_axioms(self) -> list[str]:
        """Exhaustively re-verify irreflexivity, antisymmetry, transitivity."""
        problems = []
        for y in self._elements:
            if y in self._below[y]:
                problems.append(f"reflexive relation on {y}")
            for x in self._below[y]:
                if y in self._below[x]:
                    problems.append(f"antisymmetry broken on ({x}, {y})")
                if not self._below[x] <= self._below[y]:
                    gap = min(self._below[x] - self._below[y])
                    problems.append(f"transitivity broken: {gap} < {x} < {y}")
            for x in self._below[y]:
                if y not in self._above[x]:
                    problems.append(f"below/above tables disagree on ({x}, {y})")
        return problems

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
        element.
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
                part.assign(x, color, x)
                x = succ.get(x)
        return part

    def _max_matching(self) -> dict[int, int]:
        """Maximum matching u -> v over pairs u < v, by augmenting paths.

        A greedy pass matches each u to its lowest free v; then each
        unmatched u starts one depth-first search for an augmenting path
        over the ``above`` bitmasks, kept on an explicit stack so that no
        poset is too deep for it.  Every step takes the lowest id first, so
        the result is deterministic for a given poset.
        """
        above = {u: _mask(self._above[u]) for u in sorted(self._elements)}
        match_l: dict[int, int] = {}
        match_r: dict[int, int] = {}
        taken = 0  # mask of matched v
        for u, up in above.items():
            free = up & ~taken
            if free:
                low = free & -free
                v = low.bit_length() - 1
                match_l[u] = v
                match_r[v] = u
                taken |= low
        for root in above:
            if root in match_l:
                continue
            seen = 0
            path = [root]  # path[i + 1] is the current partner of via[i]
            via: list[int] = []
            while path:
                cand = above[path[-1]] & ~seen
                if not cand:
                    path.pop()
                    if via:
                        via.pop()
                    continue
                low = cand & -cand
                seen |= low
                v = low.bit_length() - 1
                via.append(v)
                if not low & taken:
                    taken |= low
                    for u, v in zip(path, via):
                        match_l[u] = v
                        match_r[v] = u
                    break
                path.append(match_r[v])
        return match_l


class LinearOrder:
    """A growing sequence of element ids, lowest first.

    Supports the single mutation the game needs: insert a fresh element
    directly above an existing anchor (or at the very bottom).  Existing
    relative order is never disturbed, which is exactly the on-line
    extension property the adversaries rely on.
    """

    __slots__ = ("sequence", "_pos", "_stale")

    def __init__(self, sequence: Iterable[int] = ()):
        self.sequence: list[int] = list(sequence)
        self._pos: dict[int, int] = {}
        self._stale = True

    def insert_above(self, anchor: int | None, e: int) -> None:
        """Insert ``e`` directly above ``anchor`` (``None`` = new bottom)."""
        if e in self.positions():
            raise RelationError(f"element {e} is already in the order")
        if anchor is None:
            self.sequence.insert(0, e)
        else:
            if anchor not in self.positions():
                raise RelationError(f"anchor {anchor} is not in the order")
            self.sequence.insert(self.sequence.index(anchor) + 1, e)
        self._stale = True

    def positions(self) -> dict[int, int]:
        if self._stale:
            self._pos = {x: i for i, x in enumerate(self.sequence)}
            self._stale = False
        return self._pos

    def position(self, x: int) -> int:
        return self.positions()[x]

    def before(self, x: int, y: int) -> bool:
        pos = self.positions()
        return pos[x] < pos[y]

    def cover_above(self, x: int) -> int | None:
        """The element directly above x, or None if x is topmost."""
        i = self.position(x)
        return self.sequence[i + 1] if i + 1 < len(self.sequence) else None

    def restrict(self, keep: Iterable[int]) -> "LinearOrder":
        keep = set(keep)
        return LinearOrder(x for x in self.sequence if x in keep)

    def is_extension_of(self, p: Poset) -> bool:
        """True when every relation of p appears in this order."""
        pos = self.positions()
        if set(pos) != set(p._elements):
            return False
        at = pos.__getitem__
        return all(max(map(at, below), default=-1) < pos[y] for y, below in p._below.items())

    def copy(self) -> "LinearOrder":
        return LinearOrder(self.sequence)

    def __len__(self) -> int:
        return len(self.sequence)

    def __iter__(self) -> Iterator[int]:
        return iter(self.sequence)

    def __contains__(self, x: int) -> bool:
        return x in self.positions()

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
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return out


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
    below = _common_below(orders)
    p = Poset()
    p._elements = sorted(base)
    p._below = {e: _ids(below[e]) for e in p._elements}
    p._above = {e: set() for e in p._elements}
    for e in p._elements:
        for u in p._below[e]:
            p._above[u].add(e)
    return p


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
    return all(common[y] == _mask(below) for y, below in p._below.items())


class ChainPartition:
    """An assignment of colors (opaque positive ints) to elements."""

    __slots__ = ("color_of", "round_of", "_classes")

    def __init__(self) -> None:
        self.color_of: dict[int, int] = {}
        self.round_of: dict[int, int] = {}
        self._classes: dict[int, set[int]] = {}

    def assign(self, e: int, color: int, rnd: int) -> None:
        if e in self.color_of:
            raise RelationError(f"element {e} already colored")
        if color < 1:
            raise RelationError(f"colors are positive integers, got {color}")
        self.color_of[e] = color
        self.round_of[e] = rnd
        self._classes.setdefault(color, set()).add(e)

    def colors_used(self) -> set[int]:
        return set(self._classes)

    def classes(self) -> dict[int, set[int]]:
        return {c: set(s) for c, s in self._classes.items()}

    def class_of(self, color: int) -> set[int]:
        return set(self._classes.get(color, ()))

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
        same-color conflict when not ok.
        """
        for x in self._classes.get(color, ()):
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
        members = sorted(members & elements)
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                if not p.comparable(x, y):
                    problems.append(
                        f"color {color} is not a chain: ({x}, {y}) incomparable"
                    )
                    break
            else:
                continue
            break
    return problems
