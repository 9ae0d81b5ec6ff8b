"""Poset builders, queries and exhaustive checks that only the tests need.

Games grow posets one element at a time through ``Poset.add_element``;
these helpers build whole fixtures from relation lists, answer the block
and pair queries that no game asks, and read a poset back as explicit
pairs, as oracles for the mask-backed code.  ``splice`` tunes two hidden
hosts to another chain index with list comprehensions, as an oracle for
``poset._tuned_hosts``.  ``ReplicaWatch`` checks insertion-only growth by
rebuilding each visible order from the recorded anchors, as an oracle for
``arena._ExtensionWatch``.  ``relation_masks`` reads a whole transcript's
relation sets in one pass, as an oracle for ``arena._row_mask``.
"""

from __future__ import annotations

from typing import Iterable

from olcp import LinearOrder, Poset, RelationError, Transcript
from olcp.poset import _digits_mask


def from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> Poset:
    """Build an n-element poset from (x, y) meaning x < y (closure taken)."""
    p = Poset()
    want: dict[int, set[int]] = {e: set() for e in range(1, n + 1)}
    for x, y in pairs:
        want[y].add(x)
    for e in range(1, n + 1):
        p.add_element(below={x for x in want[e] if x < e})
        late = {x for x in want[e] if x >= e}
        if late:
            raise RelationError(f"pair ({late.pop()}, {e}) is not id-ascending")
    return p


def chain(n: int) -> Poset:
    return from_pairs(n, ((i, i + 1) for i in range(1, n)))


def antichain(n: int) -> Poset:
    return from_pairs(n, ())


def less(p: Poset, x: int, y: int) -> bool:
    """x < y in ``p``; KeyError if y is not an element."""
    return x in p.below(y)


def dual(p: Poset) -> Poset:
    """The same elements with every relation flipped."""
    below, above = p._rows()
    return Poset._of_rows(list(p._elements), list(above), list(below))


def is_completely_below(p: Poset, U: Iterable[int], V: Iterable[int]) -> bool:
    """Every point of U lies below every point of V."""
    V = set(V)
    return all(V <= p.above(u) for u in U)


def is_completely_incomparable(p: Poset, U: Iterable[int], V: Iterable[int]) -> bool:
    """No point of U equals or is comparable to a point of V."""
    V = set(V)
    return not any(V & (p.below(u) | p.above(u) | {u}) for u in U)


def relation_pairs(p: Poset) -> set[tuple[int, int]]:
    """Every (x, y) with x < y in ``p``."""
    return {(x, y) for y in p for x in p.below(y)}


def check_axioms(p: Poset) -> list[str]:
    """Exhaustively re-verify irreflexivity, antisymmetry, transitivity,
    and that the below and above tables agree."""
    problems = []
    for y in p:
        by = p.below(y)
        if y in by:
            problems.append(f"reflexive relation on {y}")
        for x in sorted(by):
            bx = p.below(x)
            if y in bx:
                problems.append(f"antisymmetry broken on ({x}, {y})")
            if bx - by:
                problems.append(f"transitivity broken: {min(bx - by)} < {x} < {y}")
            if y not in p.above(x):
                problems.append(f"below/above tables disagree on ({x}, {y})")
    return problems


def splice(scan: LinearOrder, stack: LinearOrder, low: set[int]) -> tuple[LinearOrder, LinearOrder]:
    """The scan and stack hosts tuned to chain index k, from ``scan`` and
    ``stack``, the hosts tuned to k = w, and ``low``, the points of the
    instances of width at most k (see the ``olcp.builders`` docstring).  The
    scan host is ``scan`` restricted to ``low``, then ``stack`` restricted to
    the rest; the stack host is ``scan`` with the positions of ``low``
    refilled, in order, by ``stack`` restricted to ``low``.  A block at the
    bottom of every host, such as a level's mirrored block, may join ``low``.
    A refill that runs out raises RuntimeError."""
    scan_low = [x for x in scan.sequence if x in low]
    stack_rest = [x for x in stack.sequence if x not in low]
    refill = iter([x for x in stack.sequence if x in low])
    return (LinearOrder(scan_low + stack_rest),
            LinearOrder(next(refill) if x in low else x for x in scan.sequence))


class ReplicaWatch:
    """Insertion-only growth of a strategy's visible orders, checked against
    plain-list replicas, in O(n·d) a round: each round every replica takes
    the new element directly above its recorded anchor (``list.index``) and
    must then equal the strategy's order.  ``check`` takes and reports what
    ``arena._ExtensionWatch.check`` does, and stops at the first fault."""

    def __init__(self, strategy):
        self.orders = strategy.orders
        self.replicas = None if strategy.d is None else [list(o.sequence) for o in self.orders]

    def check(self, rnd: int, e: int, ext, out: list[str]) -> None:
        if self.replicas is None:
            return
        try:
            fault = self._grow(e, ext)
        except (IndexError, TypeError):  # more anchors than orders, or no sequence of them
            fault = f"malformed insertion record {ext!r}"
        if fault is not None:
            out.append(f"round {rnd}: {fault}; insertion-only growth broken")
            self.replicas = None

    def _grow(self, e: int, ext) -> str | None:
        if ext is None:
            return "no insertion record for the visible orders"
        for j, anchor in enumerate(ext):
            replica = self.replicas[j]
            try:
                replica.insert(0 if anchor is None else replica.index(anchor) + 1, e)
            except ValueError:
                return f"order {j} grew above unknown element {anchor}"
        for j, order in enumerate(self.orders):
            if self.replicas[j] != order.sequence:
                return f"recorded insertions rebuild a different order {j}"
        return None


def relation_masks(t: Transcript) -> tuple[list[int | None], list[int | None]]:
    """The rows' below and above sets as masks (bit x for id x), in two
    lists indexed like a poset's rows by the element a replay presents in
    each round, which is the round's place in the transcript.  A kept mask
    is read as it is.  A set no such element can have -- not a tuple or list,
    not all ints, as in ``_id_list``, not sorted and distinct, or outside
    1..round-1 -- gets None."""
    below: list[int | None] = [0]
    above: list[int | None] = [0]
    for e, row in enumerate(t.rounds, start=1):
        for masks, ids in ((below, row.__dict__["below"]), (above, row.__dict__["above"])):
            if type(ids) is int:
                masks.append(None if ids >> e else ids)
                continue
            valid = isinstance(ids, (tuple, list)) and set(map(type, ids)) <= {int} and (
                not ids or ids[0] >= 1 and ids[-1] < e and list(ids) == sorted(set(ids)))
            masks.append(_digits_mask(ids, e) if valid else None)
    return below, above
