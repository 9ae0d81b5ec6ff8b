"""Poset builders, queries and exhaustive checks that only the tests need.

Games grow posets one element at a time through ``Poset.add_element``;
these helpers build whole fixtures from relation lists, answer the block
and pair queries that no game asks, and read a poset back as explicit
pairs, as oracles for the mask-backed code.
"""

from __future__ import annotations

from typing import Iterable

from olcp import Poset, RelationError


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
