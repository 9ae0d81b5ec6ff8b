"""Level checks on doctored certificates, against the checks they replaced.

``arena._check_levels`` reads the poset's rows once: the mirrored chains
are checked on a view of the mirrored block whose below rows are the
poset's above rows, and the mirrored block, the separator and the deeper
levels are tested with masks.  Here each level report of a finished game
is doctored in turn with ``dataclasses.replace``: a forcing-chain point
swapped with another forcing point, a mirrored-chain point swapped with
another mirrored point, a separator point replaced by a point of a deeper
level, the forcing and mirrored blocks swapped, or those blocks swapped
together with their chains.  The messages, in order, must be those of the
checks as they were: for ``theorem1`` the oracle of
``tests/test_chain_index_check.py``, for ``theorem2`` a copy of the old
visible-order checks, which read the mirror from ``dual(p.restrict(s2))``
and walk pairs.  A mirrored chain that leaves
the mirrored block, as when only the blocks are swapped, gives violations
in both, never an exception: ``RainbowChains.verify`` names a chain point
outside its universe, and leaves it, like a point outside the poset it is
given, out of its other checks.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from olcp import FirstFit, RandomValid, make_strategy, run_game
from olcp import arena
from olcp.poset import ChainPartition

from poset_oracles import dual, is_completely_below, is_completely_incomparable
from test_chain_index_check import levels_with_a_splice_per_chain_index

OPPONENTS = ["first-fit", 0, 1, 2]
KINDS = ["forcing point", "mirrored point", "deeper separator point", "blocks swapped",
         "blocks and chains swapped"]


def levels_as_they_were(s, part: ChainPartition, reports) -> list[str]:
    """The visible-order level checks before they read rows: the mirror on
    ``dual(p.restrict(s2))``, the blocks and the separator pair by pair.
    The keeper checks, which read the visible orders, are the arena's."""
    v: list[str] = []
    p = s.poset
    sep_colors = []
    for i, rep in enumerate(reports):
        tag = f"level {rep.width}"
        if sorted(rep.chains) != list(range(1, rep.width + 1)):
            v.append(f"{tag}: forcing chains do not cover sizes 1..{rep.width}")
        if sorted(rep.dual_chains) != list(range(1, rep.width + 1)):
            v.append(f"{tag}: mirrored chains do not cover sizes 1..{rep.width}")
        rb = arena.RainbowChains(rep.chains, frozenset(rep.s1_points))
        v += [f"{tag}: {x}" for x in rb.verify(p, part)]
        mirror = arena.RainbowChains(rep.dual_chains, frozenset(rep.s2_points))
        v += [f"{tag} mirror: {x}" for x in mirror.verify(dual(p.restrict(rep.s2_points)), part)]
        if not is_completely_below(p, rep.s2_points, rep.s1_points):
            v.append(f"{tag}: mirrored block is not completely below the forcing block")
        sep = rep.separator
        v += [f"{tag}: separator is not a chain: ({x}, {y})" for x, y in p.incomparable_pairs(sep)]
        n = part.distinct_colors(sep)
        if n != rep.separator_colors:
            v.append(f"{tag}: separator color count recorded as {rep.separator_colors}, recomputed {n}")
        threshold, strict = arena.separator_threshold(rep.width, s.d)
        if not (n > threshold if strict else n >= threshold):
            v.append(f"{tag}: separator carries {n} colors, threshold {threshold:g}")
        sep_colors.append({part.color_of[x] for x in sep})
        deeper = [x for r2 in reports[i + 1:] for x in r2.s1_points + r2.s2_points]
        if deeper and not is_completely_incomparable(p, sep, deeper):
            v.append(f"{tag}: separator is comparable to a deeper point")
        v += arena._check_order_separation(s, rep, tag, [])
    for i in range(len(sep_colors)):
        for j in range(i + 1, len(sep_colors)):
            shared = sep_colors[i] & sep_colors[j]
            if shared:
                v.append(f"levels {reports[i].width} and {reports[j].width} share separator "
                         f"color {min(shared)}")
    return v


def outcome(check, *args) -> list[str] | str:
    """The messages ``check`` gives, or the name of the exception it raises."""
    try:
        return check(*args)
    except Exception as exc:  # both sides must fail alike
        return type(exc).__name__


def swapped(chains: dict[int, list[int]], x: int, y: int) -> dict[int, list[int]]:
    """``chains`` with the points x and y exchanged wherever they occur."""
    return {k: [y if z == x else x if z == y else z for z in pts] for k, pts in chains.items()}


def doctored(reports, i: int, kind: str, rng: random.Random):
    """The level report ``i`` changed as ``kind`` says, or None if it cannot be."""
    rep = reports[i]
    if kind == "forcing point":
        x = rng.choice(rep.chains[rng.choice(sorted(rep.chains))])
        others = [y for y in rep.s1_points if y != x]
        return others and dataclasses.replace(rep, chains=swapped(rep.chains, x, rng.choice(others)))
    if kind == "mirrored point":
        x = rng.choice(rep.dual_chains[rng.choice(sorted(rep.dual_chains))])
        others = [y for y in rep.s2_points if y != x]
        return others and dataclasses.replace(
            rep, dual_chains=swapped(rep.dual_chains, x, rng.choice(others)))
    if kind == "deeper separator point":
        deeper = [x for r2 in reports[i + 1:] for x in r2.s1_points + r2.s2_points]
        if not deeper:
            return None
        separator = list(rep.separator)
        separator[rng.randrange(len(separator))] = rng.choice(deeper)
        return dataclasses.replace(rep, separator=separator)
    if kind == "blocks and chains swapped":
        rep = dataclasses.replace(rep, chains=rep.dual_chains, dual_chains=rep.chains)
    return dataclasses.replace(rep, s1_points=rep.s2_points, s2_points=rep.s1_points)


GAMES = ([("theorem1", w, None) for w in range(1, 7)]
         + [("theorem2", w, d) for d in (2, 3, 4) for w in range(1, 7)])


@pytest.mark.parametrize("opponent", OPPONENTS)
@pytest.mark.parametrize("name, w, d", GAMES)
def test_level_checks_on_doctored_reports_say_what_the_old_checks_said(name, w, d, opponent):
    s = make_strategy(name, w, d=d)
    t, _ = run_game(s, FirstFit() if opponent == "first-fit" else RandomValid(opponent))
    part = ChainPartition()
    for row in t.rounds:
        part.assign(row.element, row.color)
    reference = levels_with_a_splice_per_chain_index if d is None else levels_as_they_were
    reports = s.level_reports()
    assert arena._check_levels(s, part, reports) == reference(s, part, reports) == []
    rng = random.Random(f"{name} {w} {d} {opponent}")
    for i in range(len(reports)):
        for kind in KINDS:
            rep = doctored(reports, i, kind, rng)
            if not rep:
                continue
            changed = [*reports[:i], rep, *reports[i + 1:]]
            got = outcome(arena._check_levels, s, part, changed)
            assert isinstance(got, list), (i, kind, got)
            assert got == outcome(reference, s, part, changed), (i, kind)
