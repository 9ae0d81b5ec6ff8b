"""The extension watch, checked against the replica watch it replaced.

``arena._ExtensionWatch`` checks each visible order at the index its last
insertion took, which is as strong as rebuilding the order from the
recorded anchors only because nothing but ``LinearOrder.__init__``,
``insert_above`` and ``reorder`` writes an order's ``sequence``.  The AST
test below pins that; the differential tests pin that the watch names the
same first fault as ``poset_oracles.ReplicaWatch`` on tampered insertion
records, in a replay and in a live game.
"""

from __future__ import annotations

import ast
import dataclasses
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import olcp
from olcp import FirstFit, RandomValid, Transcript, make_strategy, run_game, verify_transcript
from olcp import arena

from poset_oracles import ReplicaWatch

# Each takes (ext, j, e, other): the recorded anchors, an order index, the
# new element and an id already placed, and gives the tampered record.
MUTATIONS = {
    "bottom": lambda ext, j, e, other: _put(ext, j, None),
    "unknown id": lambda ext, j, e, other: _put(ext, j, e + 7),
    "id 0": lambda ext, j, e, other: _put(ext, j, 0),
    "the new element": lambda ext, j, e, other: _put(ext, j, e),
    "True": lambda ext, j, e, other: _put(ext, j, True),
    "1.0": lambda ext, j, e, other: _put(ext, j, 1.0),
    "'1'": lambda ext, j, e, other: _put(ext, j, "1"),
    "[1]": lambda ext, j, e, other: _put(ext, j, [1]),
    "{}": lambda ext, j, e, other: _put(ext, j, {}),
    "another placed id": lambda ext, j, e, other: _put(ext, j, other),
    "swapped": lambda ext, j, e, other: _put(_put(ext, j, ext[j - 1]), j - 1, ext[j]),
    "too short": lambda ext, j, e, other: ext[:j],
    "too long": lambda ext, j, e, other: (*ext, other),
    "too long, bottom": lambda ext, j, e, other: (*ext, None),
    "a list": lambda ext, j, e, other: list(ext),
    "not a sequence": lambda ext, j, e, other: 5,
    "none": lambda ext, j, e, other: None,
}


def _put(ext: tuple, j: int, anchor) -> tuple:
    return (*ext[:j], anchor, *ext[j + 1:])


def _partitioner(opponent):
    return FirstFit() if opponent is None else RandomValid(opponent)


@lru_cache(maxsize=None)
def _game(w: int, d: int, opponent) -> Transcript:
    transcript, report = run_game(make_strategy("theorem2", w, d=d), _partitioner(opponent),
                                  seed=opponent)
    assert report.ok
    return transcript


def _tampered_ext(t: Transcript, idx: int, kind: str, j: int, pick: int):
    row = t.rounds[idx]
    e = row.element
    return MUTATIONS[kind](row.ext, j % t.d, e, 1 + pick % e if e > 1 else 1)


def _with_ext(t: Transcript, idx: int, ext) -> Transcript:
    rows = list(t.rounds)
    rows[idx] = dataclasses.replace(rows[idx], ext=ext)
    return Transcript(t.strategy, t.w, t.d, t.partitioner, t.seed, rows, t.version)


def _replayed(t: Transcript, watch) -> list[str]:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arena, "_ExtensionWatch", watch)
        return verify_transcript(t)


def _live(watch, alter, w: int = 3, d: int = 3, opponent=None) -> list[str]:
    """The violations of a live ``theorem2`` game played under ``watch``,
    each move of which the strategy places passes through ``alter(s, e, move)``."""
    s = make_strategy("theorem2", w, d=d)
    place = s._place
    s._place = lambda e: alter(s, e, place(e))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arena, "_ExtensionWatch", watch)
        _, report = run_game(s, _partitioner(opponent), seed=opponent)
    return report.violations


def _agree(w: int, d: int, opponent, idx: int, kind: str, j: int, pick: int) -> list[str]:
    """Replay and live game with one tampered insertion record, each under
    both watches: the violations match the oracle's exactly, and the first
    insertion fault is the same live and replayed.  Returns it."""
    t = _game(w, d, opponent)
    idx %= len(t.rounds)
    ext = _tampered_ext(t, idx, kind, j, pick)
    tampered = _with_ext(t, idx, ext)
    replayed = _replayed(tampered, arena._ExtensionWatch)
    assert replayed == _replayed(tampered, ReplicaWatch)

    def tamper(s, e, move):
        return (*move[:4], ext) if e == idx + 1 else move

    live = [_live(watch, tamper, w, d, opponent) for watch in (arena._ExtensionWatch, ReplicaWatch)]
    assert live[0] == live[1]
    faults = [[v for v in vs if "insertion" in v][:1] for vs in (replayed, live[0])]
    assert faults[0] == faults[1]
    return faults[0]


@settings(max_examples=120, deadline=None)
@given(d=st.integers(2, 4), w=st.integers(1, 4), opponent=st.sampled_from([None, 0, 1, 2]),
       idx=st.integers(0, 10**6), kind=st.sampled_from(sorted(MUTATIONS)),
       j=st.integers(0, 3), pick=st.integers(0, 10**6))
def test_the_watch_names_the_replica_oracles_first_fault(d, w, opponent, idx, kind, j, pick):
    _agree(w, d, opponent, idx, kind, j, pick)


@pytest.mark.parametrize("kind", sorted(MUTATIONS))
@pytest.mark.parametrize("j", [0, 2])
def test_every_mutation_kind_on_a_late_round(kind, j):
    """Each kind at least once, on round 40 of the w=4, d=3 first-fit game,
    whose anchors there are all placed ids."""
    assert None not in _game(4, 3, None).rounds[39].ext
    fault = _agree(4, 3, None, 39, kind, j, 30)
    assert bool(fault) == (kind != "a list")


@pytest.mark.parametrize("anchor, message", [
    ([1], "order 0 grew above unknown element [1]"),
    ({}, "order 0 grew above unknown element {}"),
    ("1", "order 0 grew above unknown element 1"),
    (True, "order 0 grew above unknown element True"),
])
def test_an_anchor_no_id_equals_is_unknown_not_malformed(anchor, message):
    """An unhashable anchor such as ``[1]`` is searched for as
    ``list.index`` would, not by a set lookup that raises TypeError: the
    order grew above an unknown element, rather than a malformed record.
    True equals id 1, which is not yet placed in round 1."""
    t = _game(3, 2, None)
    assert t.rounds[0].ext == (None, None)
    assert verify_transcript(_with_ext(t, 0, (anchor, None))) == [
        f"round 1: {message}; insertion-only growth broken"]


@pytest.mark.parametrize("idx, j", [(16, 0), (12, 2)])
def test_a_bottom_insertion_recorded_above_the_top_is_named(idx, j):
    """Order j of the w=4, d=3 first-fit game takes its new point at the
    bottom in this round; a record naming the order's top as its anchor
    must not pass by reading ``sequence[_at - 1]`` at ``_at`` 0, which is
    the top."""
    t = _game(4, 3, None)
    assert t.rounds[idx].ext[j] is None
    tops = {}

    def remember(s, e, move):
        tops[e] = s.orders[j].sequence[-1]
        return move

    _live(arena._ExtensionWatch, remember, 4, 3)
    ext = _put(t.rounds[idx].ext, j, tops[idx + 1])
    expected = [f"round {idx + 1}: recorded insertions rebuild a different order {j}; "
                "insertion-only growth broken"]
    for watch in (arena._ExtensionWatch, ReplicaWatch):
        assert _replayed(_with_ext(t, idx, ext), watch) == expected
        tamper = lambda s, e, move: (*move[:4], ext) if e == idx + 1 else move
        assert [v for v in _live(watch, tamper, 4, 3) if "insertion" in v] == expected


def _swap_two(order: olcp.LinearOrder, near: bool) -> None:
    """Swap, by ``reorder``, two neighbours in ``order``: the last inserted
    point and the one below it (above it, at the bottom), or two points
    clear of both."""
    seq, at = order.sequence, order._at
    i = max(at - 1, 0) if near else (0 if at >= 3 else len(seq) - 2)
    order.reorder(i, [seq[i + 1], seq[i]])


@pytest.mark.parametrize("near", [True, False])
@pytest.mark.parametrize("j", [0, 1])
def test_a_reorder_of_a_visible_order_mid_game_is_named_at_its_round(j, near):
    """A visible order two of whose points are swapped by ``reorder`` in
    round 12, after the strategy's insertion, next to the new point or away
    from it: the watch names that order and round, as the replica oracle
    does."""
    def reorder(s, e, move):
        if e == 12:
            _swap_two(s.orders[j], near)
        return move

    expected = [f"round 12: recorded insertions rebuild a different order {j}; "
                "insertion-only growth broken"]
    for watch in (arena._ExtensionWatch, ReplicaWatch):
        assert [v for v in _live(watch, reorder) if "insertion" in v] == expected


def test_another_id_inserted_in_place_of_the_new_point_is_named(monkeypatch):
    """On the last round, order 1 takes another id where the new point
    belongs, above the recorded anchor: one longer, no reorder, and yet a
    different order."""
    rounds = len(_game(3, 3, None).rounds)
    insert_above = olcp.LinearOrder.insert_above
    seen = []  # the playing strategy's orders, from round 1 on

    def swapping(self, anchor, e, hint=None):
        return insert_above(self, anchor, 10**6 if e == rounds and self is seen[-1][1] else e, hint)

    def remember(s, e, move):
        seen.append(s.orders)
        return move

    monkeypatch.setattr(olcp.LinearOrder, "insert_above", swapping)
    expected = [f"round {rounds}: recorded insertions rebuild a different order 1; "
                "insertion-only growth broken"]
    for watch in (arena._ExtensionWatch, ReplicaWatch):
        assert [v for v in _live(watch, remember) if "insertion" in v] == expected


# ---------------------------------------------------------------------------
# only LinearOrder writes a sequence

MUTATING = frozenset({"insert", "append", "extend", "pop", "remove", "sort", "reverse", "clear"})
WRITERS = frozenset({"LinearOrder.__init__", "LinearOrder.insert_above", "LinearOrder.reorder"})


def sequence_writes(source: str) -> list[tuple[str, int]]:
    """(function, line) of every write to a ``.sequence`` list in ``source``:
    an assignment to the attribute, an item or slice assignment or ``del``,
    an augmented assignment, or a call of a mutating list method, on the
    attribute or on a local name bound to it (``seq = o.sequence``,
    ``a, b = x.sequence, y.sequence``, ``a, b = (h.sequence for h in hs)``)."""
    writes: list[tuple[str, int]] = []

    def is_seq(node, aliases) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "sequence"
                or isinstance(node, ast.Name) and node.id in aliases
                or isinstance(node, ast.NamedExpr) and is_seq(node.value, aliases))

    def bound(target, value, aliases) -> set[str]:
        if isinstance(target, ast.Name):
            return {target.id} if is_seq(value, aliases) else set()
        if isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(target.elts):
                return set().union(*(bound(t, v, aliases) for t, v in zip(target.elts, value.elts)))
            if isinstance(value, (ast.GeneratorExp, ast.ListComp)) and is_seq(value.elt, aliases):
                return {t.id for t in target.elts if isinstance(t, ast.Name)}
        return set()

    def aliases_in(func, inherited: set[str]) -> set[str]:
        aliases = set(inherited)
        while True:
            found = set(aliases)
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        found |= bound(target, node.value, found)
                elif isinstance(node, ast.NamedExpr):
                    found |= bound(node.target, node.value, found)
            if found == aliases:
                return aliases
            aliases = found

    def written(node, aliases) -> bool:
        def target_written(t) -> bool:
            return (isinstance(t, ast.Attribute) and t.attr == "sequence"
                    or isinstance(t, ast.Subscript) and is_seq(t.value, aliases)
                    or isinstance(t, (ast.Tuple, ast.List)) and any(map(target_written, t.elts))
                    or isinstance(t, ast.Starred) and target_written(t.value))

        if isinstance(node, (ast.Assign, ast.Delete)):
            return any(map(target_written, node.targets))
        if isinstance(node, ast.AnnAssign):
            return target_written(node.target)
        if isinstance(node, ast.AugAssign):
            return target_written(node.target) or is_seq(node.target, aliases)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            return target_written(node.target)
        if isinstance(node, ast.Call):
            f = node.func
            return isinstance(f, ast.Attribute) and f.attr in MUTATING and is_seq(f.value, aliases)
        return False

    def visit(node, scope: list[str], aliases: set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], aliases)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                visit(child, scope + [name], aliases_in(child, aliases))
            else:
                if written(child, aliases):
                    writes.append((".".join(scope) or "<module>", child.lineno))
                visit(child, scope, aliases)

    visit(ast.parse(source), [], set())
    return writes


def test_only_linear_order_writes_a_sequence():
    """The argument in ``LinearOrder``'s docstring, on which the extension
    watch stands: no code in the package writes a ``sequence`` but
    ``LinearOrder.__init__``, ``insert_above`` and ``reorder``, which all do."""
    writers = set()
    for path in sorted(Path(olcp.__file__).parent.glob("*.py")):
        for function, line in sequence_writes(path.read_text()):
            assert function in WRITERS, f"{path.name}:{line}: {function} writes a sequence"
            writers.add(function)
    assert writers == WRITERS


def test_the_write_finder_sees_every_kind_of_write():
    source = '''
def f(o, hosts, other):
    o.sequence = []
    o.sequence[0] = 1
    o.sequence[1:2] = [3]
    del o.sequence[0]
    o.sequence += [4]
    o.sequence.sort()
    seq = o.sequence
    seq.append(5)
    a, b = o.sequence, other.sequence
    b[0] = 2
    c, d = (h.sequence for h in hosts)
    d.pop()
    for o.sequence[0] in range(2):
        pass
    seq += [6]
    (e := other.sequence).clear()
    copy = list(o.sequence)
    copy.append(7)
    o.sequence.index(1)
    n = o.sequence[0]
'''
    lines = [line for _, line in sequence_writes(source)]
    assert lines == [3, 4, 5, 6, 7, 8, 10, 12, 14, 15, 17, 18]
