"""A szemeredi transcript's chain indices, checked once at the end.

``verify_transcript`` checks chain indices 1..w-1 from the positions in
the main replay's two hosts and the low blocks of its builder bank: a
chain index whose cross pairs agree presents the main poset, and only the
hosts of any other one are built, by the formula ``poset_oracles.splice``
implements, and their relations compared with the replayed poset's rows
once, at the end of the game.  The oracle here is the check it replaced:
one full strategy replay per chain index, compared with the rows round by
round.  Both must report the same violations, in the same order, on played
and tampered transcripts alike.  A point moved into one chain index's low
block is named by its round: the first id whose rows in the spliced hosts
differ from the replayed poset's, even on a tampered transcript whose main
replay reports that round too; every other violation is still the
oracle's.  On random orders and low blocks, and on a game's
hosts with one point moved, the cross-pair check accepts exactly the
chain indices whose spliced hosts keep the poset, a failing one's rows
are its spliced hosts', and the keeper checks say what the spliced hosts
say.  A ``theorem1`` level's chain indices go through the same check, and
``_check_levels`` says what splicing every chain index's hosts and
comparing them with the level's rows said, with a host point or the
mirrored block's low block moved.  ``arena`` imports nothing from
``builders``.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olcp import FirstFit, RandomValid, Transcript, make_strategy, run_game, verify_transcript
from olcp import adversaries, arena
from olcp.builders import BOTTOM, Builder
from olcp.errors import StrategyInvariantError
from olcp.poset import ChainPartition, LinearOrder, _first_difference, _realized_rows, intersect

from poset_oracles import dual, is_completely_below, is_completely_incomparable, splice


def verify_with_a_replay_per_chain_index(t: Transcript) -> list[str]:
    """``verify_transcript`` as it was: the main replay, then one strategy
    replay per chain index k < w, each reporting its first fault that the
    main replay did not report."""
    if len(t.rounds) < t.w * (t.w + 1) // 2:
        return ["transcript ends before the game is over"]
    strategy = make_strategy(t.strategy, t.w)
    v, part = arena._replay(strategy, t)
    main = set(v)
    for k in range(1, t.w):
        vk, _ = arena._replay(make_strategy(t.strategy, t.w, k=k), t)
        s = next((s for s in vk if s not in main), None)
        if s is not None:
            v.append(f"chain index {k} presents a different game: {s}")
    if not strategy.done():
        return v
    report = arena.build_report(strategy, part, extra_violations=v)
    out = list(report.violations)
    if not report.bound_met:
        out.append(f"forced-color bound not met: {report.colors} colors < {report.bound:g}")
    return out


def _with_rows(t: Transcript, rows) -> Transcript:
    return Transcript(t.strategy, t.w, t.d, t.partitioner, t.seed, rows, t.version)


def tampered(t: Transcript, every: int):
    """Copies of ``t`` with one fault each, at every ``every``-th round:
    a recolor (to color 1, to the next color, to a fresh color), a dropped
    or added relation, a wrong level, and transcripts cut short."""
    fresh = max(r.color for r in t.rounds) + 1
    for i in range(0, len(t.rounds), every):
        row = t.rounds[i]
        edits = [{"color": 1}, {"color": row.color % fresh + 1}, {"color": fresh},
                 {"level": row.level + 1}]
        for side in ("below", "above"):
            ids = getattr(row, side)
            if ids:
                edits.append({side: ids[1:]})
            absent = [x for x in range(1, row.element) if x not in ids]
            if absent:
                edits.append({side: tuple(sorted((*ids, absent[len(absent) // 2])))})
        for edit in edits:
            rows = list(t.rounds)
            rows[i] = dataclasses.replace(row, **edit)
            yield f"round {row.round} {edit}", _with_rows(t, rows)
    for cut in (1, 2, len(t.rounds) // 3):
        yield f"cut {cut}", _with_rows(t, t.rounds[:-cut])


GAMES = [(w, p) for w in range(2, 7) for p in ("first-fit", 0, 1)]


@pytest.mark.parametrize("w, opponent", GAMES)
def test_end_of_game_check_reports_what_a_replay_per_chain_index_did(w, opponent):
    partitioner = FirstFit() if opponent == "first-fit" else RandomValid(opponent)
    t, report = run_game(make_strategy("szemeredi", w), partitioner)
    assert report.ok
    assert verify_transcript(t) == verify_with_a_replay_per_chain_index(t) == []
    every = max(1, len(t.rounds) // 6)
    checked = 0
    for name, bad in tampered(t, every):
        assert verify_transcript(bad) == verify_with_a_replay_per_chain_index(bad), name
        checked += 1
    assert checked >= 15


def _misplace(k, target):
    """The stack builder of chain index k puts point ``target`` at the bottom
    of its active instance's window, not where its rule says: its relations
    differ from there on."""
    place_next = Builder.place_next

    def place(self, e):
        if self.spec.k == k and self.spec.family == "stack" and e == target:
            b = self.active()
            anchor = None if b.region.low is BOTTOM else b.region.low
            self.host.insert_above(anchor, e)
            self.masks = (b.region.below, b.region.above | b._own)
            b._in_host_order.insert(0, e)
            b._own |= 1 << e
            b._pending = e
            return anchor
        return place_next(self, e)
    return "place_next", place


def _derail(k, target):
    observe_color = Builder.observe_color

    def observe(self, e, color):
        if self.spec.k == k and self.spec.family == "scan" and e == target:
            raise StrategyInvariantError("injected fault")
        return observe_color(self, e, color)
    return "observe_color", observe


W = 4


@pytest.mark.parametrize("kind, k, late", [("derail", W, False)])
def test_injected_chain_index_faults_are_reported_as_a_replay_per_chain_index_did(
        monkeypatch, kind, k, late):
    """A builder fault injected into the main replay's index w gives the
    same violations either way."""
    t, _ = run_game(make_strategy("szemeredi", W), FirstFit())
    n = len(t.rounds)
    target = n - 3 if late else n // 2
    monkeypatch.setattr(Builder, *_derail(k, target))
    got = verify_transcript(t)
    assert got == verify_with_a_replay_per_chain_index(t)
    assert got


def first_fault_of_spliced_hosts(s, t: Transcript, low: set[int]) -> str | None:
    """The first relation fault of the hosts ``poset_oracles.splice`` tunes to
    the low block ``low`` from the main replay's two: the round of the first
    element whose rows, restricted to older ids, differ from the replayed
    poset's, below checked before above."""
    p = s.poset
    tuned = splice(*(h.restrict(p._elements) for h in s.orders), low)
    rows = _realized_rows(list(tuned), len(p._below))
    for e in p._elements:
        for side, got, presented in zip(("below", "above"), rows, (p._below, p._above)):
            if (got[e] ^ presented[e]) & (1 << e) - 1:
                return f"round {t.rounds[e - 1].round}: relations {side} the new element differ"
    return None


def moved_blocks(s, k: int, late: bool) -> list[list[int]]:
    """The low blocks of the played szemeredi strategy ``s``, chain index k's
    with the first (or last) point of the next wider instance moved in, which
    leaves every other chain index's low block as it was."""
    blocks = s._bank.blocks(s.w - 1)
    points = set(s.poset._elements).difference(*blocks)
    wider = blocks[k] if k < len(blocks) else [x for x in s.orders[0].sequence if x in points]
    x = wider[-1] if late else wider[0]
    return [[*b, x] if i == k - 1 else [y for y in b if y != x] for i, b in enumerate(blocks)]


@pytest.mark.parametrize("k, late", [(1, False), (2, True), (3, True)])
def test_a_point_moved_into_one_low_block_is_named_by_its_round(monkeypatch, k, late):
    """Chain index k's low block gains a point (``moved_blocks``).  Its
    spliced hosts present other relations, so the check names chain index k
    and the first round whose relations differ there, as splicing its hosts
    says, and nothing else: the main replay is clean."""
    s = make_strategy("szemeredi", W)
    t, _ = run_game(s, FirstFit())
    moved = moved_blocks(s, k, late)
    monkeypatch.setattr(adversaries._Bank, "blocks", lambda bank, w: [list(b) for b in moved])
    fault = first_fault_of_spliced_hosts(s, t, set().union(*moved[:k]))
    assert fault is not None
    assert verify_transcript(t) == [f"chain index {k} presents a different game: {fault}"]


def _played(w: int, opponent):
    s = make_strategy("szemeredi", w)
    t, _ = run_game(s, FirstFit() if opponent == "first-fit" else RandomValid(opponent))
    return s, t, list(tampered(t, 1))


PLAYED = [_played(w, opponent) for w in range(3, 6) for opponent in ("first-fit", 0, 1)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PLAYED), st.data())
def test_a_moved_low_block_on_a_tampered_transcript_is_checked_against_the_poset(game, data):
    """A tampered transcript, verified with one chain index's low block
    moved (``moved_blocks``).  Each chain index whose spliced hosts differ
    from the replayed poset is named, at the first id whose rows differ,
    whether or not the main replay reports that round too; every other
    violation is what a replay per chain index reports."""
    s, t, cases = game
    k, late = data.draw(st.integers(1, t.w - 1)), data.draw(st.booleans())
    name, bad = data.draw(st.sampled_from(cases))
    moved = moved_blocks(s, k, late)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adversaries._Bank, "blocks", lambda bank, w: [list(b) for b in moved])
        got = verify_transcript(bad)
    expected = []
    if len(bad.rounds) >= t.w * (t.w + 1) // 2:
        replayed = make_strategy("szemeredi", t.w)
        arena._replay(replayed, bad)
        for j in range(1, t.w):
            fault = first_fault_of_spliced_hosts(replayed, bad, set().union(*moved[:j]))
            if fault is not None:
                expected.append(f"chain index {j} presents a different game: {fault}")
    assert [x for x in got if x.startswith("chain index")] == expected, name
    assert [x for x in got if not x.startswith("chain index")] == [
        x for x in verify_with_a_replay_per_chain_index(bad) if not x.startswith("chain index")], name


def test_rounds_the_main_replay_never_reached_are_left_to_it(monkeypatch):
    """The main replay derails halfway, its point placed in the scan host
    alone; a color recorded after that breaks a chain.  Every chain index
    derails where the main replay does, so the spliced hosts hold the main
    poset's points only, and the rounds after it are the main replay's to
    report: the game was cut short."""
    s = make_strategy("szemeredi", W)
    t, _ = run_game(s, FirstFit())
    n = len(t.rounds)
    r = n - 2
    x = next(x for x in range(1, r) if not s.poset.comparable(x, r))
    rows = list(t.rounds)
    rows[r - 1] = dataclasses.replace(rows[r - 1], color=rows[x - 1].color)
    bad = _with_rows(t, rows)
    place_next = Builder.place_next

    def place(self, e):
        if self.spec.family == "stack" and e == n // 2:
            raise StrategyInvariantError("injected fault")
        return place_next(self, e)

    monkeypatch.setattr(Builder, "place_next", place)
    assert verify_transcript(bad) == [
        f"round {n // 2}: recorded colors derail the strategy: injected fault",
        "transcript ends before the game is over",
    ]


def test_a_game_played_by_a_faulty_chain_index_is_named_by_the_main_replay(monkeypatch):
    """A transcript played by chain index 1 with a misplaced point, then
    recolored there.  The main replay's relations differ from the rows
    there.  Chain index 1, spliced from the main replay's hosts, presents
    the main replay's game, so it adds nothing, as a replay tuned to it
    adds nothing."""
    monkeypatch.setattr(Builder, *_misplace(1, 11))
    t, _ = run_game(make_strategy("szemeredi", W, k=1), FirstFit())
    monkeypatch.undo()
    rows = list(t.rounds)
    rows[10] = dataclasses.replace(rows[10], color=6)
    bad = _with_rows(t, rows)
    got = verify_transcript(bad)
    assert got == verify_with_a_replay_per_chain_index(bad)
    assert any(v.startswith("round 11: relations") for v in got)
    assert not any(v.startswith("chain index") for v in got)


@st.composite
def host_pairs(draw, n_max: int = 12):
    """Two orders of 1..n, and a low block grown by a few blocks."""
    ids = list(range(1, draw(st.integers(1, n_max)) + 1))
    scan = LinearOrder(draw(st.permutations(ids)))
    stack = LinearOrder(draw(st.permutations(ids)))
    blocks = draw(st.lists(st.sets(st.sampled_from(ids)), min_size=1, max_size=3))
    return scan, stack, blocks


def _rows(scan: LinearOrder, stack: LinearOrder):
    return _realized_rows([scan, stack], len(scan) + 1)


def assert_chain_index_rows_say_what_splices_say(scan, stack, blocks) -> None:
    """For each low block, ``_chain_index_rows`` accepts exactly when the two
    spliced hosts intersect to the poset of the two orders they came from,
    and otherwise gives the spliced hosts' rows."""
    low: set[int] = set()
    checks = arena._chain_index_rows(scan, stack, _rows(scan, stack), blocks)
    for block in blocks:
        low |= block
        pair = splice(scan, stack, low)
        rows = next(checks)
        assert (rows is None) == (intersect(pair) == intersect([scan, stack]))
        assert rows is None or rows == _rows(*pair)
    assert next(checks, None) is None


@settings(max_examples=300, deadline=None)
@given(host_pairs())
def test_the_cross_pair_check_accepts_exactly_the_splices_that_keep_the_poset(pairs):
    assert_chain_index_rows_say_what_splices_say(*pairs)


def _game_hosts(w: int, opponent: int | None):
    s = make_strategy("szemeredi", w)
    run_game(s, FirstFit() if opponent is None else RandomValid(opponent))
    return [list(h.sequence) for h in s.orders], [set(b) for b in s._bank.blocks(w - 1)]


GAME_HOSTS = [_game_hosts(w, opponent) for w in range(2, 6) for opponent in (None, 0, 1)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GAME_HOSTS), st.integers(0, 1), st.integers(0, 10**6), st.integers(0, 10**6))
def test_a_game_host_with_a_point_moved_is_accepted_only_if_the_splice_keeps_the_poset(
        game, host, point, to):
    """A played game's two hosts and low blocks, where most chain indices
    are accepted, with one point of one host moved elsewhere: acceptance
    still means that the spliced pair presents the poset of the two hosts."""
    hosts, blocks = game
    hosts = [list(h) for h in hosts]
    seq = hosts[host]
    seq.insert(to % len(seq), seq.pop(point % len(seq)))
    assert_chain_index_rows_say_what_splices_say(*map(LinearOrder, hosts), blocks)


def keeper_checks_of_spliced_hosts(rep, tag: str, hosts) -> list[str]:
    """``arena._check_order_separation`` of a hidden-host level as it was:
    the pair tuned to each chain index spliced from ``hosts`` by the union
    of the report's first k low blocks, restricted to each block."""
    pairs = [splice(*hosts, set().union(*rep.low_blocks[:k]))
             for k in range(1, len(rep.low_blocks) + 1)]
    v = []
    s1, s2 = set(rep.s1_points), set(rep.s2_points)
    for k, (scan, _) in enumerate(pairs, start=1):
        if k in rep.chains and scan.restrict(s1).sequence[: len(rep.chains[k])] != rep.chains[k]:
            v.append(f"{tag}: chain {k} is not lowest in its keeper order")
    top = rep.dual_chains.get(rep.width)
    for k, (_, stack) in enumerate(pairs, start=1):
        seq = stack.restrict(s2).sequence
        if top is not None and seq[len(seq) - len(top):] != top:
            v.append(f"{tag}: top mirrored chain is not highest in keeper order {k}")
    return v


def made_up_level(scan: LinearOrder, stack: LinearOrder, blocks, data) -> SimpleNamespace:
    """A hidden-host level report on two orders and their low blocks: its
    points split into a forcing and a mirrored block, its chains the true
    lowest points of the spliced scan hosts or random ones, its top mirrored
    chain the true top of a spliced stack host or a random one."""
    ids = sorted(set(scan.sequence))
    s2 = data.draw(st.sets(st.sampled_from(ids)))
    s1 = [x for x in ids if x not in s2]
    width = len(blocks)
    chains = {}
    for k in data.draw(st.sets(st.integers(1, width))):
        tuned = splice(scan, stack, set().union(*blocks[:k]))[0].restrict(s1).sequence
        size = data.draw(st.integers(0, len(s1)))
        chains[k] = tuned[:size] if data.draw(st.booleans()) else data.draw(st.permutations(s1))[:size]
    low = set().union(*blocks[: data.draw(st.integers(1, width))])
    top = splice(scan, stack, low)[1].restrict(s2).sequence
    size = data.draw(st.integers(0, len(top)))
    dual = data.draw(st.sampled_from([{}, {width: top[len(top) - size:]},
                                      {width: data.draw(st.permutations(sorted(s2)))[:size]}]))
    return SimpleNamespace(width=width, s1_points=s1, s2_points=sorted(s2), chains=chains,
                           dual_chains=dual, hosts=(scan, stack), low_blocks=[sorted(b) for b in blocks])


@settings(max_examples=300, deadline=None)
@given(host_pairs(), st.data())
def test_keeper_checks_say_what_the_spliced_hosts_say(pairs, data):
    scan, stack, blocks = pairs
    rep = made_up_level(scan, stack, blocks, data)
    assert arena._check_order_separation(None, rep, "level", [scan, stack]) == (
        keeper_checks_of_spliced_hosts(rep, "level", [scan, stack]))


@settings(max_examples=200, deadline=None)
@given(host_pairs(), st.integers(0, 10**6), st.integers(0, 10**6), st.data())
def test_a_stack_host_that_repeats_a_point_is_read_as_its_splices(pairs, point, to, data):
    """The stack host holds one point twice, so the two hosts are not one
    set: no chain index is accepted by its cross pairs, each one's rows are
    its spliced hosts', and the keeper checks say what those hosts say."""
    scan, stack, blocks = pairs
    seq = list(stack.sequence)
    seq.insert(to % (len(seq) + 1), seq[point % len(seq)])
    stack = LinearOrder(seq)
    low: set[int] = set()
    for block, rows in zip(blocks, arena._chain_index_rows(scan, stack, _rows(scan, stack), blocks)):
        low |= block
        assert rows == _realized_rows(list(splice(scan, stack, low)), len(scan) + 1)
    rep = made_up_level(scan, stack, blocks, data)
    assert arena._check_order_separation(None, rep, "level", [scan, stack]) == (
        keeper_checks_of_spliced_hosts(rep, "level", [scan, stack]))


def test_arena_imports_nothing_from_builders():
    """The verifier reads chain indices from the hosts' positions and keeps
    no strategy code for it: no import of ``olcp.builders`` in ``arena``."""
    tree = ast.parse(inspect.getsource(arena))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert "builders" not in imported and "olcp.builders" not in imported
    assert not any(getattr(value, "__module__", None) == "olcp.builders"
                   for value in vars(arena).values())


def levels_with_a_splice_per_chain_index(s, part: ChainPartition, reports) -> list[str]:
    """``arena._check_levels`` as it was: each level's hosts tuned to every
    chain index k are spliced from its two (``poset_oracles.splice``) by the union
    of its first k low blocks, their rows realized and compared with the
    level's, and read for the keeper checks."""
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

        pairs = [splice(*rep.hosts, set().union(*rep.low_blocks[:k]))
                 for k in range(1, len(rep.low_blocks) + 1)]
        level = p.restrict(rep.s1_points + rep.s2_points)
        for k, pair in enumerate(pairs, start=1):
            rows = _realized_rows([h.restrict(level._elements) for h in pair], len(level._below))
            y = _first_difference(*rows, level._below, level._above, level._elements)
            if y is not None:
                v.append(f"{tag}: hosts tuned to chain index {k} present other relations at {y}")
        s1, s2 = set(rep.s1_points), set(rep.s2_points)
        for k, (scan, _) in enumerate(pairs, start=1):
            if scan.restrict(s1).sequence[: len(rep.chains[k])] != rep.chains[k]:
                v.append(f"{tag}: chain {k} is not lowest in its keeper order")
        top = rep.dual_chains[rep.width]
        for k, (_, stack) in enumerate(pairs, start=1):
            seq = stack.restrict(s2).sequence
            if seq[len(seq) - len(top):] != top:
                v.append(f"{tag}: top mirrored chain is not highest in keeper order {k}")

    for i in range(len(sep_colors)):
        for j in range(i + 1, len(sep_colors)):
            shared = sep_colors[i] & sep_colors[j]
            if shared:
                v.append(f"levels {reports[i].width} and {reports[j].width} share separator "
                         f"color {min(shared)}")
    return v


def _lowest_moved_up(pair, host: int) -> tuple[LinearOrder, LinearOrder]:
    """``pair`` with the lowest point of host ``host`` (0: scan, 1: stack) at its top."""
    tuned = list(pair)
    lowest, *rest = tuned[host].sequence
    tuned[host] = LinearOrder([*rest, lowest])
    return tuple(tuned)


@pytest.mark.parametrize("opponent", ["first-fit", 0, 1, 2])
@pytest.mark.parametrize("w", range(1, 7))
def test_level_checks_say_what_a_splice_per_chain_index_said(w, opponent):
    """On a clean theorem1 game, and, for each level in turn, with the
    mirrored block joining the low block at chain index k + 1, not 1, or
    with the lowest point of one of the level's two hosts moved to its top.
    In the first case the scan hosts tuned to chain indices 1..k hold low
    forcing points below the mirrored block, so those chain indices present
    other relations; in the second every chain index does."""
    s = make_strategy("theorem1", w)
    t, _ = run_game(s, FirstFit() if opponent == "first-fit" else RandomValid(opponent))
    part = ChainPartition()
    for row in t.rounds:
        part.assign(row.element, row.color)
    reports = s.level_reports()
    assert arena._check_levels(s, part, reports) == levels_with_a_splice_per_chain_index(
        s, part, reports) == []
    for i, rep in enumerate(reports):
        k = i % rep.width + 1
        first, *rest = rep.low_blocks
        low_blocks = [[x for x in first if x not in rep.s2_points], *rest]
        if k < rep.width:
            low_blocks[k] = low_blocks[k] + rep.s2_points
        moved = list(reports)
        moved[i] = dataclasses.replace(rep, low_blocks=low_blocks)
        got = arena._check_levels(s, part, moved)
        assert got == levels_with_a_splice_per_chain_index(s, part, moved)
        assert sum(f"level {rep.width}: hosts tuned to" in x for x in got) == k
        moved[i] = dataclasses.replace(rep, hosts=_lowest_moved_up(rep.hosts, i % 2))
        got = arena._check_levels(s, part, moved)
        assert got == levels_with_a_splice_per_chain_index(s, part, moved)
        assert sum(f"level {rep.width}: hosts tuned to" in x for x in got) == rep.width
