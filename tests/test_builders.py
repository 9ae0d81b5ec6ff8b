"""Insertion-machine behavior: placement rules, stage changes, mirroring,
the kept scan target against a brute-force walk, and hosts tuned to any
chain index against their splice from the two tuned to k = w."""

from __future__ import annotations

import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olcp import (
    BOTTOM,
    TOP,
    Builder,
    BuilderSpec,
    FirstFit,
    LinearOrder,
    RandomValid,
    Region,
    StrategyInvariantError,
    make_strategy,
    run_game,
)
from olcp.adversaries import HiddenRealizerStrategy, _GameLevel
from olcp.builders import FAMILIES, Done, Stage1Ended
from olcp.poset import _tuned_hosts

from poset_oracles import splice


def drive(builder: Builder, colors) -> list[int]:
    """Feed a color script through a builder; return the host sequence."""
    e = 0
    it = iter(colors)
    while not builder.done:
        e += 1
        builder.place_next(e)
        builder.observe_color(e, next(it))
    return builder.host.sequence


def high_index(region: Region, host: LinearOrder) -> int:
    """Host index of the region's high bound: in-region points lie below it."""
    return len(host) if region.high is TOP else host.sequence.index(region.high)


# ---------------------------------------------------------------------------
# specs and regions


def test_spec_normalizes_nonpositive_k_to_w():
    assert BuilderSpec("scan", 0, 3).k == 3
    assert BuilderSpec("scan", -2, 5).k == 5


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        BuilderSpec("scam", 1, 1)
    with pytest.raises(ValueError):
        BuilderSpec("scan", 1, 1, orientation="sideways")
    with pytest.raises(ValueError):
        BuilderSpec("scan", 4, 3)


def test_child_spec_table():
    assert BuilderSpec("scan", 3, 3).child() == BuilderSpec("scan", 2, 2)
    assert BuilderSpec("stack", 1, 3).child() == BuilderSpec("stack", 1, 2)
    assert BuilderSpec("stack", 2, 2, "dual").child() == BuilderSpec("stack", 1, 1, "dual")


def test_width_zero_spec_is_born_done():
    b = Builder(BuilderSpec("scan", 0, 0), Region(BOTTOM, TOP), LinearOrder())
    assert b.done


def test_region_bounds_and_inversion():
    """A builder opens only on a region whose outside masks hold its bounds
    and do not overlap, since every placement's masks start from them: a
    region opened on a host's middle without its masks used to record the
    masks (0, 0) for its first point."""
    spec = BuilderSpec("stack", 2, 2)
    b = Builder(spec, Region(90, 91, 1 << 90, 1 << 91), LinearOrder([90, 91]))
    assert b._lo == 0
    b.place_next(1)
    assert b.masks == (1 << 90, 1 << 91)
    both = 1 << 90 | 1 << 91
    for region in (Region(90, 91), Region(90, 91, 1 << 90), Region(90, 91, 0, 1 << 91),
                   Region(90, TOP, both, 1 << 91), Region(BOTTOM, 91, 1 << 90, both)):
        with pytest.raises(StrategyInvariantError, match="does not match its outside masks"):
            Builder(spec, region, LinearOrder([90, 91]))


# ---------------------------------------------------------------------------
# placement discipline


def test_place_twice_without_color_is_an_error():
    b = Builder(BuilderSpec("scan", 2, 2), Region(BOTTOM, TOP), LinearOrder())
    b.place_next(1)
    with pytest.raises(StrategyInvariantError):
        b.place_next(2)


def test_color_for_the_wrong_point_is_an_error():
    b = Builder(BuilderSpec("scan", 2, 2), Region(BOTTOM, TOP), LinearOrder())
    b.place_next(1)
    with pytest.raises(StrategyInvariantError):
        b.observe_color(7, 1)


def test_finished_builder_refuses_work():
    b = Builder(BuilderSpec("scan", 1, 1), Region(BOTTOM, TOP), LinearOrder())
    b.place_next(1)
    events = b.observe_color(1, 1)
    assert [type(ev) for ev in events] == [Stage1Ended, Done]
    assert b.done
    with pytest.raises(StrategyInvariantError):
        b.place_next(2)


def test_stage_one_point_budget_is_enforced():
    """Stage one may touch at most 2w-1 points; a color script that never
    brings the w-th distinct color must trip the invariant."""
    b = Builder(BuilderSpec("stack", 3, 3), Region(BOTTOM, TOP), LinearOrder())
    for e in range(1, 6):
        b.place_next(e)
        b.observe_color(e, 1)
    b.place_next(6)
    with pytest.raises(StrategyInvariantError):
        b.observe_color(6, 1)


# ---------------------------------------------------------------------------
# hand-traced placements, width two


def test_scan_builder_trace():
    """k = w = 2: third point wedges below the first repeated color, the
    child then lands between the terminal and the point above it."""
    host = LinearOrder()
    b = Builder(BuilderSpec("scan", 2, 2), Region(BOTTOM, TOP), host)

    assert b.place_next(1) is None
    b.observe_color(1, 1)
    assert b.place_next(2) == 1
    b.observe_color(2, 1)
    assert host.sequence == [1, 2]

    # walk from the bottom: 1 carries a fresh color, 2 repeats it -> below 2
    assert b.place_next(3) == 1
    events = b.observe_color(3, 2)
    assert events == [Stage1Ended(3)]
    assert host.sequence == [1, 3, 2]
    assert b.instances()[1].spec == BuilderSpec("scan", 1, 1)
    assert b.instances()[1].region == Region(3, 2)

    assert b.place_next(4) == 3
    b.observe_color(4, 3)
    assert host.sequence == [1, 3, 4, 2]
    assert b.done


def test_stack_builder_trace():
    """k = w = 2 in the stack family piles upward, then the child burrows
    below the whole of stage one."""
    host = LinearOrder()
    b = Builder(BuilderSpec("stack", 2, 2), Region(BOTTOM, TOP), host)

    for e, color in ((1, 1), (2, 1)):
        b.place_next(e)
        b.observe_color(e, color)
    assert host.sequence == [1, 2]

    assert b.place_next(3) == 2
    b.observe_color(3, 2)
    assert b.instances()[1].region == Region(BOTTOM, 1)

    assert b.place_next(4) is None
    b.observe_color(4, 3)
    assert host.sequence == [4, 1, 2, 3]
    assert b.done


def test_scan_family_with_low_k_uses_stack_rule_first():
    """family scan, k < w: stage one piles; the child keeps the scan family
    and the same k, and sits under the first point."""
    host = LinearOrder()
    b = Builder(BuilderSpec("scan", 1, 2), Region(BOTTOM, TOP), host)
    for e, color in ((1, 1), (2, 1), (3, 2)):
        b.place_next(e)
        b.observe_color(e, color)
    assert host.sequence == [1, 2, 3]
    assert b.instances()[1].spec == BuilderSpec("scan", 1, 1)
    assert b.instances()[1].region == Region(BOTTOM, 1)


def test_events_bubble_up_when_the_innermost_child_finishes():
    host = LinearOrder()
    b = Builder(BuilderSpec("scan", 2, 2), Region(BOTTOM, TOP), host)
    script = iter([1, 1, 2, 3])
    events = []
    for e in range(1, 5):
        b.place_next(e)
        events = b.observe_color(e, next(script))
    assert [type(ev) for ev in events] == [Stage1Ended, Done, Done]
    assert [inst.spec.w for inst in b.instances()] == [2, 1]

    # Deeper roots: a fresh color on every point ends each stage one after
    # w points, and the last color finishes all w instances, one Done each.
    for family in FAMILIES:
        for w in (3, 4):
            b = Builder(BuilderSpec(family, w, w), Region(BOTTOM, TOP), LinearOrder())
            e = 0
            while not b.done:
                e += 1
                b.place_next(e)
                events = b.observe_color(e, e)
            assert e == w * (w + 1) // 2
            assert [type(ev) for ev in events] == [Stage1Ended] + [Done] * w
            assert [inst.spec.w for inst in b.instances()] == list(range(w, 0, -1))
            assert all(inst.done for inst in b.instances())
            with pytest.raises(StrategyInvariantError, match="finished builder"):
                b.place_next(e + 1)
            with pytest.raises(StrategyInvariantError, match="finished builder"):
                b.observe_color(e + 1, 1)


@pytest.mark.parametrize("family", ["scan", "stack"])
def test_foreign_insertions_below_the_region_do_not_mislead_the_builder(family):
    """An instance takes its anchor's host index from its low bound's index,
    found when it opened, plus its slot.  An element inserted into the host
    below the region between two rounds moves both bounds; the host checks
    the index it is handed, so anchors and child regions must still be
    what the host's sequence gives, and what a twin builder whose host
    never changed gives."""
    spec = BuilderSpec(family, 3, 3)
    script = feasible_script(spec, random.Random(5))
    host, twin_host = LinearOrder([90, 91]), LinearOrder([90, 91])
    b = Builder(spec, Region(90, 91, 1 << 90, 1 << 91), host)
    twin = Builder(spec, Region(90, 91, 1 << 90, 1 << 91), twin_host)
    for e, color in enumerate(script, start=1):
        host.insert_above(None, 1000 + e)
        inst = b.active()
        hi = high_index(inst.region, host)
        anchor = b.place_next(e)
        assert anchor == twin.place_next(e)
        if family == "stack":  # the stack rule piles directly under the region's top
            assert anchor == host.sequence[hi - 1]
        b.observe_color(e, color)
        twin.observe_color(e, color)
        if inst.terminal is not None and not b.done and family == "scan":
            # inst's stage one has just ended; its child sits above the terminal
            seq = host.sequence
            i = seq.index(inst.terminal)
            high = seq[i + 1] if i + 1 < high_index(inst.region, host) else inst.region.high
            assert b.active().region == Region(inst.terminal, high)
        assert [x.region for x in b.instances()] == [x.region for x in twin.instances()]
        assert [x for x in host.sequence if x < 1000] == twin_host.sequence
    assert b.done and twin.done


# ---------------------------------------------------------------------------
# dual orientation mirrors primal exactly


def feasible_script(spec: BuilderSpec, rng: random.Random) -> list[int]:
    """Drive a fresh builder with random colors that respect the stage-one
    point budget (a legal opponent always delivers the needed distinct color
    in time); return the script played."""
    b = Builder(spec, Region(BOTTOM, TOP), LinearOrder())
    script: list[int] = []
    e = 0
    while not b.done:
        e += 1
        inst = b.active()
        b.place_next(e)
        needed = inst.spec.w - len(inst.colors_seen)
        slots = (2 * inst.spec.w - 1) - (len(inst._in_host_order) - 1)  # e awaits its color
        if needed >= slots or not script or rng.random() < 0.4:
            color = max(script, default=0) + 1
        else:
            color = rng.choice(script)
        b.observe_color(e, color)
        script.append(color)
    return script


@pytest.mark.parametrize("family", ["scan", "stack"])
@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_dual_run_is_a_reflected_primal_run(family, w):
    rng = random.Random(w * 31 + len(family))
    for trial in range(20):
        spec = BuilderSpec(family, w, w)
        script = feasible_script(spec, rng)
        primal = Builder(spec, Region(BOTTOM, TOP), LinearOrder())
        dual = Builder(
            BuilderSpec(family, w, w, "dual"), Region(BOTTOM, TOP), LinearOrder()
        )
        seq_p = drive(primal, iter(script))
        seq_d = drive(dual, iter(script))
        assert seq_d == seq_p[::-1], (family, w, trial, script)


def test_dual_mirror_holds_for_every_k():
    rng = random.Random(9)
    for w in (2, 3):
        for k in range(1, w + 1):
            spec = BuilderSpec("scan", k, w)
            script = feasible_script(spec, rng)
            p = Builder(spec, Region(BOTTOM, TOP), LinearOrder())
            d = Builder(BuilderSpec("scan", k, w, "dual"), Region(BOTTOM, TOP), LinearOrder())
            assert drive(d, iter(script)) == drive(p, iter(script))[::-1]


# ---------------------------------------------------------------------------
# the kept scan target against the walk it replaces


def walked_scan_target(b: Builder, script: list[int]) -> tuple[int | None, set[int]]:
    """Oracle: walk the instance's own stage-one points from the near end
    of its region, point e colored ``script[e - 1]``; return the host-order
    slot of the first whose color repeats an earlier one (None if all are
    distinct) and the colors walked before it."""
    pts = b._in_host_order
    walk = range(len(pts) - 1, -1, -1) if b.spec.dual else range(len(pts))
    seen: set[int] = set()
    for i in walk:
        c = script[pts[i] - 1]
        if c in seen:
            return i, seen
        seen.add(c)
    return None, seen


@st.composite
def scan_rule_specs(draw) -> BuilderSpec:
    """Root specs that start on the scan rule: family scan with k = w, or
    family stack with k < w."""
    family = draw(st.sampled_from(FAMILIES))
    w = draw(st.integers(1 if family == "scan" else 2, 6))
    k = w if family == "scan" else draw(st.integers(1, w - 1))
    return BuilderSpec(family, k, w, draw(st.sampled_from(["primal", "dual"])))


@settings(max_examples=150, deadline=None)
@given(scan_rule_specs(), st.integers(0, 2**32 - 1), st.booleans())
def test_kept_scan_target_matches_the_walk(spec, seed, foreign):
    """After every color, the active instance's kept target and walked
    colors are what the walk over its points gives.  With ``foreign``, an
    element lands at the host's bottom before every placement, so the host
    index each instance found for its low bound when it opened is stale."""
    script = feasible_script(spec, random.Random(seed))
    host, twin_host = LinearOrder([90, 91]), LinearOrder([90, 91])
    b = Builder(spec, Region(90, 91, 1 << 90, 1 << 91), host)
    twin = Builder(spec, Region(90, 91, 1 << 90, 1 << 91), twin_host)
    for e, color in enumerate(script, start=1):
        if foreign:
            host.insert_above(None, 1000 + e)
        inst = b.active()
        assert b.place_next(e) == twin.place_next(e)
        b.observe_color(e, color)
        twin.observe_color(e, color)
        if (inst.spec.family == "scan") == (inst.spec.k == inst.spec.w):  # the scan rule
            assert (inst._target, inst._walked) == walked_scan_target(inst, script)
        assert [x for x in host.sequence if x < 1000] == twin_host.sequence
    assert b.done and twin.done


# ---------------------------------------------------------------------------
# hosts tuned to any k, spliced from the two tuned to k = w


def tuned_runs(w: int, colors) -> dict[int, list[Builder]]:
    """Root builders of both families tuned to each k = 1..w, each fed
    ``colors`` until the script ends, the game does, or it derails."""
    runs = {}
    for k in range(1, w + 1):
        runs[k] = []
        for family in FAMILIES:
            b = Builder(BuilderSpec(family, k, w), Region(BOTTOM, TOP), LinearOrder())
            for e, color in enumerate(colors, start=1):
                if b.done:
                    break
                try:
                    b.place_next(e)
                    b.observe_color(e, color)
                except StrategyInvariantError:
                    break
            runs[k].append(b)
    return runs


def assert_splices_match(w: int, colors) -> None:
    runs = tuned_runs(w, colors)
    scan, stack = runs[w]
    for k in range(1, w + 1):
        low = {x for inst in scan.instances() if inst.spec.w <= k for x in inst._in_host_order}
        assert splice(scan.host, stack.host, low) == (runs[k][0].host, runs[k][1].host), k


@st.composite
def color_scripts(draw) -> tuple[int, list[int]]:
    """A width and a color script: a complete game's colors cut anywhere,
    or arbitrary colors, which may overrun a stage one and derail."""
    w = draw(st.integers(1, 8))
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        colors = feasible_script(BuilderSpec("scan", w, w), rng)
        return w, colors[: draw(st.integers(0, len(colors)))]
    return w, draw(st.lists(st.integers(1, w + 1), max_size=w * w))


@settings(max_examples=300, deadline=None)
@given(color_scripts())
def test_spliced_hosts_equal_builders_tuned_to_k_on_scripts(script):
    """A prefix of the colors gives a prefix of every game, so the splice
    holds mid-game and up to a derailment, as a partial replay needs."""
    assert_splices_match(*script)


@pytest.mark.parametrize("opponent", ["first-fit", 0, 1, 2, 3])
@pytest.mark.parametrize("w", range(1, 9))
def test_spliced_hosts_equal_builders_tuned_to_k_in_games(w, opponent):
    partitioner = FirstFit() if opponent == "first-fit" else RandomValid(opponent)
    t, _ = run_game(make_strategy("szemeredi", w), partitioner)
    assert_splices_match(w, [row.color for row in t.rounds])


class EveryChainIndexLevel(_GameLevel):
    """A theorem1 level with fresh scan and stack hosts for each chain
    index, each grown by its own builders, and never spliced."""

    def __init__(self, poset, colors, width):
        specs = [BuilderSpec(family, k, width) for family in FAMILIES for k in range(1, width + 1)]
        self.hosts = [LinearOrder() for _ in specs]
        super().__init__(poset, colors, width, self.hosts, specs,
                         [Region(BOTTOM, TOP)] * len(specs), (1, width))

    def _splice_to_t(self):
        pass


class EveryChainIndex(HiddenRealizerStrategy):
    """theorem1 played level by level in an ``EveryChainIndexLevel`` each;
    the colors alone drive it, and it is never reported."""

    def _new_level(self, width, regions):
        return EveryChainIndexLevel(self.poset, self.colors, width)


@pytest.mark.parametrize("opponent", ["first-fit", 0, 1, 2])
@pytest.mark.parametrize("w", range(1, 7))
def test_spliced_level_hosts_equal_builders_tuned_to_k(w, opponent):
    """A theorem1 level's hosts tuned to each k, mirrored block included,
    are its two reported hosts spliced by its first k low blocks."""
    s = make_strategy("theorem1", w)
    t, _ = run_game(s, FirstFit() if opponent == "first-fit" else RandomValid(opponent))
    oracle = EveryChainIndex(w)
    for row in t.rounds:
        oracle.next_move()
        oracle.observe(row.color)
    assert len(s._levels) == len(oracle._levels) == w
    for rep, every in zip(s.level_reports(), oracle._levels):
        for k in range(1, rep.width + 1):
            low = set().union(*rep.low_blocks[:k])
            assert splice(*rep.hosts, low) == (every.hosts[k - 1], every.hosts[rep.width + k - 1])


@st.composite
def tuned_inputs(draw, one_set: bool) -> tuple[list[int], list[int], list[set[int]]]:
    """Two orders, of one id set or, unless ``one_set``, of any ids with
    repeats, and nested low sets, which may name ids outside the orders."""
    ids = st.integers(1, 40)
    if one_set:
        scan = draw(st.lists(ids, unique=True, max_size=30))
        stack = draw(st.permutations(scan))
    else:
        scan, stack = draw(st.lists(ids, max_size=30)), draw(st.lists(ids, max_size=30))
    return scan, stack, [*accumulate(draw(st.lists(st.sets(ids), max_size=6)), set.union)]


@settings(max_examples=300, deadline=None)
@given(tuned_inputs(one_set=True))
def test_tuned_hosts_give_the_splice_on_one_id_set(inputs):
    """The formula the strategy and the verifier tune hidden hosts by gives
    the oracle's two sequences for every low set."""
    scan, stack, lows = inputs
    for low in lows:
        got = tuple(map(list, _tuned_hosts(scan, stack, low.__contains__)))
        assert got == tuple(o.sequence for o in splice(LinearOrder(scan), LinearOrder(stack), low))


@settings(max_examples=300, deadline=None)
@given(tuned_inputs(one_set=False))
def test_tuned_hosts_take_orders_of_other_id_sets(inputs):
    """Where the oracle's refill may run out, the tuned stack host keeps a
    low slot's own id once the stack order's low ids are used up."""
    scan, stack, lows = inputs
    for low in lows:
        tuned_scan, tuned_stack = map(list, _tuned_hosts(scan, stack, low.__contains__))
        assert len(tuned_scan) == sum(x in low for x in scan) + sum(x not in low for x in stack)
        assert len(tuned_stack) == len(scan)
