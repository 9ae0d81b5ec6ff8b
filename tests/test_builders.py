"""Insertion-machine behavior: placement rules, stage changes, mirroring."""

from __future__ import annotations

import random

import pytest

from olcp import (
    BOTTOM,
    TOP,
    Builder,
    BuilderSpec,
    LinearOrder,
    Region,
    StrategyInvariantError,
)
from olcp.builders import FAMILIES, Done, Stage1Ended


def drive(builder: Builder, colors) -> list[int]:
    """Feed a color script through a builder; return the host sequence."""
    e = 0
    it = iter(colors)
    while not builder.done:
        e += 1
        builder.place_next(e)
        builder.observe_color(e, next(it))
    return builder.host.sequence


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
    host = LinearOrder([3, 1, 2])
    assert Region(BOTTOM, TOP).bounds(host) == (-1, 3)
    assert Region(3, 2).bounds(host) == (0, 2)
    with pytest.raises(StrategyInvariantError):
        Region(2, 3).bounds(host)


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
    """Builders reuse where they last saw their region's bounds.  An element
    inserted into the host below the region between two rounds moves both
    bounds; anchors and child regions must still be what a fresh
    ``Region.bounds`` gives, and what a twin builder whose host never
    changed gives."""
    spec = BuilderSpec(family, 3, 3)
    script = feasible_script(spec, random.Random(5))
    host, twin_host = LinearOrder([90, 91]), LinearOrder([90, 91])
    b = Builder(spec, Region(90, 91), host)
    twin = Builder(spec, Region(90, 91), twin_host)
    for e, color in enumerate(script, start=1):
        host.insert_above(None, 1000 + e)
        inst = b.active()
        _, hi = inst.region.bounds(host)
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
            _, hi = inst.region.bounds(host)
            high = seq[i + 1] if i + 1 < hi else inst.region.high
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
        slots = (2 * inst.spec.w - 1) - len(inst.stage1_points)
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
