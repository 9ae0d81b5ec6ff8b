"""Adversary strategies that force many colors out of any chain partitioner.

Three strategies are provided, all presenting a poset of width at most w
one point per round:

``szemeredi``
    A single two-host forcing game.  It keeps one hidden linear order per
    builder family and presents exactly the relations common to both, which
    pins the partitioner down to at least w(w+1)/2 colors.  The certificate
    is a family of pairwise-incomparable rainbow chains, one of each size
    1..w.

``theorem1``
    A staged game whose presented poset always admits a two-order realizer
    (kept hidden while playing, extractable afterwards).  Each width level
    runs the two-host game, then a mirrored copy of it completely below,
    and picks a separator chain whose colors the deeper levels can never
    reuse; the color counts of the separators add up level by level.

``theorem2``
    The same staged idea, but the d linear orders realizing the presented
    poset are global, grown insertion-only, and *shown to the partitioner
    every round*.  The forced color count degrades gracefully with d.

Strategies follow a small protocol: ``done()``, ``next_move() -> Move``,
``observe(color)``.  The strategy owns the presented poset; the arena owns
the coloring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterable, Sequence

from .builders import BOTTOM, TOP, Builder, BuilderSpec, Region
from .errors import StrategyInvariantError
from .poset import ChainPartition, LinearOrder, Poset, Realizer

STRATEGY_NAMES = ("szemeredi", "theorem1", "theorem2")


# ---------------------------------------------------------------------------
# forced-color bounds


def szemeredi_bound(w: int) -> int:
    """Colors forced on any partitioner by the two-host game at width w."""
    return w * (w + 1) // 2


def theorem1_level_threshold(width: int) -> float:
    """Distinct colors one level's separator chain is guaranteed to carry."""
    return 2 * width - math.sqrt(2 * width)

def theorem1_total(w: int) -> float:
    """Colors forced by the hidden-realizer game: level thresholds summed."""
    return sum(theorem1_level_threshold(i) for i in range(1, w + 1))


def theorem2_level_threshold(width: int, dim: int) -> float:
    """Separator guarantee at one level when d visible orders are kept."""
    return 2 * width - width / (dim - 1) - (dim - 2) / 2


def theorem2_total(w: int, dim: int) -> float:
    return sum(theorem2_level_threshold(i, dim) for i in range(1, w + 1))


# ---------------------------------------------------------------------------
# moves and certificates


@dataclass(frozen=True)
class Move:
    """One presented point: its relations to everything already shown.

    ``below``/``above`` are full strict down-/up-sets.  ``level`` is the
    width of the game level (or sub-game) the point belongs to, ``stage``
    is 1 for forcing points and 2 for the mirrored points underneath.
    ``ext`` is only set when the realizer is public: per visible order,
    the element the new point was inserted directly above (None = bottom).
    """

    element: int
    below: frozenset[int]
    above: frozenset[int]
    level: int
    stage: int
    ext: tuple[int | None, ...] | None = None


@dataclass
class RainbowChains:
    """Certificate of the two-host game: chains indexed by size.

    Within ``universe`` the chains must be pairwise completely
    incomparable, jointly rainbow, of sizes exactly 1..w, and their union
    downward closed.  ``verify`` returns human-readable violations.
    """

    chains: dict[int, list[int]]
    universe: frozenset[int]

    def verify(self, p: Poset, part: ChainPartition) -> list[str]:
        problems = []
        for size in sorted(self.chains):
            pts = self.chains[size]
            if len(pts) != size:
                problems.append(f"chain {size} has {len(pts)} points")
            stray = set(pts) - self.universe
            if stray:
                problems.append(f"chain {size} leaves its game: {sorted(stray)}")
            for i, x in enumerate(pts):
                for y in pts[i + 1 :]:
                    if not p.comparable(x, y):
                        problems.append(f"chain {size}: ({x}, {y}) incomparable")
        sizes = sorted(self.chains)
        for i, s in enumerate(sizes):
            for s2 in sizes[i + 1 :]:
                for x in self.chains[s]:
                    for y in self.chains[s2]:
                        if p.comparable(x, y):
                            problems.append(
                                f"chains {s} and {s2} touch: {x} and {y} comparable"
                            )
        union = {x for pts in self.chains.values() for x in pts}
        if not part.is_rainbow(union):
            problems.append("chain union repeats a color")
        outside = self.universe - union
        if outside:
            for c in union:
                gap = outside & p.below(c)
                if gap:
                    problems += [f"union not downward closed: {x} < {c}"
                                 for x in self.universe if x in gap]
        return problems


@dataclass
class LevelReport:
    """What one width level of a staged game did, for reporting and checks."""

    width: int
    t: int
    threshold: float
    separator_colors: int
    separator: list[int]
    s1_points: list[int]
    s2_points: list[int]
    chains: dict[int, list[int]]
    dual_chains: dict[int, list[int]]
    scan_hosts: list[LinearOrder] | None = None
    stack_hosts: list[LinearOrder] | None = None


def _chain_sorted(p: Poset, pts: Iterable[int]) -> list[int]:
    """Sort a set known to be a chain from bottom to top."""
    def cmp(a: int, b: int) -> int:
        if a == b:
            return 0
        return -1 if p.less(a, b) else 1

    return sorted(pts, key=cmp_to_key(cmp))


def _subseq(order: LinearOrder, keep: set[int]) -> list[int]:
    return [x for x in order.sequence if x in keep]


def _intersect_relations(hosts: Sequence[LinearOrder], e: int) -> tuple[set[int], set[int]]:
    """Strict down-/up-set of e in the intersection of the host orders."""
    pos = hosts[0].positions()
    pe = pos[e]
    below = {x for x, i in pos.items() if i < pe}
    above = {x for x, i in pos.items() if i > pe}
    for h in hosts[1:]:
        if not below and not above:
            break
        pos = h.positions()
        pe = pos[e]
        below = {x for x in below if pos[x] < pe}
        above = {x for x in above if pos[x] > pe}
    return below, above


# ---------------------------------------------------------------------------
# lockstep builder bank


class _Bank:
    """Root builders over parallel hosts, fed the same points in lockstep.

    All builders descend their recursions simultaneously; any divergence is
    an implementation bug and raises StrategyInvariantError.
    """

    __slots__ = ("builders",)

    def __init__(self, builders: Sequence[Builder]):
        self.builders = list(builders)

    @property
    def done(self) -> bool:
        flags = {b.done for b in self.builders}
        if len(flags) != 1:
            raise StrategyInvariantError("builders fell out of lockstep")
        return flags.pop()

    def active_width(self) -> int:
        widths = {b.active().spec.w for b in self.builders}
        if len(widths) != 1:
            raise StrategyInvariantError("builders disagree on the active width")
        return widths.pop()

    def place(self, e: int) -> list[int | None]:
        return [b.place_next(e) for b in self.builders]

    def observe(self, e: int, color: int) -> None:
        streams = set()
        for b in self.builders:
            events = b.observe_color(e, color)
            streams.add(tuple((type(ev).__name__, getattr(ev, "terminal", None)) for ev in events))
        if len(streams) > 1:
            raise StrategyInvariantError("builders disagreed about stage transitions")

    def instances(self) -> list[Builder]:
        """The recursion chain, outermost first, cross-checked across hosts."""
        rows = [list(b.instances()) for b in self.builders]
        if len({len(r) for r in rows}) != 1:
            raise StrategyInvariantError("builder recursion depths diverged")
        for col in zip(*rows):
            if len({tuple(b.stage1_points) for b in col}) != 1 or len({b.terminal for b in col}) != 1:
                raise StrategyInvariantError("instance records diverged across hosts")
        return rows[0]


# ---------------------------------------------------------------------------
# strategy protocol


class Strategy:
    """Base for adversary strategies: owns the poset, records colors."""

    name = "?"

    def __init__(self, w: int):
        if w < 1:
            raise ValueError("width must be at least 1")
        self.w = w
        self.d: int | None = None
        self.poset = Poset()
        self.colors: dict[int, int] = {}
        self._pending: Move | None = None

    def done(self) -> bool:
        raise NotImplementedError

    def _place(self, e: int) -> tuple[set[int], set[int], int, int, tuple[int | None, ...] | None]:
        raise NotImplementedError

    def _after_color(self, e: int, color: int) -> None:
        raise NotImplementedError

    def bound(self) -> float:
        raise NotImplementedError

    def next_move(self) -> Move:
        if self.done():
            raise StrategyInvariantError("the game is over")
        if self._pending is not None:
            raise StrategyInvariantError(
                f"point {self._pending.element} still awaits its color"
            )
        e = len(self.poset) + 1
        below, above, level, stage, ext = self._place(e)
        got = self.poset._add_closed(set(below), set(above))
        if got != e:
            raise StrategyInvariantError("element ids fell out of sequence")
        move = Move(e, frozenset(below), frozenset(above), level, stage, ext)
        self._pending = move
        return move

    def observe(self, color: int) -> None:
        if self._pending is None:
            raise StrategyInvariantError("no point is awaiting a color")
        e = self._pending.element
        self._pending = None
        self.colors[e] = color
        self._after_color(e, color)

    def realizer_snapshot(self) -> tuple[LinearOrder, ...] | None:
        """Visible realizer, when this strategy plays with one on the table."""
        return None


class SzemerediStrategy(Strategy):
    """The two-host forcing game at width w.

    The presented poset is the same whichever chain index k the hidden
    hosts are tuned to; k only moves the certified chains around inside
    them.
    """

    name = "szemeredi"

    def __init__(self, w: int, k: int | None = None):
        super().__init__(w)
        self.k = w if k is None else k
        if not 1 <= self.k <= w:
            raise ValueError(f"need 1 <= k <= w, got k={self.k}")
        self.scan_host = LinearOrder()
        self.stack_host = LinearOrder()
        self._bank = _Bank([
            Builder(BuilderSpec("scan", self.k, w), Region(BOTTOM, TOP), self.scan_host),
            Builder(BuilderSpec("stack", self.k, w), Region(BOTTOM, TOP), self.stack_host),
        ])

    def done(self) -> bool:
        return self._bank.done

    def bound(self) -> float:
        return float(szemeredi_bound(self.w))

    def _place(self, e):
        level = self._bank.active_width()
        self._bank.place(e)
        below, above = _intersect_relations([self.scan_host, self.stack_host], e)
        return below, above, level, 1, None

    def _after_color(self, e, color):
        self._bank.observe(e, color)

    def rainbow(self) -> RainbowChains:
        """The certificate chains, one per sub-game width."""
        if not self.done():
            raise StrategyInvariantError("certificate requested mid-game")
        chains = {}
        for inst in self._bank.instances():
            pts = self.poset.down_set(inst.terminal) & set(inst.stage1_points)
            chains[inst.spec.w] = _chain_sorted(self.poset, pts)
        return RainbowChains(chains, frozenset(self.poset.elements))


# ---------------------------------------------------------------------------
# staged realizer games


class _GameLevel:
    """One width level of a staged game: forcing stage, mirrored stage,
    separator choice, then hand-off to the next level down.

    A level holds the owning strategy's poset and color record, never the
    strategy itself, so a finished game is freed without the cycle
    collector.
    """

    def __init__(self, poset: Poset, colors: dict[int, int], width: int):
        self.poset = poset
        self.colors = colors
        self.width = width
        self.stage = 1
        self.s1_points: list[int] = []
        self.s2_points: list[int] = []
        self.chains: dict[int, list[int]] = {}
        self.dual_chains: dict[int, list[int]] = {}
        self.t: int | None = None
        self.separator: list[int] = []
        self.separator_colors = 0
        self.child: _GameLevel | None = None
        self._bank: _Bank | None = None
        self._dual_bank: _Bank | None = None

    # hooks -----------------------------------------------------------------

    def _relation_hosts(self) -> Sequence[LinearOrder]:
        raise NotImplementedError

    def _extra_relations(self) -> tuple[frozenset[int], frozenset[int]]:
        return frozenset(), frozenset()

    def _make_dual_bank(self) -> _Bank:
        raise NotImplementedError

    def _make_child(self) -> "_GameLevel | None":
        raise NotImplementedError

    def _t_range(self) -> tuple[int, int]:
        raise NotImplementedError

    def _threshold(self) -> float:
        raise NotImplementedError

    _strict_threshold = True

    # stage machine -----------------------------------------------------------

    @property
    def complete(self) -> bool:
        return self.stage == 3 and (self.child is None or self.child.complete)

    def active_level(self) -> "_GameLevel | None":
        if self.stage < 3:
            return self
        if self.child is not None and not self.child.complete:
            return self.child.active_level()
        return None

    def place(self, e: int) -> tuple[set[int], set[int], int, list[int | None]]:
        bank = self._bank if self.stage == 1 else self._dual_bank
        assert bank is not None
        anchors = bank.place(e)
        below, above = _intersect_relations(self._relation_hosts(), e)
        extra_below, extra_above = self._extra_relations()
        below |= extra_below
        above |= extra_above
        return below, above, self.stage, anchors

    def observe(self, e: int, color: int) -> None:
        if self.stage == 1:
            self.s1_points.append(e)
            self._bank.observe(e, color)
            if self._bank.done:
                self.chains = self._extract(self._bank, dual=False)
                self._dual_bank = self._make_dual_bank()
                self.stage = 2
        elif self.stage == 2:
            self.s2_points.append(e)
            self._dual_bank.observe(e, color)
            if self._dual_bank.done:
                self.dual_chains = self._extract(self._dual_bank, dual=True)
                self._choose_separator()
                self.stage = 3
                self.child = self._make_child()
        else:
            raise StrategyInvariantError("observation after the level finished")

    def _extract(self, bank: _Bank, dual: bool) -> dict[int, list[int]]:
        p = self.poset
        out = {}
        for inst in bank.instances():
            reach = p.up_set(inst.terminal) if dual else p.down_set(inst.terminal)
            out[inst.spec.w] = _chain_sorted(p, reach & set(inst.stage1_points))
        return out

    def _choose_separator(self) -> None:
        colors = self.colors
        lo, hi = self._t_range()
        top_dual = set(self.dual_chains[self.width])
        best_t, best = lo, -1
        for t in range(lo, hi + 1):
            n = len({colors[x] for x in set(self.chains[t]) | top_dual})
            if n > best:
                best_t, best = t, n
        self.t = best_t
        self.separator = _chain_sorted(self.poset, set(self.chains[best_t]) | top_dual)
        self.separator_colors = best
        threshold = self._threshold()
        ok = best > threshold if self._strict_threshold else best >= threshold
        if not ok:
            raise StrategyInvariantError(
                f"separator carries {best} colors at width {self.width}, "
                f"needs {'above' if self._strict_threshold else 'at least'} {threshold}"
            )

    def report(self) -> LevelReport:
        return LevelReport(
            width=self.width,
            t=self.t,
            threshold=self._threshold(),
            separator_colors=self.separator_colors,
            separator=list(self.separator),
            s1_points=list(self.s1_points),
            s2_points=list(self.s2_points),
            chains={k: list(v) for k, v in self.chains.items()},
            dual_chains={k: list(v) for k, v in self.dual_chains.items()},
        )


class _HiddenLevel(_GameLevel):
    """Level with its own fresh hidden hosts; cross-level relations are
    carried by the accumulated wrap sets."""

    def __init__(self, poset: Poset, colors: dict[int, int], width: int,
                 extra_below: frozenset[int], extra_above: frozenset[int]):
        super().__init__(poset, colors, width)
        self.extra_below = extra_below
        self.extra_above = extra_above
        self.scan_hosts = [LinearOrder() for _ in range(width)]
        self.stack_hosts = [LinearOrder() for _ in range(width)]
        builders = [
            Builder(BuilderSpec("scan", kk, width), Region(BOTTOM, TOP), host)
            for kk, host in enumerate(self.scan_hosts, start=1)
        ] + [
            Builder(BuilderSpec("stack", kk, width), Region(BOTTOM, TOP), host)
            for kk, host in enumerate(self.stack_hosts, start=1)
        ]
        self._bank = _Bank(builders)

    def _relation_hosts(self):
        return self.scan_hosts + self.stack_hosts

    def _extra_relations(self):
        return self.extra_below, self.extra_above

    def _make_dual_bank(self) -> _Bank:
        w = self.width
        duals = [
            Builder(BuilderSpec("stack", w, w, "dual"), Region(BOTTOM, h.sequence[0]), h)
            for h in self.scan_hosts
        ] + [
            Builder(BuilderSpec("scan", w, w, "dual"), Region(BOTTOM, h.sequence[0]), h)
            for h in self.stack_hosts
        ]
        return _Bank(duals)

    def _t_range(self):
        return 1, self.width

    def _threshold(self):
        return theorem1_level_threshold(self.width)

    _strict_threshold = True

    def _make_child(self):
        if self.width == 1:
            return None
        below = self.extra_below | (set(self.s2_points) - set(self.dual_chains[self.width]))
        above = self.extra_above | (set(self.s1_points) - set(self.chains[self.t]))
        return _HiddenLevel(self.poset, self.colors, self.width - 1,
                            frozenset(below), frozenset(above))

    def realizer_pair(self) -> tuple[list[int], list[int]]:
        """Assemble the two hidden orders realizing everything from this
        level down: separator blocks sandwich the child's orders."""
        if not self.complete:
            raise StrategyInvariantError("realizer requested before the level finished")
        a = self.scan_hosts[self.t - 1]
        b = self.stack_hosts[self.t - 1]
        s1, s2 = set(self.s1_points), set(self.s2_points)
        c_t = set(self.chains[self.t])
        d_top = set(self.dual_chains[self.width])
        child1, child2 = self.child.realizer_pair() if self.child else ([], [])
        first = _subseq(a, s2) + _subseq(a, c_t) + child1 + _subseq(a, s1 - c_t)
        second = _subseq(b, s2 - d_top) + child2 + _subseq(b, d_top) + _subseq(b, s1)
        return first, second

    def report(self) -> LevelReport:
        rep = super().report()
        rep.scan_hosts = list(self.scan_hosts)
        rep.stack_hosts = list(self.stack_hosts)
        return rep


class HiddenRealizerStrategy(Strategy):
    """Staged game whose presented poset always has a two-order realizer.

    The orders stay hidden during play (the point: even a partitioner that
    knows the rules cannot exploit them) and can be extracted afterwards
    for verification.
    """

    name = "theorem1"

    def __init__(self, w: int):
        super().__init__(w)
        self._root = _HiddenLevel(self.poset, self.colors, w, frozenset(), frozenset())
        self._placed_level: _GameLevel | None = None

    def done(self) -> bool:
        return self._root.complete

    def bound(self) -> float:
        return theorem1_total(self.w)

    def _place(self, e):
        level = self._root.active_level()
        if level is None:
            raise StrategyInvariantError("placement requested after the game ended")
        below, above, stage, _ = level.place(e)
        self._placed_level = level
        return below, above, level.width, stage, None

    def _after_color(self, e, color):
        level = self._placed_level
        self._placed_level = None
        if level is None:
            raise StrategyInvariantError("color arrived with no placement outstanding")
        level.observe(e, color)

    def levels(self) -> list[_GameLevel]:
        out = []
        lvl: _GameLevel | None = self._root
        while lvl is not None:
            out.append(lvl)
            lvl = lvl.child
        return out

    def level_reports(self) -> list[LevelReport]:
        return [lvl.report() for lvl in self.levels()]

    def extract_realizer(self) -> Realizer:
        if not self.done():
            raise StrategyInvariantError("realizer requested mid-game")
        first, second = self._root.realizer_pair()
        return Realizer([LinearOrder(first), LinearOrder(second)])


class _VisibleLevel(_GameLevel):
    """Level living inside the d global visible orders; cross-level
    relations come from where its window sits in each order."""

    def __init__(self, poset: Poset, colors: dict[int, int], orders: list[LinearOrder],
                 width: int, regions: list[Region]):
        super().__init__(poset, colors, width)
        self.orders = orders
        self.d = d = len(orders)
        self.regions = regions
        builders = [
            Builder(BuilderSpec("scan", width - d + 2 + j, width), regions[j], orders[j])
            for j in range(d - 1)
        ]
        builders.append(
            Builder(BuilderSpec("stack", width, width), regions[d - 1], orders[d - 1])
        )
        self._bank = _Bank(builders)

    def _relation_hosts(self):
        return self.orders

    def _make_dual_bank(self) -> _Bank:
        d = self.d
        w = self.width
        duals = []
        for j in range(d):
            order = self.orders[j]
            pos = order.positions()
            lowest = min(self.s1_points, key=pos.__getitem__)
            family = "scan" if j == d - 1 else "stack"
            duals.append(
                Builder(BuilderSpec(family, w, w, "dual"), Region(self.regions[j].low, lowest), order)
            )
        return _Bank(duals)

    def _t_range(self):
        return max(1, self.width - self.d + 2), self.width

    def _threshold(self):
        return theorem2_level_threshold(self.width, self.d)

    _strict_threshold = False

    def _make_child(self):
        if self.width == 1:
            return None
        return _VisibleLevel(self.poset, self.colors, self.orders, self.width - 1,
                             self._child_regions())

    def _child_regions(self) -> list[Region]:
        """Windows for the next level down, one per visible order.

        The windows are chosen so that, by position alone, deeper points
        land above the mirrored block and below the forcing block in every
        order -- except across the separator's home orders, which make the
        separator incomparable to everything deeper.
        """
        d = self.d
        j_t = self.t - (self.width - d + 2)
        c_t = set(self.chains[self.t])
        d_top = set(self.dual_chains[self.width])
        s1, s2 = set(self.s1_points), set(self.s2_points)
        regions = []
        for j in range(d):
            pos = self.orders[j].positions()
            if j == j_t:
                low = max(c_t, key=pos.__getitem__)
                rest = s1 - c_t
                high = min(rest, key=pos.__getitem__) if rest else self.regions[j].high
            elif j == d - 1:
                rest = s2 - d_top
                low = max(rest, key=pos.__getitem__) if rest else self.regions[j].low
                high = min(d_top, key=pos.__getitem__)
            else:
                low = max(s2, key=pos.__getitem__)
                high = min(s1, key=pos.__getitem__)
            regions.append(Region(low, high))
        return regions


class PresentedRealizerStrategy(Strategy):
    """Staged game played with d insertion-only grown orders on the table.

    The partitioner sees the orders (the presented poset is exactly their
    intersection) and still cannot escape the level separators.
    """

    name = "theorem2"

    def __init__(self, w: int, d: int):
        super().__init__(w)
        if d < 2:
            raise ValueError("need at least two visible orders")
        self.d = d
        self.orders = [LinearOrder() for _ in range(d)]
        self._root = _VisibleLevel(self.poset, self.colors, self.orders, w,
                                   [Region(BOTTOM, TOP)] * d)
        self._placed_level: _GameLevel | None = None

    def done(self) -> bool:
        return self._root.complete

    def bound(self) -> float:
        return theorem2_total(self.w, self.d)

    def _place(self, e):
        level = self._root.active_level()
        if level is None:
            raise StrategyInvariantError("placement requested after the game ended")
        below, above, stage, anchors = level.place(e)
        self._placed_level = level
        return below, above, level.width, stage, tuple(anchors)

    def _after_color(self, e, color):
        level = self._placed_level
        self._placed_level = None
        if level is None:
            raise StrategyInvariantError("color arrived with no placement outstanding")
        level.observe(e, color)

    def realizer_snapshot(self):
        return tuple(order.copy() for order in self.orders)

    def levels(self) -> list[_GameLevel]:
        out = []
        lvl: _GameLevel | None = self._root
        while lvl is not None:
            out.append(lvl)
            lvl = lvl.child
        return out

    def level_reports(self) -> list[LevelReport]:
        return [lvl.report() for lvl in self.levels()]

    def extract_realizer(self) -> Realizer:
        if not self.done():
            raise StrategyInvariantError("realizer requested mid-game")
        return Realizer([order.copy() for order in self.orders])


# ---------------------------------------------------------------------------


def make_strategy(name: str, w: int, k: int | None = None, d: int | None = None) -> Strategy:
    if name == "szemeredi":
        return SzemerediStrategy(w, k=k)
    if name == "theorem1":
        return HiddenRealizerStrategy(w)
    if name == "theorem2":
        if d is None:
            raise ValueError("the visible-orders strategy needs a dimension")
        return PresentedRealizerStrategy(w, d)
    raise ValueError(f"unknown strategy {name!r}")


def bound_for(name: str, w: int, d: int | None = None) -> float:
    if name == "szemeredi":
        return float(szemeredi_bound(w))
    if name == "theorem1":
        return theorem1_total(w)
    if name == "theorem2":
        if d is None:
            raise ValueError("the visible-orders strategy needs a dimension")
        return theorem2_total(w, d)
    raise ValueError(f"unknown strategy {name!r}")
