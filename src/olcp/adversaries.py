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

Both staged games keep their levels in one list, widest first; the last
level plays each round, and a finished level above width 1 has the
strategy lay out the next one down.  The two games differ only in that
layout: fresh hidden hosts per level, or windows of the visible orders.

Strategies follow a small protocol: ``done()``, ``next_move() -> Move``,
``observe(color)``.  The strategy owns the presented poset; the arena owns
the coloring.  ``STRATEGIES`` maps each name to its class, and
``check_strategy`` alone decides which parameters each one accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .builders import BOTTOM, TOP, Builder, BuilderSpec, Region
from .errors import StrategyInvariantError
from .poset import ChainPartition, LinearOrder, Poset, Realizer, _mask


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


def separator_threshold(width: int, d: int | None) -> tuple[float, bool]:
    """Colors one level's separator must carry, and whether strictly more.

    ``d`` is the number of visible orders, None in the hidden-realizer
    game, whose per-level bound is strict; with visible orders the bound
    may be met with equality.
    """
    if d is None:
        return theorem1_level_threshold(width), True
    return theorem2_level_threshold(width, d), False


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
    downward closed.  ``verify`` returns human-readable violations; only a
    failing mask test walks the points to name them.
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
            problems += [f"chain {size}: ({x}, {y}) incomparable"
                         for x, y in p.incomparable_pairs(pts)]
        sizes = sorted(self.chains)
        for i, s in enumerate(sizes):
            reach = 0  # everything comparable to chain s
            for x in self.chains[s]:
                reach |= p.comparable_mask(x)
            for s2 in sizes[i + 1 :]:
                if reach & _mask(self.chains[s2]):
                    problems += [f"chains {s} and {s2} touch: {x} and {y} comparable"
                                 for x in self.chains[s] for y in self.chains[s2]
                                 if p.comparable(x, y)]
        union = {x for pts in self.chains.values() for x in pts}
        if not part.is_rainbow(union):
            problems.append("chain union repeats a color")
        outside = self.universe - union
        hole = _mask(outside)
        for c in union:
            if p._below[c] & hole:
                gap = outside & p.below(c)
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
    """Sort a set known to be a chain from bottom to top: along a chain,
    x < y implies below(x) is a proper subset of below(y)."""
    below = p._below
    return sorted(pts, key=lambda x: below[x].bit_count())


def _intersect_relations(hosts: Sequence[LinearOrder], e: int) -> tuple[set[int], set[int]]:
    """Strict down-/up-set of e in the intersection of the host orders:
    the slices on either side of e, intersected host by host.  Each host
    is asked for e where its last insertion went, the usual case when e
    has just been placed."""
    h = hosts[0]
    seq = h.sequence
    i = h.locate(e, h._last)
    below = set(seq[:i])
    above = set(seq[i + 1 :])
    for h in hosts[1:]:
        if not below and not above:
            break
        seq = h.sequence
        i = h.locate(e, h._last)
        below.intersection_update(seq[:i])
        above.intersection_update(seq[i + 1 :])
    return below, above


# ---------------------------------------------------------------------------
# lockstep builder bank


class _Bank:
    """Root builders of one width over parallel hosts, fed the same points
    in lockstep.

    A builder's records change only when it observes a color, so
    ``observe``, comparing every builder's events, is the one lockstep
    check and raises StrategyInvariantError; the others read builder 0.
    """

    __slots__ = ("builders",)

    def __init__(self, builders: Sequence[Builder]):
        self.builders = list(builders)

    @property
    def done(self) -> bool:
        return self.builders[0].done

    def active_width(self) -> int:
        return self.builders[0].active().spec.w

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
        """The recursion chain, outermost first; every host records the same."""
        return self.builders[0].instances()


def _bank_chains(p: Poset, bank: _Bank, dual: bool) -> dict[int, list[int]]:
    """Certified chain of each recursion instance, keyed by its width: its
    stage-one points at or below its terminal (at or above, when dual)."""
    out = {}
    for inst in bank.instances():
        reach = p.up_set(inst.terminal) if dual else p.down_set(inst.terminal)
        out[inst.spec.w] = _chain_sorted(p, reach & set(inst.stage1_points))
    return out


# ---------------------------------------------------------------------------
# strategy protocol


class Strategy:
    """Base for adversary strategies: owns the poset, records colors."""

    name = "?"

    def __init__(self, w: int):
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
        below, above = frozenset(below), frozenset(above)
        self.poset._add_closed(below, above)
        move = Move(e, below, above, level, stage, ext)
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
        check_strategy(self.name, w, k=k)
        super().__init__(w)
        self.k = w if k is None else k
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
        chains = _bank_chains(self.poset, self._bank, dual=False)
        return RainbowChains(chains, frozenset(self.poset.elements))


# ---------------------------------------------------------------------------
# staged realizer games


class _GameLevel:
    """One width level of a staged game: forcing stage, mirrored stage,
    then the separator choice, after which ``stage`` is 3.

    Stage one runs one root builder per host; the intersection of the
    hosts, plus the cross-level relations ``extra_below``/``extra_above``,
    gives the level's relations.  The mirrored stage follows from those
    builders alone.  ``t_range`` bounds the separator's chain index, and
    ``d`` is the number of visible orders (None: hidden hosts, scan hosts
    first).  The strategy lays a level out; the level never sees the next.

    A level holds the owning strategy's poset and color record, never the
    strategy or another level, so a finished game is freed without the
    cycle collector.
    """

    def __init__(self, poset: Poset, colors: dict[int, int], width: int,
                 hosts: Sequence[LinearOrder], specs: Sequence[BuilderSpec],
                 regions: Sequence[Region], t_range: tuple[int, int], d: int | None = None,
                 extra_below: frozenset[int] = frozenset(),
                 extra_above: frozenset[int] = frozenset()):
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
        self.hosts = hosts
        self.regions = regions
        self.t_range = t_range
        self.d = d
        self.extra_below = extra_below
        self.extra_above = extra_above
        self._bank = _Bank([Builder(*layout) for layout in zip(specs, regions, hosts)])
        self._dual_bank: _Bank | None = None

    def place(self, e: int) -> tuple[set[int], set[int], int, int, tuple[int | None, ...] | None]:
        """Place e in this level's hosts: ``Strategy._place``'s move fields."""
        bank = self._bank if self.stage == 1 else self._dual_bank
        assert bank is not None
        anchors = bank.place(e)
        below, above = _intersect_relations(self.hosts, e)
        below |= self.extra_below
        above |= self.extra_above
        ext = None if self.d is None else tuple(anchors)  # hidden hosts stay hidden
        return below, above, self.width, self.stage, ext

    def observe(self, e: int, color: int) -> None:
        if self.stage == 1:
            self.s1_points.append(e)
            self._bank.observe(e, color)
            if self._bank.done:
                self.chains = _bank_chains(self.poset, self._bank, dual=False)
                self._dual_bank = self._make_dual_bank()
                self.stage = 2
        elif self.stage == 2:
            self.s2_points.append(e)
            self._dual_bank.observe(e, color)
            if self._dual_bank.done:
                self.dual_chains = _bank_chains(self.poset, self._dual_bank, dual=True)
                self._choose_separator()
                self.stage = 3
        else:
            raise StrategyInvariantError("observation after the level finished")

    def _make_dual_bank(self) -> _Bank:
        """Under each root builder, in bank order, a dual builder of the
        other family in the same host, completely below its stage-one points."""
        w = self.width
        s1 = set(self.s1_points)
        duals = []
        for b in self._bank.builders:
            lowest = next(x for x in b.host.sequence if x in s1)
            family = "stack" if b.spec.family == "scan" else "scan"
            duals.append(Builder(BuilderSpec(family, w, w, "dual"),
                                 Region(b.region.low, lowest), b.host))
        return _Bank(duals)

    def _choose_separator(self) -> None:
        colors = self.colors
        lo, hi = self.t_range
        top_dual = set(self.dual_chains[self.width])
        best_t, best = lo, -1
        for t in range(lo, hi + 1):
            n = len({colors[x] for x in set(self.chains[t]) | top_dual})
            if n > best:
                best_t, best = t, n
        self.t = best_t
        self.separator = _chain_sorted(self.poset, set(self.chains[best_t]) | top_dual)
        self.separator_colors = best
        threshold, strict = separator_threshold(self.width, self.d)
        if not (best > threshold if strict else best >= threshold):
            raise StrategyInvariantError(
                f"separator carries {best} colors at width {self.width}, "
                f"needs {'above' if strict else 'at least'} {threshold}"
            )

    def report(self) -> LevelReport:
        hidden = self.d is None
        return LevelReport(
            width=self.width,
            t=self.t,
            threshold=separator_threshold(self.width, self.d)[0],
            separator_colors=self.separator_colors,
            separator=list(self.separator),
            s1_points=list(self.s1_points),
            s2_points=list(self.s2_points),
            chains={k: list(v) for k, v in self.chains.items()},
            dual_chains={k: list(v) for k, v in self.dual_chains.items()},
            scan_hosts=list(self.hosts[: self.width]) if hidden else None,
            stack_hosts=list(self.hosts[self.width :]) if hidden else None,
        )


class _StagedStrategy(Strategy):
    """Driver of a staged game.  It keeps its levels in one list, widest
    first: the last level places each point and takes its color, and when
    a level above width 1 finishes, ``_next_level`` lays out the next one
    down and appends it.  Only a color moves a level on, so the level that
    placed a point takes its color."""

    _levels: list[_GameLevel]

    def done(self) -> bool:
        return self._levels[-1].stage == 3

    def _place(self, e):
        return self._levels[-1].place(e)

    def _after_color(self, e, color):
        level = self._levels[-1]
        level.observe(e, color)
        if level.stage == 3 and level.width > 1:
            self._levels.append(self._next_level(level))

    def _next_level(self, level: _GameLevel) -> _GameLevel:
        raise NotImplementedError

    def level_reports(self) -> list[LevelReport]:
        return [lvl.report() for lvl in self._levels]


class HiddenRealizerStrategy(_StagedStrategy):
    """Staged game whose presented poset always has a two-order realizer.

    The orders stay hidden during play (the point: even a partitioner that
    knows the rules cannot exploit them) and can be extracted afterwards
    for verification.
    """

    name = "theorem1"

    def __init__(self, w: int):
        check_strategy(self.name, w)
        super().__init__(w)
        self._levels = [self._new_level(w, frozenset(), frozenset())]

    def bound(self) -> float:
        return theorem1_total(self.w)

    def _new_level(self, width: int, extra_below: frozenset[int],
                   extra_above: frozenset[int]) -> _GameLevel:
        """A level with its own fresh hidden hosts, one scan and one stack
        host per chain index; the cross-level relations are the
        accumulated wrap sets."""
        specs = [BuilderSpec(family, kk, width)
                 for family in ("scan", "stack") for kk in range(1, width + 1)]
        return _GameLevel(self.poset, self.colors, width, [LinearOrder() for _ in specs],
                          specs, [Region(BOTTOM, TOP)] * len(specs), (1, width),
                          extra_below=extra_below, extra_above=extra_above)

    def _next_level(self, level):
        below = set(level.s2_points) - set(level.dual_chains[level.width])
        above = set(level.s1_points) - set(level.chains[level.t])
        return self._new_level(level.width - 1, level.extra_below | below,
                               level.extra_above | above)

    # bench/tracing.py wraps level_reports in each concrete class's own namespace.
    level_reports = _StagedStrategy.level_reports

    def extract_realizer(self) -> Realizer:
        """The two hidden orders, assembled deepest level first: each
        level's separator blocks sandwich the orders of the levels below."""
        if not self.done():
            raise StrategyInvariantError("realizer requested mid-game")
        first: list[int] = []
        second: list[int] = []
        for lvl in reversed(self._levels):
            a = lvl.hosts[lvl.t - 1]
            b = lvl.hosts[lvl.width + lvl.t - 1]
            s1, s2 = set(lvl.s1_points), set(lvl.s2_points)
            c_t = set(lvl.chains[lvl.t])
            d_top = set(lvl.dual_chains[lvl.width])
            first = [*a.restrict(s2), *a.restrict(c_t), *first, *a.restrict(s1 - c_t)]
            second = [*b.restrict(s2 - d_top), *second, *b.restrict(d_top), *b.restrict(s1)]
        return Realizer([LinearOrder(first), LinearOrder(second)])


class PresentedRealizerStrategy(_StagedStrategy):
    """Staged game played with d insertion-only grown orders on the table.

    The partitioner sees the orders (the presented poset is exactly their
    intersection) and still cannot escape the level separators.
    """

    name = "theorem2"

    def __init__(self, w: int, d: int):
        check_strategy(self.name, w, d=d)
        super().__init__(w)
        self.d = d
        self.orders = [LinearOrder() for _ in range(d)]
        self._levels = [self._new_level(w, [Region(BOTTOM, TOP)] * d)]

    def bound(self) -> float:
        return theorem2_total(self.w, self.d)

    def _new_level(self, width: int, regions: list[Region]) -> _GameLevel:
        """A level living inside the d visible orders, one window each;
        cross-level relations come from where the windows sit."""
        d = self.d
        specs = [BuilderSpec("scan", width - d + 2 + j, width) for j in range(d - 1)]
        specs.append(BuilderSpec("stack", width, width))
        return _GameLevel(self.poset, self.colors, width, self.orders, specs, regions,
                          (max(1, width - d + 2), width), d)

    def _next_level(self, level):
        """The next level down, in windows chosen so that, by position
        alone, deeper points land above the mirrored block and below the
        forcing block in every order -- except across the separator's home
        orders, which make the separator incomparable to everything deeper.
        """
        d = self.d
        j_t = level.t - (level.width - d + 2)
        c_t = set(level.chains[level.t])
        d_top = set(level.dual_chains[level.width])
        s1, s2 = set(level.s1_points), set(level.s2_points)
        regions = []
        for j in range(d):
            pos = self.orders[j].positions()
            if j == j_t:
                low = max(c_t, key=pos.__getitem__)
                rest = s1 - c_t
                high = min(rest, key=pos.__getitem__) if rest else level.regions[j].high
            elif j == d - 1:
                rest = s2 - d_top
                low = max(rest, key=pos.__getitem__) if rest else level.regions[j].low
                high = min(d_top, key=pos.__getitem__)
            else:
                low = max(s2, key=pos.__getitem__)
                high = min(s1, key=pos.__getitem__)
            regions.append(Region(low, high))
        return self._new_level(level.width - 1, regions)

    def realizer_snapshot(self):
        return tuple(order.copy() for order in self.orders)

    # bench/tracing.py wraps level_reports in each concrete class's own namespace.
    level_reports = _StagedStrategy.level_reports

    def extract_realizer(self) -> Realizer:
        if not self.done():
            raise StrategyInvariantError("realizer requested mid-game")
        return Realizer([order.copy() for order in self.orders])


# ---------------------------------------------------------------------------
# the strategy table

STRATEGIES: dict[str, type[Strategy]] = {
    cls.name: cls for cls in (SzemerediStrategy, HiddenRealizerStrategy, PresentedRealizerStrategy)
}
STRATEGY_NAMES = tuple(STRATEGIES)


def check_strategy(name: str, w: int, d: int | None = None, k: int | None = None) -> None:
    """Raise ValueError unless strategy ``name`` plays at width ``w`` with
    ``d`` visible orders and chain index ``k`` (None: not given).

    Every message but the unknown-name one starts with the parameter at
    fault, so front ends can name it their own way.
    """
    if name not in STRATEGY_NAMES:
        raise ValueError(f"unknown strategy {name!r}")
    if w < 1:
        raise ValueError("w must be at least 1")
    if name == PresentedRealizerStrategy.name:
        if type(d) is not int or d < 2:
            raise ValueError("d must be an integer >= 2 in visible-order games")
    elif d is not None:
        raise ValueError("d belongs only to visible-order games")
    if k is not None and name != SzemerediStrategy.name:
        raise ValueError("k belongs only to the szemeredi game")
    if k is not None and not 1 <= k <= w:
        raise ValueError(f"k must satisfy 1 <= k <= w, got k={k}")


def make_strategy(name: str, w: int, k: int | None = None, d: int | None = None) -> Strategy:
    check_strategy(name, w, d=d, k=k)
    given = {key: value for key, value in (("d", d), ("k", k)) if value is not None}
    return STRATEGIES[name](w, **given)


def bound_for(name: str, w: int, d: int | None = None) -> float:
    return make_strategy(name, w, d=d).bound()
