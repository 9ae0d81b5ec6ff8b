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
    (two hosts, hidden while playing, extractable afterwards).  Each width
    level runs the two-host game, then a mirrored copy of it completely
    below, and picks a separator chain whose colors the deeper levels can
    never reuse; the color counts of the separators add up level by level.

``theorem2``
    The same staged idea, but the d linear orders realizing the presented
    poset are global, grown insertion-only, and *shown to the partitioner
    every round*.  The forced color count degrades gracefully with d.

Every strategy grows its realizer as ``orders``, and ``d`` is their
number exactly when the partitioner sees them.  ``theorem1`` is the staged
game over two orders with ``d`` None, ``theorem2`` the one over d orders
shown, and one driver plays both.  It keeps the levels in one list, widest
first; the last level plays each round, and a finished level above width 1
has the driver lay out the next one down in windows of the orders; a
hidden-host level first splices its block of them from ``width`` to ``t``.

Strategies follow a small protocol: ``done()``, ``next_move() -> Move``,
``observe(color)``.  The strategy owns the presented poset; the arena owns
the coloring.  ``STRATEGIES`` maps each name to its class, and
``check_strategy`` alone decides which parameters each one accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .builders import BOTTOM, TOP, Builder, BuilderSpec, Region
from .errors import StrategyInvariantError
from .poset import ChainPartition, LinearOrder, Poset, Realizer, _mask, _tuned_hosts


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
    """The level thresholds summed exactly, over the common denominator 2(d - 1),
    and rounded once: a float sum can land above an integer it equals."""
    return (w * (w + 1) * (2 * dim - 3) - w * (dim - 1) * (dim - 2)) / (2 * (dim - 1))


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

    ``below``/``above`` are the masks (bit x for id x) of its full strict
    down-/up-sets among the points already shown.  ``level`` is the
    width of the game level (or sub-game) the point belongs to, ``stage``
    is 1 for forcing points and 2 for the mirrored points underneath.
    ``ext`` is only set when the realizer is public: per visible order,
    the element the new point was inserted directly above (None = bottom).
    """

    element: int
    below: int
    above: int
    level: int
    stage: int
    ext: tuple[int | None, ...] | None = None


@dataclass
class RainbowChains:
    """Certificate of the two-host game: chains indexed by size.

    Within ``universe`` the chains must be pairwise completely incomparable,
    jointly rainbow, of sizes exactly 1..w, and their union downward closed.
    ``verify`` reads ``p``'s rows once and returns human-readable violations;
    only a failing mask test walks the points to name them.  A chain point
    outside ``universe`` or ``p`` is left out of every check but the first.
    """

    chains: dict[int, list[int]]
    universe: frozenset[int]

    def verify(self, p: Poset, part: ChainPartition) -> list[str]:
        problems = []
        below, above = p._rows()
        chains: dict[int, list[int]] = {}
        for size in sorted(self.chains):
            pts = self.chains[size]
            if len(pts) != size:
                problems.append(f"chain {size} has {len(pts)} points")
            stray = set(pts) - self.universe
            if stray:
                problems.append(f"chain {size} leaves its game: {sorted(stray)}")
            chains[size] = pts = [x for x in pts if x in self.universe and x in p]
            m = _mask(pts)
            if any((below[x] | above[x] | 1 << x) & m != m for x in pts):
                problems += [f"chain {size}: ({x}, {y}) incomparable"
                             for x, y in p.incomparable_pairs(pts)]
        sizes = list(chains)
        masks = [_mask(chains[s]) for s in sizes]
        for i, s in enumerate(sizes):
            reach = 0  # everything comparable to chain s
            for x in chains[s]:
                reach |= below[x] | above[x] | 1 << x
            for s2, mask in zip(sizes[i + 1 :], masks[i + 1 :]):
                if reach & mask:
                    problems += [f"chains {s} and {s2} touch: {x} and {y} comparable"
                                 for x in chains[s] for y in chains[s2]
                                 if p.comparable(x, y)]
        union = {x for pts in chains.values() for x in pts}
        if not part.is_rainbow(union):
            problems.append("chain union repeats a color")
        outside = self.universe - union
        hole = _mask(outside)
        for c in union:
            if below[c] & hole:
                gap = outside & p.below(c)
                problems += [f"union not downward closed: {x} < {c}"
                             for x in self.universe if x in gap]
        return problems


@dataclass
class LevelReport:
    """What one width level of a staged game did, for reporting and checks.
    A hidden-host level adds its block of the two hosts, tuned to chain
    index ``width``, as ``hosts``, and its ``low_blocks``: ``_tuned_hosts``
    tunes ``hosts`` to chain index k by the union of the first k."""

    width: int
    t: int
    threshold: float
    separator_colors: int
    separator: list[int]
    s1_points: list[int]
    s2_points: list[int]
    chains: dict[int, list[int]]
    dual_chains: dict[int, list[int]]
    hosts: tuple[LinearOrder, LinearOrder] | None = None
    low_blocks: list[list[int]] | None = None


def _intersect_relations(builders: Sequence[Builder]) -> tuple[int, int]:
    """Masks of the just-placed point's strict down-/up-set in the
    intersection of the root builders' hosts: the masks below and above it
    that each root read from its window, ANDed root by root."""
    below, above = builders[0].masks
    for b in builders[1:]:
        b_below, b_above = b.masks
        below &= b_below
        above &= b_above
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
        streams = [b.observe_color(e, color) for b in self.builders]
        if streams.count(streams[0]) != len(streams):  # events compare by value
            raise StrategyInvariantError("builders disagreed about stage transitions")

    def instances(self) -> list[Builder]:
        """The recursion chain, outermost first; every host records the same."""
        return self.builders[0].instances()

    def blocks(self, w: int) -> list[list[int]]:
        """The points of the recursion instance of each width 1..w, in host
        order; none for a width the recursion never reached."""
        owned = {inst.spec.w: inst._in_host_order for inst in self.instances()}
        return [list(owned.get(k, ())) for k in range(1, w + 1)]


def _bank_chains(p: Poset, bank: _Bank, dual: bool) -> dict[int, list[int]]:
    """Certified chain of each recursion instance, keyed by its width: its
    stage-one points at or below its terminal (at or above, when dual), in
    host order.  Those points are older than the terminal, so its row as
    presented holds every relation read."""
    rows = p._above if dual else p._below
    out = {}
    for inst in bank.instances():
        reach = rows[inst.terminal] | 1 << inst.terminal
        out[inst.spec.w] = [x for x in inst._in_host_order if reach >> x & 1]
    return out


# ---------------------------------------------------------------------------
# strategy protocol


class Strategy:
    """Base for adversary strategies: owns the poset, records colors, and
    grows ``orders``, its realizer: the linear orders whose intersection is
    the presented poset.  ``d`` is their number when the partitioner sees
    them, and None when they stay hidden."""

    name = "?"
    orders: list[LinearOrder]

    def __init__(self, w: int):
        self.w = w
        self.d: int | None = None
        self.poset = Poset()
        self.colors: dict[int, int] = {}
        self._pending: Move | None = None

    def done(self) -> bool:
        raise NotImplementedError

    def _place(self, e: int) -> tuple[int, int, int, int, tuple[int | None, ...] | None]:
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
        """Copies of the orders when the partitioner sees them, else None."""
        return None if self.d is None else tuple(order.copy() for order in self.orders)

    def extract_realizer(self) -> Realizer:
        """Copies of the orders, whose intersection is the presented poset."""
        if not self.done():
            raise StrategyInvariantError("realizer requested mid-game")
        return Realizer([order.copy() for order in self.orders])


class SzemerediStrategy(Strategy):
    """The two-host forcing game at width w.

    ``orders`` holds the scan and the stack host, hidden.  The presented
    poset is the same whichever chain index k they are tuned to; k only
    moves the certified chains around inside them.
    """

    name = "szemeredi"

    def __init__(self, w: int, k: int | None = None):
        check_strategy(self.name, w, k=k)
        super().__init__(w)
        self.k = w if k is None else k
        self.orders = [LinearOrder(), LinearOrder()]
        self._bank = _Bank([Builder(BuilderSpec(family, self.k, w), Region(BOTTOM, TOP), host)
                            for family, host in zip(("scan", "stack"), self.orders)])

    def done(self) -> bool:
        return self._bank.done

    def bound(self) -> float:
        return float(szemeredi_bound(self.w))

    def _place(self, e):
        level = self._bank.active_width()
        self._bank.place(e)
        below, above = _intersect_relations(self._bank.builders)
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

    Stage one runs one root builder per order of the strategy, in one
    window of each; the intersection of the orders gives the level's
    relations, to earlier levels too.  The mirrored stage follows from those
    builders alone.  ``t_range`` bounds the separator's chain index, and
    ``d`` is the strategy's: the number of orders when shown, or None for
    two hidden hosts, where the level plays its block of them tuned to chain
    index ``width``, keeps it in ``kept`` when it finishes, and splices it
    in place to ``t``.  The strategy lays a level out; the level never sees
    the next.

    A level holds the owning strategy's poset and color record, never the
    strategy or another level, so a finished game is freed without the
    cycle collector.
    """

    def __init__(self, poset: Poset, colors: dict[int, int], width: int,
                 hosts: Sequence[LinearOrder], specs: Sequence[BuilderSpec],
                 regions: Sequence[Region], t_range: tuple[int, int], d: int | None = None):
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
        self.t_range = t_range
        self.d = d
        self.kept: list[list[int]] | None = None
        self._bank = _Bank([Builder(*layout) for layout in zip(specs, regions, hosts)])
        self._dual_bank: _Bank | None = None

    def place(self, e: int) -> tuple[int, int, int, int, tuple[int | None, ...] | None]:
        """Place e in this level's hosts: ``Strategy._place``'s move fields."""
        bank = self._bank if self.stage == 1 else self._dual_bank
        assert bank is not None
        anchors = bank.place(e)
        below, above = _intersect_relations(bank.builders)
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
                if self.d is None:
                    self._splice_to_t()
                self.stage = 3
        else:
            raise StrategyInvariantError("observation after the level finished")

    def _make_dual_bank(self) -> _Bank:
        """Under each root builder, in bank order, a dual builder of the
        other family in the same host, completely below its stage-one points,
        which are all its region holds."""
        w = self.width
        s1 = _mask(self.s1_points)
        duals = []
        for b in self._bank.builders:
            r = b.region
            family = "stack" if b.spec.family == "scan" else "scan"
            region = Region(r.low, b.host.sequence[b._lo + 1], r.below, r.above | s1)
            duals.append(Builder(BuilderSpec(family, w, w, "dual"), region, b.host))
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
        self.separator = self.dual_chains[self.width] + self.chains[best_t]
        self.separator_colors = best
        threshold, strict = separator_threshold(self.width, self.d)
        if not (best > threshold if strict else best >= threshold):
            raise StrategyInvariantError(
                f"separator carries {best} colors at width {self.width}, "
                f"needs {'above' if strict else 'at least'} {threshold}"
            )

    def host_blocks(self) -> list[list[int]]:
        """The level's points in each root's host: all its window holds."""
        n = len(self.s1_points) + len(self.s2_points)
        return [b.host.sequence[b._lo + 1:b._lo + 1 + n] for b in self._bank.builders]

    def _splice_to_t(self) -> None:
        """Keep the level's block of the hidden hosts, then tune it in place to ``t``."""
        self.kept = self.host_blocks()
        low = set().union(*self.low_blocks()[: self.t])
        for b, block in zip(self._bank.builders, _tuned_hosts(*self.kept, low.__contains__)):
            b.host.reorder(b._lo + 1, [*block])

    def low_blocks(self) -> list[list[int]]:
        """The points joining the low block at chain index k = 1..width: the
        width-k instance's, and at k = 1 the mirrored block, which sits at
        the bottom of both hosts."""
        first, *rest = self._bank.blocks(self.width)
        return [self.s2_points + first, *rest]

    def report(self) -> LevelReport:
        hidden = self.d is None
        hosts = tuple(map(LinearOrder, self.kept or self.host_blocks())) if hidden else None
        return LevelReport(
            width=self.width, t=self.t, threshold=separator_threshold(self.width, self.d)[0],
            separator_colors=self.separator_colors, separator=list(self.separator),
            s1_points=list(self.s1_points), s2_points=list(self.s2_points),
            chains={k: list(v) for k, v in self.chains.items()},
            dual_chains={k: list(v) for k, v in self.dual_chains.items()},
            hosts=hosts,
            low_blocks=self.low_blocks() if hidden else None)


class _StagedStrategy(Strategy):
    """Driver of a staged game over its m orders, hidden (``d`` None, m = 2)
    or shown (m = d).  It keeps its levels in one list, widest first: the
    last level places each point and takes its color, and when a level
    above width 1 finishes, the next one down is laid out in windows of
    the orders and appended.  Only a color moves a level on, so the level
    that placed a point takes its color."""

    _levels: list[_GameLevel]

    def __init__(self, w: int, d: int | None, orders: list[LinearOrder]):
        super().__init__(w)
        self.d = d
        self.orders = orders
        self._levels = [self._new_level(w, [Region(BOTTOM, TOP)] * len(orders))]

    def done(self) -> bool:
        return self._levels[-1].stage == 3

    def _place(self, e):
        return self._levels[-1].place(e)

    def _after_color(self, e, color):
        level = self._levels[-1]
        level.observe(e, color)
        if level.stage == 3 and level.width > 1:
            # The separator's home order: the first hidden host, spliced to t,
            # or the visible order that keeps chain t lowest.
            j_t = 0 if self.d is None else level.t - (level.width - len(self.orders) + 2)
            self._levels.append(self._new_level(level.width - 1, self._windows(level, j_t)))

    def _new_level(self, width: int, regions: list[Region]) -> _GameLevel:
        """A level in one window of each order: order j < m - 1 keeps chain
        j0 + j lowest (j0 = width - m + 2), the last the top chain.  Hidden
        hosts, spliced when the level finishes, may separate at any chain."""
        m = len(self.orders)
        j0 = width - m + 2
        specs = [BuilderSpec("scan", j0 + j, width) for j in range(m - 1)]
        specs.append(BuilderSpec("stack", width, width))
        t_range = (1 if self.d is None else max(1, j0), width)
        return _GameLevel(self.poset, self.colors, width, self.orders, specs, regions, t_range, self.d)

    def _windows(self, level: _GameLevel, j_t: int) -> list[Region]:
        """The next level's windows, chosen so that, by position alone,
        deeper points land above the mirrored block and below the forcing
        block in every order -- except across the separator's home orders:
        in order ``j_t`` above chain ``t``, lowest in the forcing block, and
        in the last below the top mirrored chain, highest in the mirrored
        block, which make the separator incomparable to everything deeper.
        The level's points are all its window of each order holds, so a new
        window opens just above the topmost of a set of them, and its
        outside masks add the old window's points on either side."""
        d = len(level._bank.builders)
        c_t, s2 = set(level.chains[level.t]), set(level.s2_points)
        s2_low = s2 - set(level.dual_chains[level.width])
        regions = []
        for j, (root, window) in enumerate(zip(level._bank.builders, level.host_blocks())):
            below = c_t if j == j_t else s2_low if j == d - 1 else s2  # the new window's floor
            split = next((i for i in range(len(window), 0, -1) if window[i - 1] in below), 0)
            r = root.region
            regions.append(Region(window[split - 1] if split else r.low,
                                  window[split] if split < len(window) else r.high,
                                  r.below | _mask(window[:split]), r.above | _mask(window[split:])))
        return regions

    def level_reports(self) -> list[LevelReport]:
        return [lvl.report() for lvl in self._levels]


class HiddenRealizerStrategy(_StagedStrategy):
    """Staged game whose presented poset always has a two-order realizer.

    Its ``orders`` are two hosts that stay hidden during play (the point:
    even a partitioner that knows the rules cannot exploit them); each
    level's block of them is spliced to its ``t`` when the level finishes,
    and they can be extracted afterwards for verification.
    """

    name = "theorem1"

    def __init__(self, w: int):
        check_strategy(self.name, w)
        super().__init__(w, None, [LinearOrder(), LinearOrder()])

    def bound(self) -> float:
        return theorem1_total(self.w)

    # bench/tracing.py wraps these in each concrete class's own namespace.
    level_reports = _StagedStrategy.level_reports
    extract_realizer = Strategy.extract_realizer


class PresentedRealizerStrategy(_StagedStrategy):
    """Staged game played with d insertion-only grown orders on the table.

    The partitioner sees the orders (the presented poset is exactly their
    intersection) and still cannot escape the level separators.
    """

    name = "theorem2"

    def __init__(self, w: int, d: int):
        check_strategy(self.name, w, d=d)
        super().__init__(w, d, [LinearOrder() for _ in range(d)])

    def bound(self) -> float:
        return theorem2_total(self.w, self.d)

    # bench/tracing.py wraps these in each concrete class's own namespace.
    level_reports = _StagedStrategy.level_reports
    extract_realizer = Strategy.extract_realizer
    realizer_snapshot = Strategy.realizer_snapshot


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
    if type(w) is not int:
        raise ValueError("w must be an integer")
    if w < 1:
        raise ValueError("w must be at least 1")
    if name == PresentedRealizerStrategy.name:
        if type(d) is not int or d < 2:
            raise ValueError("d must be an integer >= 2 in visible-order games")
    elif d is not None:
        raise ValueError("d belongs only to visible-order games")
    if k is not None and name != SzemerediStrategy.name:
        raise ValueError("k belongs only to the szemeredi game")
    if k is not None and type(k) is not int:
        raise ValueError("k must be an integer")
    if k is not None and not 1 <= k <= w:
        raise ValueError(f"k must satisfy 1 <= k <= w, got k={k}")


def make_strategy(name: str, w: int, k: int | None = None, d: int | None = None) -> Strategy:
    check_strategy(name, w, d=d, k=k)
    given = {key: value for key, value in (("d", d), ("k", k)) if value is not None}
    return STRATEGIES[name](w, **given)
