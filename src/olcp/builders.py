"""Recursive insertion machines that grow one hidden linear order each.

A builder owns a window (region) of a host :class:`~olcp.poset.LinearOrder`
and fills it in two stages.  Stage one places points by one of two rules:

* stack rule  -- pile each new point at the far end of the region (the top
  for primal orientation, the bottom for dual);
* scan rule   -- walk the builder's own stage-one points from the near end
  and wedge the new point just before the first point whose color already
  occurred earlier in the walk; fall back to the stack rule.

Which rule applies depends on the builder family:

* family ``"scan"``  -- scan rule exactly when k == w; its certified chain
  ends up at the bottom of the host (top for dual orientation);
* family ``"stack"`` -- the mirror partner: scan rule exactly when k < w.

Stage one ends when the w-th distinct color lands on the builder's own
points; the recursion then goes on with one instance of width w - 1 in a
sub-region, down to width one.  Dual orientation mirrors every direction,
so a dual run is exactly a primal run reflected.

Hosts tuned to any k splice blocks of the two tuned to k = w.  The colors
alone decide which points each instance owns, so every k sees the same
instances.  Tuned to k, a scan root takes the stack rule above width k and
the scan rule at k and below; a stack root the reverse.  A stack-rule
child region lies below its parent's first point, a scan-rule one just
above its parent's terminal, so the points of widths up to k form one
block: at the bottom of the scan host, and where the all-scan host has
them in the stack host.  :func:`splice` reads each block's order from the
all-scan or the all-stack host; a prefix of the colors gives a prefix of
each game, so it holds mid-game too.

A root builder keeps its deeper instances in one list, widest first, and
acts on the last of them directly, so a call takes one step at any depth.
No instance refers to an ancestor or to itself, so a finished game is freed
without the cycle collector.  Each builder also keeps where it last saw its
region's bounds in the host (a deeper instance starts with the bounds its
parent found), and its scan target as colors arrive: a new
point lands just before the target in walk order, so each color updates it
in one step, and the target, the host's last insertion or its neighbour,
gives the anchor's position hint.  The host checks a hint before using it.

While an instance places points, its region holds exactly its own
stage-one points, because only the active instance inserts into its host
and every region opens empty: a child region borders its parent's
terminal or lies below its parent's first point (above, when dual), a
level's dual root lies below the level's lowest stage-one point, and a
``theorem2`` level's next window lies between two adjacent points of the
level before.  So a new point's masks in its host are the region's
outside masks (``Region.below``/``above``) plus the instance's own points
on either side of its slot; a child's outside masks add its parent's
points on either side of its region.  :meth:`Builder.place_next` records
the two masks in the host, and a game intersects its hosts by ANDing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from .errors import StrategyInvariantError
from .poset import LinearOrder, _mask


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: Region bound meaning "no lower limit" / "no upper limit".
BOTTOM = _Sentinel("BOTTOM")
TOP = _Sentinel("TOP")

FAMILIES = ("scan", "stack")
ORIENTATIONS = ("primal", "dual")


@dataclass(frozen=True)
class BuilderSpec:
    """Parameters of one builder: family, chain index k, width w, orientation.

    k < 1 normalizes to k = w; a width-0 spec describes a builder that is
    born finished.
    """

    family: str
    k: int
    w: int
    orientation: str = "primal"

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.orientation not in ORIENTATIONS:
            raise ValueError(f"unknown orientation {self.orientation!r}")
        if self.w < 0:
            raise ValueError("width must be non-negative")
        if self.k < 1:
            object.__setattr__(self, "k", self.w)
        if self.w >= 1 and not 1 <= self.k <= self.w:
            raise ValueError(f"need 1 <= k <= w, got k={self.k} w={self.w}")

    @property
    def dual(self) -> bool:
        return self.orientation == "dual"

    def child(self) -> "BuilderSpec":
        """Spec of the stage-two sub-builder."""
        if self.k == self.w:
            return BuilderSpec(self.family, self.w - 1, self.w - 1, self.orientation)
        return BuilderSpec(self.family, self.k, self.w - 1, self.orientation)


@dataclass(frozen=True)
class Region:
    """Open window (low, high) of a host order; placements go strictly inside.

    ``below``/``above`` mask the host's elements below and above the window
    (see the module docstring); the bounds alone identify a region.
    """

    low: object  # element id or BOTTOM
    high: object  # element id or TOP
    below: int = field(default=0, compare=False, repr=False)
    above: int = field(default=0, compare=False, repr=False)

    def bounds(self, host: LinearOrder,
               hint: tuple[int | None, int | None] = (None, None)) -> tuple[int, int]:
        """(lo_idx, hi_idx): in-region positions are lo_idx < i < hi_idx.

        ``hint`` holds guesses at the two indices, each checked before use.
        """
        lo = -1 if self.low is BOTTOM else host.locate(self.low, hint[0])
        hi = len(host) if self.high is TOP else host.locate(self.high, hint[1])
        if lo >= hi:
            raise StrategyInvariantError(f"region {self} is inverted in its host")
        return lo, hi


@dataclass(frozen=True)
class Stage1Ended:
    terminal: int


@dataclass(frozen=True)
class Done:
    pass


class Builder:
    """One recursive builder instance bound to a host order and region.

    A root builder keeps its deeper instances in ``_deeper``, widest first;
    the last of them (or the root, while that list is empty) places points.
    A scan-rule instance keeps its target current in ``observe_color`` and
    takes the anchor's host index from a hint, so a placement walks nothing.
    """

    __slots__ = (
        "spec", "region", "host", "done", "_in_host_order",
        "colors_seen", "terminal", "_pending", "_color_by_point", "_bounds",
        "_deeper", "_scan", "_target", "_walked", "_own",
    )

    def __init__(self, spec: BuilderSpec, region: Region, host: LinearOrder):
        self.spec = spec
        self.region = region
        self.host = host
        self.done = spec.w == 0
        # Own stage-one points (the pending one too), lowest in the host first.
        self._in_host_order: list[int] = []
        self._own = 0  # their mask
        self.colors_seen: set[int] = set()
        self.terminal: int | None = None
        self._pending: int | None = None
        # Own stage-one points, in arrival order, to their colors.
        self._color_by_point: dict[int, int] = {}
        # Where the region's bounds were last seen in the host (hints).
        self._bounds: tuple[int | None, int | None] = (None, None)
        # Deeper instances, widest first; never this one, so no builder
        # refers to itself.
        self._deeper: list[Builder] = []
        # Scan rule: the slot of the first own point in walk order whose color
        # repeats an earlier one (None: none does), and the colors before it.
        self._scan = (spec.family == "scan") == (spec.k == spec.w)
        self._target: int | None = None
        self._walked: set[int] = set()

    # -- queries ------------------------------------------------------------

    def active(self) -> "Builder":
        """The deepest instance, the one placing points."""
        return self._deeper[-1] if self._deeper else self

    def instances(self) -> list["Builder"]:
        """This instance and every deeper one, outermost first."""
        return [self, *self._deeper]

    # -- placement ------------------------------------------------------------

    def place_next(self, e: int) -> int | None:
        """Insert fresh element ``e`` into the host; return its anchor.

        The anchor is the element ``e`` now sits directly above (None when
        ``e`` became the new host bottom).  The active instance places
        ``e`` by its stage-one rule and records in the host the masks of
        the elements below and above ``e``: its region's outside masks and
        its own points on either side, ORed from the shorter side.
        """
        if self.done:
            raise StrategyInvariantError("placement requested on a finished builder")
        b = self.active()
        if b._pending is not None:
            raise StrategyInvariantError(f"point {b._pending} still awaits its color")
        anchor, at, slot = b._stage1_anchor()
        self.host.insert_above(anchor, e, at)
        lo, hi = b._bounds
        b._bounds = (lo, hi + 1)  # e landed inside the region
        own = b._in_host_order
        if 2 * slot < len(own):
            above = b._own ^ (below := _mask(own[:slot]))
        else:
            below = b._own ^ (above := _mask(own[slot:]))
        self.host._last_masks = (b.region.below | below, b.region.above | above)
        own.insert(slot, e)
        b._own |= 1 << e
        b._pending = e
        return anchor

    def _stage1_anchor(self) -> tuple[int | None, int | None, int]:
        """The next stage-one point's anchor, a hint at the anchor's host
        index, and its slot among the builder's own points in host order;
        records the region's bounds."""
        lo, hi = self._bounds = self.region.bounds(self.host, self._bounds)
        seq = self.host.sequence
        i = self._target
        if i is not None:  # scan rule; the target is the last insertion or next to it
            y = self._in_host_order[i]
            last = self.host._last
            if self.spec.dual:
                return y, last - (seq[last] != y), i + 1  # directly above y
            j = self.host.locate(y, last + (seq[last] != y))
            return (seq[j - 1] if j - 1 >= 0 else None), j - 1, i  # directly below y
        # stack rule (also the scan fallback): far end of the region
        if self.spec.dual:
            return (None if self.region.low is BOTTOM else self.region.low), lo, 0
        return (seq[hi - 1] if hi - 1 >= 0 else None), hi - 1, len(self._in_host_order)

    # -- color observation ------------------------------------------------------

    def observe_color(self, e: int, color: int) -> list[object]:
        """Record Bertha's color for the point just placed; return events.

        The active instance observes it.  When its stage one ends above
        width 1, a deeper instance joins the list; at width 1 every
        instance is finished, each adding a ``Done`` to the events.
        """
        if self.done:
            raise StrategyInvariantError("color observed on a finished builder")
        b = self.active()
        if b._pending != e:
            raise StrategyInvariantError(
                f"color for {e} but the pending point is {b._pending}"
            )
        b._pending = None
        b.colors_seen.add(color)
        b._color_by_point[e] = color
        if b._scan:  # e went just before the target in walk order, or at the walk's end
            t, dual = b._target, b.spec.dual
            if color in b._walked:  # e is the new target
                b._target = (0 if dual else len(b._in_host_order) - 1) if t is None else t + dual
            else:
                b._walked.add(color)
                if t is not None and not dual:
                    b._target = t + 1  # e sits below it
        if len(b._color_by_point) > 2 * b.spec.w - 1:
            raise StrategyInvariantError(
                f"stage one exceeded {2 * b.spec.w - 1} points at width {b.spec.w}"
            )
        if len(b.colors_seen) < b.spec.w:
            return []
        b.terminal = e
        events: list[object] = [Stage1Ended(e)]
        if b.spec.w > 1:
            self._deeper.append(b._child())
            return events
        for inst in self.instances():
            inst.done = True
            events.append(Done())
        return events

    def _child(self) -> "Builder":
        """The stage-two instance, with its region's bounds as position
        hints, so that its first placement need not search the host.
        Under the scan rule the region borders the terminal, the host's
        last insertion.  Under the stack rule it lies between the near bound
        and the first point, which every later point was piled beyond.
        Its outside masks add this instance's points on either side."""
        r, own, dual = self.region, self._in_host_order, self.spec.dual
        lo, hi = r.bounds(self.host, self._bounds)
        seq = self.host.sequence
        first = next(iter(self._color_by_point))
        z = self.terminal
        assert z is not None
        if not self._scan:
            s = len(own) if dual else 0  # own points below the child region
            if not dual:
                low, high, bounds = r.low, first, (lo, lo + 1)
            else:
                low, high, bounds = first, r.high, (hi - 1, hi)
        else:
            i = self.host.locate(z, self.host._last)
            s = own.index(z) + (not dual)
            if not dual:
                low, high, bounds = z, seq[i + 1] if i + 1 < hi else r.high, (i, i + 1)
            else:
                low, high, bounds = seq[i - 1] if i - 1 > lo else r.low, z, (i - 1, i)
        below = _mask(own[:s])
        region = Region(low, high, r.below | below, r.above | (self._own ^ below))
        child = Builder(self.spec.child(), region, self.host)
        child._bounds = bounds
        return child


def splice(scan: LinearOrder, stack: LinearOrder, low: set[int]) -> tuple[LinearOrder, LinearOrder]:
    """The scan and stack hosts tuned to chain index k, from ``scan`` and
    ``stack``, the hosts tuned to k = w, and ``low``, the points of the
    instances of width at most k (see the module docstring).  The scan host
    is ``scan`` restricted to ``low``, then ``stack`` restricted to the
    rest; the stack host is ``scan`` with the positions of ``low`` refilled,
    in order, by ``stack`` restricted to ``low``.  A block at the bottom of
    every host, such as a level's mirrored block, may join ``low``."""
    scan_low = [x for x in scan.sequence if x in low]
    stack_rest = [x for x in stack.sequence if x not in low]
    refill = iter([x for x in stack.sequence if x in low])
    return (LinearOrder(scan_low + stack_rest),
            LinearOrder(next(refill) if x in low else x for x in scan.sequence))
