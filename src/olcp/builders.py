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

A root builder keeps its deeper instances in one list, widest first, and
acts on the last of them directly, so a call takes one step at any depth.
No instance refers to an ancestor or to itself, so a finished game is freed
without the cycle collector.  Each builder also keeps where it last saw its
region's bounds in the host; the host trusts such a position hint only
after checking that it still holds the bound there.
"""

from __future__ import annotations

from dataclasses import dataclass
from .errors import StrategyInvariantError
from .poset import LinearOrder


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
    """Open window (low, high) of a host order; placements go strictly inside."""

    low: object  # element id or BOTTOM
    high: object  # element id or TOP

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
    """

    __slots__ = (
        "spec", "region", "host", "done", "stage1_points", "_in_host_order",
        "colors_seen", "terminal", "_pending", "_color_by_point", "_bounds",
        "_deeper",
    )

    def __init__(self, spec: BuilderSpec, region: Region, host: LinearOrder):
        self.spec = spec
        self.region = region
        self.host = host
        self.done = spec.w == 0
        self.stage1_points: list[int] = []
        # Own stage-one points (the pending one too), lowest in the host first.
        self._in_host_order: list[int] = []
        self.colors_seen: set[int] = set()
        self.terminal: int | None = None
        self._pending: int | None = None
        self._color_by_point: dict[int, int] = {}
        # Where the region's bounds were last seen in the host (hints).
        self._bounds: tuple[int | None, int | None] = (None, None)
        # Deeper instances, widest first; never this one, so no builder
        # refers to itself.
        self._deeper: list[Builder] = []

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
        ``e`` by its stage-one rule.
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
        b._in_host_order.insert(slot, e)
        b._pending = e
        return anchor

    def _stage1_anchor(self) -> tuple[int | None, int | None, int]:
        """The next stage-one point's anchor, a hint at the anchor's host
        index, and its slot among the builder's own points in host order;
        records the region's bounds."""
        use_scan = (self.spec.family == "scan") == (self.spec.k == self.spec.w)
        lo, hi = self._bounds = self.region.bounds(self.host, self._bounds)
        seq = self.host.sequence
        if use_scan:
            i = self._scan_target()
            if i is not None:
                y = self._in_host_order[i]
                if self.spec.dual:
                    return y, None, i + 1  # directly above y
                j = self.host.position(y)
                return (seq[j - 1] if j - 1 >= 0 else None), j - 1, i  # directly below y
        # stack rule (also the scan fallback): far end of the region
        if self.spec.dual:
            return (None if self.region.low is BOTTOM else self.region.low), lo, 0
        return (seq[hi - 1] if hi - 1 >= 0 else None), hi - 1, len(self._in_host_order)

    def _scan_target(self) -> int | None:
        """Walk own stage-one points from the near end of the region and
        return the host-order slot of the first whose color repeats an
        earlier one; None if the colors seen so far are all distinct."""
        pts = self._in_host_order
        walk = range(len(pts) - 1, -1, -1) if self.spec.dual else range(len(pts))
        seen: set[int] = set()
        for i in walk:
            c = self._color_by_point[pts[i]]
            if c in seen:
                return i
            seen.add(c)
        return None

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
        b.stage1_points.append(e)
        b.colors_seen.add(color)
        b._color_by_point[e] = color
        if len(b.stage1_points) > 2 * b.spec.w - 1:
            raise StrategyInvariantError(
                f"stage one exceeded {2 * b.spec.w - 1} points at width {b.spec.w}"
            )
        if len(b.colors_seen) < b.spec.w:
            return []
        b.terminal = e
        events: list[object] = [Stage1Ended(e)]
        if b.spec.w > 1:
            self._deeper.append(Builder(b.spec.child(), b._child_region(), self.host))
            return events
        for inst in self.instances():
            inst.done = True
            events.append(Done())
        return events

    def _child_region(self) -> Region:
        lo, hi = self.region.bounds(self.host, self._bounds)
        seq = self.host.sequence
        first = self.stage1_points[0]
        z = self.terminal
        assert z is not None
        under_first = (self.spec.family == "scan") == (self.spec.k < self.spec.w)
        if not self.spec.dual:
            if under_first:
                return Region(self.region.low, first)
            i = self.host.position(z)
            high = seq[i + 1] if i + 1 < hi else self.region.high
            return Region(z, high)
        if under_first:
            return Region(first, self.region.high)
        i = self.host.position(z)
        low = seq[i - 1] if i - 1 > lo else self.region.low
        return Region(low, z)
