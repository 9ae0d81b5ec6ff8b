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
points; the builder then delegates to a single child in a sub-region, down
to width zero.  Dual orientation mirrors every direction, so a dual run is
exactly a primal run reflected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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

    def bounds(self, host: LinearOrder) -> tuple[int, int]:
        """(lo_idx, hi_idx): in-region positions are lo_idx < i < hi_idx."""
        lo = -1 if self.low is BOTTOM else host.position(self.low)
        hi = len(host) if self.high is TOP else host.position(self.high)
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
    """One recursive builder instance bound to a host order and region."""

    __slots__ = (
        "spec", "region", "host", "stage", "stage1_points",
        "colors_seen", "terminal", "child", "_pending", "_color_by_point",
    )

    def __init__(self, spec: BuilderSpec, region: Region, host: LinearOrder):
        self.spec = spec
        self.region = region
        self.host = host
        self.stage = "done" if spec.w == 0 else "one"
        self.stage1_points: list[int] = []
        self.colors_seen: set[int] = set()
        self.terminal: int | None = None
        self.child: Builder | None = None
        self._pending: int | None = None
        self._color_by_point: dict[int, int] = {}

    # -- queries ------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.stage == "done"

    def active(self) -> "Builder":
        """The deepest instance currently placing points."""
        b = self
        while b.stage == "two":
            assert b.child is not None
            b = b.child
        return b

    def instances(self) -> Iterator["Builder"]:
        """This instance and every descendant, outermost first."""
        b: Builder | None = self
        while b is not None:
            yield b
            b = b.child

    # -- placement ------------------------------------------------------------

    def place_next(self, e: int) -> int | None:
        """Insert fresh element ``e`` into the host; return its anchor.

        The anchor is the element ``e`` now sits directly above (None when
        ``e`` became the new host bottom).
        """
        if self.done:
            raise StrategyInvariantError("placement requested on a finished builder")
        if self.stage == "two":
            assert self.child is not None
            return self.child.place_next(e)
        if self._pending is not None:
            raise StrategyInvariantError(f"point {self._pending} still awaits its color")
        anchor = self._stage1_anchor()
        self.host.insert_above(anchor, e)
        self._pending = e
        return anchor

    def _stage1_anchor(self) -> int | None:
        use_scan = (self.spec.family == "scan") == (self.spec.k == self.spec.w)
        _, hi = self.region.bounds(self.host)
        seq = self.host.sequence
        if use_scan:
            y = self._scan_target()
            if y is not None:
                if self.spec.dual:
                    return y  # directly above y
                i = self.host.position(y)
                return seq[i - 1] if i - 1 >= 0 else None
        # stack rule (also the scan fallback): far end of the region
        if self.spec.dual:
            return None if self.region.low is BOTTOM else self.region.low
        return seq[hi - 1] if hi - 1 >= 0 else None

    def _scan_target(self) -> int | None:
        """Walk own stage-one points from the near end of the region and
        return the first whose color repeats an earlier one; None if the
        colors seen so far are all distinct."""
        pos = self.host.positions()
        pts = sorted(self.stage1_points, key=pos.__getitem__, reverse=self.spec.dual)
        seen: set[int] = set()
        for p in pts:
            c = self._color_by_point[p]
            if c in seen:
                return p
            seen.add(c)
        return None

    # -- color observation ------------------------------------------------------

    def observe_color(self, e: int, color: int) -> list[object]:
        """Record Bertha's color for the point just placed; return events."""
        if self.done:
            raise StrategyInvariantError("color observed on a finished builder")
        if self.stage == "two":
            assert self.child is not None
            events = self.child.observe_color(e, color)
            if self.child.done:
                self.stage = "done"
                events = list(events) + [Done()]
            return events
        if self._pending != e:
            raise StrategyInvariantError(
                f"color for {e} but the pending point is {self._pending}"
            )
        self._pending = None
        self.stage1_points.append(e)
        self.colors_seen.add(color)
        self._color_by_point[e] = color
        if len(self.stage1_points) > 2 * self.spec.w - 1:
            raise StrategyInvariantError(
                f"stage one exceeded {2 * self.spec.w - 1} points at width {self.spec.w}"
            )
        if len(self.colors_seen) < self.spec.w:
            return []
        self.terminal = e
        events: list[object] = [Stage1Ended(e)]
        if self.spec.w == 1:
            self.stage = "done"
            events.append(Done())
            return events
        self.child = Builder(self.spec.child(), self._child_region(), self.host)
        self.stage = "two"
        return events

    def _child_region(self) -> Region:
        lo, hi = self.region.bounds(self.host)
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
