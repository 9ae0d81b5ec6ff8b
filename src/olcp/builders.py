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
them in the stack host.  :func:`olcp.poset._tuned_hosts` reads each block's
order from the all-scan or the all-stack host; a prefix of the colors gives
a prefix of each game, so it holds mid-game too.

A root builder keeps its deeper instances in one list, widest first, and
acts on the last of them directly, so a call takes one step at any depth.
No instance refers to an ancestor or to itself, so a finished game is freed
without the cycle collector.  A scan-rule instance keeps its scan target as
colors arrive: a new point lands just before the target in walk order, so
each color updates it in one step.

While an instance places points, its region holds exactly its own stage-one
points, because only the active instance inserts into its host and every
region opens empty: a child region borders its parent's terminal or lies
below its parent's first point (above, when dual), a level's dual root lies
below the level's lowest stage-one point, and a staged game's next window
lies between two adjacent points of the level before.  A host's one other
write, a finished ``theorem1`` level splicing its block in place, reorders
only points that no open region holds.  So a new point's place follows from
its slot among the instance's own points: its anchor is the own point below
the slot (the region's low bound at slot 0), its host index the low bound's
index, found once when the instance opens, plus the slot, and its masks in
the host are the region's outside masks (``Region.below``/``above``) plus
the instance's own points on either side of the slot.  A child region's
bounds are its parent's points on either side of it, and its outside masks
add those points.  :meth:`Builder.place_next` keeps the two masks on the
root builder, and a game intersects its hosts by ANDing its roots' masks.
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

    ``below``/``above`` mask the host's elements below and above the window,
    each bound included (see the module docstring); the bounds alone
    identify a region.
    """

    low: object  # element id or BOTTOM
    high: object  # element id or TOP
    below: int = field(default=0, compare=False, repr=False)
    above: int = field(default=0, compare=False, repr=False)


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
    A scan-rule instance keeps its target current in ``observe_color``, so
    a placement walks nothing and searches nothing: its slot among the
    instance's own points gives its anchor, host index and masks.

    Raises StrategyInvariantError when the region's outside masks overlap
    or miss its bounds, the masks every placement reads.
    """

    __slots__ = (
        "spec", "region", "host", "done", "masks", "_in_host_order",
        "colors_seen", "terminal", "_pending", "_lo",
        "_deeper", "_scan", "_target", "_walked", "_own",
    )

    def __init__(self, spec: BuilderSpec, region: Region, host: LinearOrder):
        low, high, below, above = region.low, region.high, region.below, region.above
        if not ((low is BOTTOM or below >> low & 1) and (high is TOP or above >> high & 1)
                and not below & above):
            raise StrategyInvariantError(f"region {region} does not match its outside masks")
        self.spec = spec
        self.region = region
        self.host = host
        self.done = spec.w == 0
        # Masks of the host below and above the point last placed (root only).
        self.masks: tuple[int, int] | None = None
        # Own stage-one points (the pending one too), lowest in the host first.
        self._in_host_order: list[int] = []
        self._own = 0  # their mask
        self.colors_seen: set[int] = set()
        self.terminal: int | None = None
        self._pending: int | None = None
        # Host index of the region's low bound; own points follow it.
        self._lo = -1 if low is BOTTOM else host.sequence.index(low)
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
        ``e`` at its stage-one rule's slot among its own points, and this
        builder keeps in ``masks`` the masks of the elements below and
        above ``e``: the region's outside masks and the instance's own
        points on either side, ORed from the shorter side.
        """
        if self.done:
            raise StrategyInvariantError("placement requested on a finished builder")
        b = self.active()
        if b._pending is not None:
            raise StrategyInvariantError(f"point {b._pending} still awaits its color")
        own, r, dual = b._in_host_order, b.region, b.spec.dual
        if b._target is not None:  # scan rule: just below the target in the host, above when dual
            slot = b._target + dual
        else:  # stack rule (also the scan fallback): far end of the region
            slot = 0 if dual else len(own)
        anchor = own[slot - 1] if slot else (None if r.low is BOTTOM else r.low)
        self.host.insert_above(anchor, e, b._lo + slot)
        if 2 * slot < len(own):
            above = b._own ^ (below := _mask(own[:slot]))
        else:
            below = b._own ^ (above := _mask(own[slot:]))
        self.masks = (r.below | below, r.above | above)
        own.insert(slot, e)
        b._own |= 1 << e
        b._pending = e
        return anchor

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
        if b._scan:  # e went just before the target in walk order, or at the walk's end
            t, dual = b._target, b.spec.dual
            if color in b._walked:  # e is the new target
                b._target = (0 if dual else len(b._in_host_order) - 1) if t is None else t + dual
            else:
                b._walked.add(color)
                if t is not None and not dual:
                    b._target = t + 1  # e sits below it
        if len(b._in_host_order) > 2 * b.spec.w - 1:
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
        """The stage-two instance, in the region between two adjacent own
        points, or an own point and a bound: just above the terminal under
        the scan rule (below it, when dual), and under the stack rule
        between the near bound and the first point, which every later point
        was piled beyond.  Its outside masks add the own points on either
        side."""
        r, own, dual = self.region, self._in_host_order, self.spec.dual
        if self._scan:
            s = own.index(self.terminal) + (not dual)  # own points below the child region
        else:
            s = len(own) if dual else 0
        low = own[s - 1] if s else r.low
        high = own[s] if s < len(own) else r.high
        below = _mask(own[:s])
        region = Region(low, high, r.below | below, r.above | (self._own ^ below))
        return Builder(self.spec.child(), region, self.host)
