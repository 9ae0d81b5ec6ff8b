"""Calibrated seconds: wall time corrected for the machine's current speed.

On a shared machine the same Python code runs up to about 40% slower for
stretches of seconds to minutes, and that drift, not the program, sets the
run-to-run spread of raw wall times.  A fixed reference loop that never
touches olcp is timed between timed blocks and, every ``PROBE_EVERY_S``,
between two rounds inside a block; the probes themselves are left out of
the timed work.  The reference's speed tracks the drift closely: over
5-second blocks of games the correlation was 0.99.  Each stretch between
two probes is scaled by the mean speed of the probes at its ends:

    calibrated seconds = wall seconds x REFERENCE_S / reference wall seconds

A change to the library moves calibrated time exactly as it moves wall
time, because the reference does not depend on the library.  Calibrated
time is the wall time on a machine that runs the reference in
``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 0.0025
PROBE_EVERY_S = 0.2
_REFERENCE_N = 250
_REFERENCE_RUNS = 3


def _reference() -> int:
    """Fixed work shaped like the library's: set building, membership, dicts."""
    below: dict[int, set[int]] = {}
    hits = 0
    for e in range(1, _REFERENCE_N):
        down = {x for x in range(1, e) if (x * 7919 + e) % 5 == 0}
        below[e] = down
        for x in down:
            if e not in below[x]:
                hits += 1
    return hits


def probe() -> float:
    """Current speed: REFERENCE_S over the median of a few reference runs.

    The median keeps a pause of the machine inside one run out of the
    probe.  The cyclic collector is off meanwhile: the reference's
    allocations must not pay for collecting the game's heap, or the probe
    would read slower the larger that heap is.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        runs = []
        for _ in range(_REFERENCE_RUNS):
            t0 = time.perf_counter()
            _reference()
            runs.append(time.perf_counter() - t0)
        return REFERENCE_S / statistics.median(runs)
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times blocks of work in wall and calibrated seconds.

    ``start()`` opens a block, ``tick()`` marks a round boundary inside it
    (recording the interval since the previous tick of the same key), and
    ``stop()`` closes it and returns ``(wall_s, calibrated_s)``.  Calibrated
    round intervals go to the list given to ``start()``.
    """

    def __init__(self) -> None:
        self.current = probe()
        self.factors: list[float] = []
        self.probe_inside = True
        self._intervals: list[float] | None = None
        self._pending: list[float] = []
        self._seg_start = 0.0
        self._seg_wall = 0.0
        self._wall = self._calibrated = 0.0
        self._last_tick: float | None = None
        self._last_key: object = None

    def start(self, intervals: list[float] | None = None) -> None:
        self._intervals = intervals
        self._wall = self._calibrated = 0.0
        self._last_tick = None
        self._seg_start = time.perf_counter()

    def tick(self, key: object = None) -> None:
        now = time.perf_counter()
        if self._last_tick is not None and key is self._last_key:
            self._pending.append(now - self._last_tick)
        self._last_tick, self._last_key = now, key
        if self.probe_inside and now - self._seg_start >= PROBE_EVERY_S:
            self._seg_wall += now - self._seg_start
            self._flush()
            self._seg_start = self._last_tick = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        self._seg_wall += time.perf_counter() - self._seg_start
        self._flush()
        return self._wall, self._calibrated

    def _flush(self) -> None:
        now = probe()
        factor = (self.current + now) / 2
        self.current = now
        self.factors.append(factor)
        self._wall += self._seg_wall
        self._calibrated += self._seg_wall * factor
        if self._intervals is not None:
            self._intervals.extend(x * factor for x in self._pending)
        self._pending.clear()
        self._seg_wall = 0.0

    def median(self) -> float:
        return statistics.median(self.factors) if self.factors else self.current
