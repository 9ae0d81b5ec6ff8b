"""Outside-in tracer for the olcp benchmark.

The tracer wraps library functions and methods from the benchmark's side;
no file under ``src/`` knows it exists.  Every wrapped call is a span at a
layer boundary, named ``<layer>.<boundary>`` after the module that owns
the code.  A span's self time is its duration minus the time its child
spans cover.

Boundaries called more than about 10^5 times a run (``AGGREGATED``) only
feed the per-boundary totals; every other span is also kept in memory as a
``(id, parent, request, name, start, end)`` record and written out by
:meth:`Tracer.dump` when the run ends.  One request is one game (played or
verified); its spans share the request id.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterator

from olcp import adversaries, arena, builders, partitioners, poset

# (metric name, owner, attribute).  The owner is a class or a module; for a
# module-level function every olcp module that imported it by value is
# patched too, so calls routed through either name are seen.
BOUNDARIES: tuple[tuple[str, object, str], ...] = (
    ("arena.run_game", arena, "run_game"),
    ("arena.build_report", arena, "build_report"),
    ("arena.check_levels", arena, "_check_levels"),
    ("arena.extension_watch", arena._ExtensionWatch, "check"),
    ("arena.verify_transcript", arena, "verify_transcript"),
    ("arena.replay", arena, "_replay"),
    ("arena.transcript_parse", arena.Transcript, "parse"),
    ("arena.transcript_serialize", arena.Transcript, "serialize"),
    ("adversaries.next_move", adversaries.Strategy, "next_move"),
    ("adversaries.observe", adversaries.Strategy, "observe"),
    ("adversaries.intersect_relations", adversaries, "_intersect_relations"),
    ("adversaries.realizer_snapshot", adversaries.Strategy, "realizer_snapshot"),
    ("adversaries.realizer_snapshot", adversaries.PresentedRealizerStrategy, "realizer_snapshot"),
    ("adversaries.certificates", adversaries.RainbowChains, "verify"),
    ("adversaries.level_reports", adversaries.HiddenRealizerStrategy, "level_reports"),
    ("adversaries.level_reports", adversaries.PresentedRealizerStrategy, "level_reports"),
    ("adversaries.extract_realizer", adversaries.HiddenRealizerStrategy, "extract_realizer"),
    ("adversaries.extract_realizer", adversaries.PresentedRealizerStrategy, "extract_realizer"),
    ("builders.place_next", builders.Builder, "place_next"),
    ("builders.observe_color", builders.Builder, "observe_color"),
    ("partitioners.choose", partitioners.FirstFit, "choose"),
    ("partitioners.choose", partitioners.RandomValid, "choose"),
    ("partitioners.legal_colors", partitioners.PartitionerView, "legal_colors"),
    ("poset.insert", poset.Poset, "_add_closed"),
    ("poset.insert_above", poset.LinearOrder, "insert_above"),
    ("poset.positions", poset.LinearOrder, "positions"),
    ("poset.legal", poset.ChainPartition, "legal"),
    ("poset.intersect", poset, "intersect"),
    ("poset.is_extension_of", poset.LinearOrder, "is_extension_of"),
    ("poset.verify_realizer", poset, "verify_realizer"),
    ("poset.width", poset.Poset, "width"),
    ("poset.verify_chain_partition", poset, "verify_chain_partition"),
)

#: Boundary names in report order, each listed once.
BOUNDARY_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in BOUNDARIES))

#: Call sites above about 10^5 calls a run: totals only, no span records.
AGGREGATED = frozenset({
    "builders.place_next",
    "builders.observe_color",
    "poset.insert_above",
    "poset.positions",
    "poset.legal",
})

#: A span opened directly inside one of these is folded into it.  Every
#: boundary folds into itself (recursive builders, ``super()`` calls);
#: ``Poset._add_closed`` counts as ``poset.insert`` only when an adversary
#: calls it, not when ``intersect`` assembles its result poset.
FOLD_UNDER = {"poset.insert": frozenset({"poset.insert", "poset.intersect"})}

ROOT = "bench.game"


class Tracer:
    """Span stack, per-boundary totals and span records for one traced run."""

    def __init__(self) -> None:
        # A frame is [child time, name, id of the nearest recorded span].
        self._stack: list[list] = [[0.0, None, None]]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.legal_checks = 0
        self.legal_hits = 0
        self.positions_hits = 0
        self._next_id = 0
        self._request = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def game(self) -> Iterator[None]:
        """The outermost span: one game, a request of its own."""
        self._request += 1
        self._next_id += 1
        frame = [0.0, ROOT, self._next_id]
        parent = self._stack[-1]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._close(ROOT, frame, parent, t0, t1, record=True)

    def _close(self, name: str, frame: list, parent: list, t0: float, t1: float,
               record: bool) -> None:
        dur = t1 - t0
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[0]
        self.calls[name] = self.calls.get(name, 0) + 1
        parent[0] += dur
        if record:
            self.spans.append((frame[2], parent[2], self._request, name, t0, t1))

    def _wrap(self, name: str, fn: Callable, before: Callable | None = None,
              after: Callable | None = None) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        record = name not in AGGREGATED
        fold = FOLD_UNDER.get(name, frozenset({name}))
        close = self._close

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[1] in fold:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            if record:
                self._next_id += 1
                frame = [0.0, name, self._next_id]
            else:
                frame = [0.0, name, parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                close(name, frame, parent, t0, t1, record)
            if after is not None:
                after(parent, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- waste counters --------------------------------------------------------

    def _count_legal(self, parent: list, result: tuple) -> None:
        """A ``legal()`` answer given to the partitioner's legality scan."""
        if parent[1] == "partitioners.legal_colors":
            self.legal_checks += 1
            self.legal_hits += result[0]

    def _count_positions(self, args: tuple) -> None:
        """Reads the order's stale flag before ``positions()`` may rebuild."""
        if not args[0]._stale:
            self.positions_hits += 1

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if isinstance(m, ModuleType) and (key == "olcp" or key.startswith("olcp."))]
        for name, owner, attr in BOUNDARIES:
            if isinstance(owner, ModuleType):
                fn = getattr(owner, attr)
                traced = self._wrap(name, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, key, traced)
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                traced = classmethod(self._wrap(name, raw.__func__))
            elif name == "poset.positions":
                traced = self._wrap(name, raw, before=self._count_positions)
            elif name == "poset.legal":
                traced = self._wrap(name, raw, after=self._count_legal)
            else:
                traced = self._wrap(name, raw)
            self._patch(owner, attr, traced)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def mark(self) -> dict[str, float]:
        """Self times so far, to rescale what a game adds to them."""
        return dict(self.self_s)

    def rescale(self, mark: dict[str, float], factor: float) -> None:
        """Scale the self time added since ``mark`` (wall to calibrated)."""
        for name, total in self.self_s.items():
            base = mark.get(name, 0.0)
            self.self_s[name] = base + (total - base) * factor

    # -- results ---------------------------------------------------------------

    def metrics(self, wall_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in BOUNDARY_NAMES + (ROOT,):
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0), "s")
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
        calls = self.calls
        positions = calls.get("poset.positions", 0)
        verifies = calls.get("arena.verify_transcript", 0)
        out["partitioners.legal_hit_ratio"] = (
            self.legal_hits / self.legal_checks if self.legal_checks else 0.0, "ratio")
        out["poset.positions.hit_ratio"] = (
            self.positions_hits / positions if positions else 0.0, "ratio")
        out["arena.replays_per_transcript"] = (
            calls.get("arena.replay", 0) / verifies if verifies else 0.0, "ratio")
        out["trace.traced_s"] = (wall_s, "s")
        out["trace.untraced_s"] = (untraced_s, "s")
        out["trace.overhead_s"] = (wall_s - untraced_s, "s")
        return out

    def dump(self, path: Path) -> None:
        """Write every span record as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "request", "name", "start", "end")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span)), separators=(",", ":")) + "\n")
