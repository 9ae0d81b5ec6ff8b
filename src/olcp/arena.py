"""Game loop, transcript persistence, and the verification engine.

A game alternates strictly: the adversary strategy presents one point with
its full relation sets, the partitioner answers with a color, the arena
validates the color against the chain constraint and records the round.

Transcripts are JSON-lines: a header object, then one object per round
with sorted relation lists, so files diff cleanly and reruns are
byte-comparable.  ``verify_transcript`` re-runs the named strategy against
the recorded colors — internal orders are re-derived, never trusted — and
layers every structural check on top: per-round relation equality, chain
validity, rainbow certificates, separator placement in the keeper orders,
insertion-only growth of visible orders, thresholds, and realizer
extraction.

Live games and replays share the verification engine: one report builder,
and one insertion-only checker (``_ExtensionWatch``) that rebuilds the
visible orders from the recorded insertion anchors, so ``play`` and
``verify`` judge a game's ``ext`` records the same way.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .adversaries import (
    RainbowChains,
    LevelReport,
    Strategy,
    SzemerediStrategy,
    check_strategy,
    make_strategy,
    separator_threshold,
)
from .errors import (
    IllegalMoveError,
    OlcpError,
    StrategyInvariantError,
    TranscriptError,
)
from .partitioners import PartitionerView, make_partitioner
from .poset import (
    ChainPartition,
    LinearOrder,
    _digits_mask,
    verify_chain_partition,
    verify_realizer,
)

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# transcripts


@dataclass(frozen=True)
class TranscriptRound:
    """One recorded round; ``ext`` holds per-visible-order insertion anchors."""

    round: int
    element: int
    below: tuple[int, ...]
    above: tuple[int, ...]
    color: int
    level: int
    stage: int
    ext: tuple[int | None, ...] | None = None


@dataclass
class Transcript:
    strategy: str
    w: int
    d: int | None
    partitioner: str
    seed: int | None
    rounds: list[TranscriptRound] = field(default_factory=list)
    version: int = FORMAT_VERSION

    def serialize(self) -> str:
        header = {
            "version": self.version,
            "strategy": self.strategy,
            "w": self.w,
            "d": self.d,
            "partitioner": self.partitioner,
            "seed": self.seed,
        }
        lines = [json.dumps(header, separators=(",", ":"))]
        for r in self.rounds:
            obj: dict = {
                "round": r.round,
                "element": r.element,
                "below": list(r.below),
                "above": list(r.above),
            }
            if r.ext is not None:
                obj["ext"] = [[j, "BOTTOM" if a is None else a] for j, a in enumerate(r.ext)]
            obj["color"] = r.color
            obj["level"] = r.level
            obj["stage"] = r.stage
            lines.append(json.dumps(obj, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Transcript":
        lines = text.splitlines()
        if not lines:
            raise TranscriptError("empty transcript")
        header = _parse_object(lines[0], 1)
        _expect_keys(header, {"version", "strategy", "w", "d", "partitioner", "seed"}, set(), 1)
        version = _field_int(header, "version", 1)
        if version != FORMAT_VERSION:
            raise TranscriptError(f"unsupported format version {version}", line=1)
        strategy = header["strategy"]
        w = _field_int(header, "w", 1)
        d = header["d"]
        try:
            check_strategy(strategy, w, d=d)
        except ValueError as exc:
            raise TranscriptError(str(exc), line=1) from exc
        partitioner = header["partitioner"]
        if not isinstance(partitioner, str):
            raise TranscriptError("partitioner name must be a string", line=1)
        seed = header["seed"]
        if seed is not None and type(seed) is not int:
            raise TranscriptError("seed must be an integer or null", line=1)

        rounds = []
        for n, raw in enumerate(lines[1:], start=2):
            obj = _parse_object(raw, n)
            _expect_keys(
                obj,
                {"round", "element", "below", "above", "color", "level", "stage"},
                {"ext"},
                n,
            )
            rnd = _field_int(obj, "round", n, minimum=1)
            if rnd != n - 1:
                raise TranscriptError(f"round {rnd} out of sequence", line=n)
            element = _field_int(obj, "element", n, minimum=1)
            below = _id_list(obj, "below", n)
            above = _id_list(obj, "above", n)
            color = _field_int(obj, "color", n, minimum=1)
            level = _field_int(obj, "level", n, minimum=1)
            stage = _field_int(obj, "stage", n)
            if stage not in (1, 2):
                raise TranscriptError(f"stage must be 1 or 2, got {stage}", line=n)
            ext: tuple[int | None, ...] | None = None
            if d is not None:
                if "ext" not in obj:
                    raise TranscriptError("visible-order rounds need an ext record", line=n)
                ext = _parse_ext(obj["ext"], d, n)
            elif "ext" in obj:
                raise TranscriptError("ext belongs only to visible-order games", line=n)
            rounds.append(TranscriptRound(rnd, element, below, above, color, level, stage, ext))
        return cls(strategy, w, d, partitioner, seed, rounds, version)


def _parse_object(raw: str, line: int) -> dict:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise TranscriptError(f"not valid JSON ({exc.msg})", line=line) from exc
    except RecursionError as exc:
        raise TranscriptError("not valid JSON (nested too deeply)", line=line) from exc
    if not isinstance(obj, dict):
        raise TranscriptError("each line must be a JSON object", line=line)
    return obj


def _expect_keys(obj: dict, required: set[str], optional: set[str], line: int) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise TranscriptError(f"unexpected field {key!r}", line=line)
    for key in required:
        if key not in obj:
            raise TranscriptError(f"missing field {key!r}", line=line)


def _field_int(obj: dict, key: str, line: int, minimum: int | None = None) -> int:
    v = obj[key]
    if type(v) is not int:
        raise TranscriptError(f"field {key!r} must be an integer", line=line)
    if minimum is not None and v < minimum:
        raise TranscriptError(f"field {key!r} must be at least {minimum}", line=line)
    return v


def _id_list(obj: dict, key: str, line: int) -> tuple[int, ...]:
    v = obj[key]
    if not isinstance(v, list) or not set(map(type, v)) <= {int} or min(v, default=1) < 1:
        raise TranscriptError(f"field {key!r} must be a list of ids", line=line)
    if v != sorted(set(v)):
        raise TranscriptError(f"field {key!r} must be sorted and duplicate-free", line=line)
    return tuple(v)


def _parse_ext(raw, d: int, line: int) -> tuple[int | None, ...]:
    if not isinstance(raw, list) or len(raw) != d:
        raise TranscriptError(f"ext must list {d} insertion records", line=line)
    anchors: list[int | None] = [None] * d
    seen: set[int] = set()
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise TranscriptError("each ext record is a [index, anchor] pair", line=line)
        idx, anchor = item
        if type(idx) is not int or not 0 <= idx < d or idx in seen:
            raise TranscriptError(f"ext record has a bad order index {idx!r}", line=line)
        seen.add(idx)
        if anchor == "BOTTOM":
            anchors[idx] = None
        elif type(anchor) is int and anchor >= 1:
            anchors[idx] = anchor
        else:
            raise TranscriptError(f"ext anchor must be an id or \"BOTTOM\", got {anchor!r}", line=line)
    return tuple(anchors)


# ---------------------------------------------------------------------------
# reports


@dataclass
class GameReport:
    strategy: str
    w: int
    d: int | None
    partitioner: str
    seed: int | None
    points: int
    colors: int
    width: int
    bound: float
    bound_met: bool
    violations: list[str]
    levels: list[LevelReport] | None

    @property
    def ok(self) -> bool:
        return self.bound_met and not self.violations

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        return f"{self.points} points, {self.colors} colors, bound {self.bound:g}, {verdict}"


# ---------------------------------------------------------------------------
# the game loop


def run_game(strategy: Strategy, partitioner,
             seed: int | None = None) -> tuple[Transcript, GameReport]:
    """Play one full game and return its transcript and verified report.

    The report makes every check a replay makes, the width of the whole
    presented poset included.  The visible orders are checked to realize
    the poset once, at the end: insertion-only growth carries a wrong round
    there.  The partition handed to the partitioner is rechecked whole.
    """
    part = ChainPartition()
    rounds: list[TranscriptRound] = []
    live: list[str] = []
    watch = _ExtensionWatch(strategy)
    rnd = 0
    while not strategy.done():
        rnd += 1
        move = strategy.next_move()
        view = PartitionerView(strategy.poset, part, move.element, strategy.realizer_snapshot())
        color = partitioner.choose(view)
        if type(color) is not int or color < 1:
            raise IllegalMoveError(f"partitioner returned {color!r}; colors are positive integers")
        ok, pair = part.legal(strategy.poset, move.element, color)
        if not ok:
            assert pair is not None
            raise IllegalMoveError(
                f"color {color} on element {move.element} is not a chain: "
                f"{pair[0]} and {pair[1]} are incomparable"
            )
        part.assign(move.element, color)
        strategy.observe(color)
        rounds.append(
            TranscriptRound(
                rnd, move.element,
                tuple(sorted(move.below)), tuple(sorted(move.above)),
                color, move.level, move.stage, move.ext,
            )
        )
        watch.check(rnd, move.element, move.ext, live)
    live += verify_chain_partition(strategy.poset, part)
    transcript = Transcript(strategy.name, strategy.w, strategy.d, partitioner.name, seed, rounds)
    report = build_report(strategy, part, extra_violations=live)
    report.partitioner = partitioner.name
    report.seed = seed
    return transcript, report


class _ExtensionWatch:
    """Insertion-only growth of a strategy's visible orders, checked the
    same way in live games and in transcript replays.

    One plain-list replica per order grows from the recorded insertion
    anchors alone (the move's ``ext`` in a live game, the row's ``ext`` in
    a replay) and must equal the strategy's order after every round: then
    each order grew by inserting just the new element, directly above its
    recorded anchor, and everything already placed kept its relative
    position.  The first break, a round without an insertion record
    included, is reported and ends the watch.
    """

    def __init__(self, strategy: Strategy):
        self.orders: Sequence[LinearOrder] | None = getattr(strategy, "orders", None)
        self.replicas = None if self.orders is None else [list(o.sequence) for o in self.orders]

    def check(self, rnd: int, e: int, ext: tuple[int | None, ...] | None,
              out: list[str]) -> None:
        if self.replicas is None:
            return
        fault = self._grow(e, ext)
        if fault is not None:
            out.append(f"round {rnd}: {fault}; insertion-only growth broken")
            self.replicas = None

    def _grow(self, e: int, ext: tuple[int | None, ...] | None) -> str | None:
        """Insert e into each replica at its recorded anchor; the fault, if any."""
        if ext is None:
            return "no insertion record for the visible orders"
        for j, anchor in enumerate(ext):
            replica = self.replicas[j]
            try:
                replica.insert(0 if anchor is None else replica.index(anchor) + 1, e)
            except ValueError:
                return f"order {j} grew above unknown element {anchor}"
        for j, order in enumerate(self.orders):
            if self.replicas[j] != order.sequence:
                return f"recorded insertions rebuild a different order {j}"
        return None


# ---------------------------------------------------------------------------
# verification engine (shared by live games and transcript replay)


def build_report(strategy: Strategy, part: ChainPartition,
                 extra_violations: Iterable[str] = ()) -> GameReport:
    """Check a finished game's certificates, realizer and width; the chain
    partition is the caller's to check (a replay does it round by round)."""
    violations = list(extra_violations)
    p = strategy.poset
    colors = part.distinct_colors()
    bound = strategy.bound()
    bound_met = colors >= bound

    levels: list[LevelReport] | None = None
    if isinstance(strategy, SzemerediStrategy):
        rb = strategy.rainbow()
        if sorted(rb.chains) != list(range(1, strategy.w + 1)):
            violations.append("certificate chains do not cover sizes 1..w")
        violations += rb.verify(p, part)
        # The chain the hosts are tuned to must come first in the scan host,
        # before every other point of the game.
        pinned = rb.chains.get(strategy.k, [])
        if strategy.scan_host.sequence[: len(pinned)] != pinned:
            violations.append(
                f"tuned chain {strategy.k} is not lowest in the scan host")
    else:
        levels = strategy.level_reports()
        violations += _check_levels(strategy, part, levels)
        realizer = strategy.extract_realizer()
        if not verify_realizer(realizer, p):
            violations.append("extracted realizer does not realize the presented poset")

    width = p.width()
    if width != strategy.w:
        violations.append(f"presented poset has width {width}, the game promises {strategy.w}")

    return GameReport(
        strategy=strategy.name, w=strategy.w, d=strategy.d,
        partitioner="", seed=None,
        points=len(p), colors=colors, width=width,
        bound=bound, bound_met=bound_met,
        violations=violations, levels=levels,
    )


def _check_levels(strategy: Strategy, part: ChainPartition,
                  reports: list[LevelReport]) -> list[str]:
    v: list[str] = []
    p = strategy.poset
    sep_colors: list[set[int]] = []
    for i, rep in enumerate(reports):
        tag = f"level {rep.width}"
        if sorted(rep.chains) != list(range(1, rep.width + 1)):
            v.append(f"{tag}: forcing chains do not cover sizes 1..{rep.width}")
        if sorted(rep.dual_chains) != list(range(1, rep.width + 1)):
            v.append(f"{tag}: mirrored chains do not cover sizes 1..{rep.width}")
        rb = RainbowChains(rep.chains, frozenset(rep.s1_points))
        v += [f"{tag}: {s}" for s in rb.verify(p, part)]
        mirror = RainbowChains(rep.dual_chains, frozenset(rep.s2_points))
        dual_p = p.restrict(rep.s2_points).dual()
        v += [f"{tag} mirror: {s}" for s in mirror.verify(dual_p, part)]
        if not p.is_completely_below(rep.s2_points, rep.s1_points):
            v.append(f"{tag}: mirrored block is not completely below the forcing block")

        sep = rep.separator
        v += [f"{tag}: separator is not a chain: ({x}, {y})" for x, y in p.incomparable_pairs(sep)]
        n = part.distinct_colors(sep)
        if n != rep.separator_colors:
            v.append(f"{tag}: separator color count recorded as {rep.separator_colors}, recomputed {n}")
        threshold, strict = separator_threshold(rep.width, strategy.d)
        if not (n > threshold if strict else n >= threshold):
            v.append(f"{tag}: separator carries {n} colors, threshold {threshold:g}")
        sep_colors.append({part.color_of[x] for x in sep})

        deeper = [x for r2 in reports[i + 1:] for x in r2.s1_points + r2.s2_points]
        if deeper and not p.is_completely_incomparable(sep, deeper):
            v.append(f"{tag}: separator is comparable to a deeper point")

        v += _check_order_separation(strategy, rep, tag)

    for i in range(len(sep_colors)):
        for j in range(i + 1, len(sep_colors)):
            shared = sep_colors[i] & sep_colors[j]
            if shared:
                v.append(
                    f"levels {reports[i].width} and {reports[j].width} share separator "
                    f"color {min(shared)}"
                )
    return v


def _check_order_separation(strategy: Strategy, rep: LevelReport, tag: str) -> list[str]:
    """Placement checks inside the keeper orders: each certified chain sits
    at the bottom of the order tuned to it, and the top mirrored chain sits
    at the top of every mirror-keeper order."""
    if rep.scan_hosts is not None and rep.stack_hosts is not None:
        ks = range(1, rep.width + 1)
        forcing = [(k, "its keeper order", rep.scan_hosts[k - 1]) for k in ks]
        mirror = [(f"keeper order {k}", rep.stack_hosts[k - 1]) for k in ks]
    else:
        d = strategy.d
        assert d is not None
        j0 = rep.width - d + 2  # chain k keeps visible order k - j0
        forcing = [(k, f"visible order {k - j0}", strategy.orders[k - j0])
                   for k in range(max(1, j0), rep.width + 1)]
        mirror = [("the last visible order", strategy.orders[d - 1])]
    v: list[str] = []
    s1, s2 = set(rep.s1_points), set(rep.s2_points)
    for k, name, order in forcing:
        seq = order.restrict(s1).sequence
        if seq[: len(rep.chains[k])] != rep.chains[k]:
            v.append(f"{tag}: chain {k} is not lowest in {name}")
    top_mirror = rep.dual_chains[rep.width]
    for name, order in mirror:
        seq = order.restrict(s2).sequence
        if seq[len(seq) - len(top_mirror):] != top_mirror:
            v.append(f"{tag}: top mirrored chain is not highest in {name}")
    return v


# ---------------------------------------------------------------------------
# transcript replay


def verify_transcript(t: Transcript) -> list[str]:
    """Re-run the whole game from the transcript and report every violation.

    Empty list means the transcript is a faithful record of a passing game.
    A game's first stage one runs builders of widths w..1, each placing at
    least as many points as its width, so fewer rows than w(w+1)/2 cannot
    hold a complete game; such a transcript is rejected before any replay,
    whose setup would cost O(w) or O(d) whatever the row count.
    """
    if len(t.rounds) < t.w * (t.w + 1) // 2:
        return ["transcript ends before the game is over"]
    masks = _relation_masks(t)
    strategy = make_strategy(t.strategy, t.w, d=t.d)
    v, part = _replay(strategy, t, masks)
    if isinstance(strategy, SzemerediStrategy):
        # Every chain index must replay the same game.  Its first fault that
        # the main replay did not report shows a different one; the others
        # (color-legality faults, a cut transcript) only repeat it.
        main = set(v)
        for k in range(1, t.w):
            vk, _ = _replay(make_strategy(t.strategy, t.w, k=k), t, masks)
            s = next((s for s in vk if s not in main), None)
            if s is not None:
                v.append(f"chain index {k} presents a different game: {s}")

    if not strategy.done():
        return v
    report = build_report(strategy, part, extra_violations=v)
    out = list(report.violations)
    if not report.bound_met:
        out.append(f"forced-color bound not met: {report.colors} colors < {report.bound:g}")
    return out


def _relation_masks(t: Transcript) -> list[tuple[int | None, int | None]]:
    """Each row's below and above sets as masks (bit x for id x), as the
    poset keeps the relations of the element a replay presents in that
    round, which is the round's place in the transcript.  A set no such
    element can have -- ids not sorted and distinct, or outside 1..round-1
    -- gets None, which no mask equals, and no mask is built from it."""
    masks = []
    for e, row in enumerate(t.rounds, start=1):
        masks.append(tuple(
            _digits_mask(ids, e)
            if not ids or (ids[0] >= 1 and ids[-1] < e and list(ids) == sorted(set(ids)))
            else None
            for ids in (row.below, row.above)))
    return masks


def _replay(strategy: Strategy, t: Transcript,
            masks: Sequence[tuple[int | None, int | None]]) -> tuple[list[str], ChainPartition]:
    """Feed the recorded colors to ``strategy`` and compare every move with
    its row.  ``masks`` holds the rows' relation sets as masks
    (``_relation_masks``); each is compared with the new element's rows in
    the strategy's poset, right after its insertion."""
    v: list[str] = []
    part = ChainPartition()
    watch = _ExtensionWatch(strategy)
    below, above = strategy.poset._below, strategy.poset._above
    for row, (below_mask, above_mask) in zip(t.rounds, masks):
        if strategy.done():
            v.append(f"round {row.round}: the game was already over")
            break
        try:
            move = strategy.next_move()
        except StrategyInvariantError as exc:
            v.append(f"round {row.round}: recorded colors derail the strategy: {exc}")
            break
        e = move.element
        if e != row.element:
            v.append(f"round {row.round}: element {e} presented, transcript says {row.element}")
        if below[e] != below_mask:
            v.append(f"round {row.round}: relations below the new element differ")
        if above[e] != above_mask:
            v.append(f"round {row.round}: relations above the new element differ")
        if move.level != row.level:
            v.append(f"round {row.round}: level annotation {row.level}, re-run says {move.level}")
        if move.stage != row.stage:
            v.append(f"round {row.round}: stage annotation {row.stage}, re-run says {move.stage}")
        ok, pair = part.legal(strategy.poset, move.element, row.color)
        if not ok:
            assert pair is not None
            v.append(
                f"round {row.round}: color {row.color} is not a chain: "
                f"({pair[0]}, {pair[1]}) incomparable"
            )
        part.assign(move.element, row.color)
        try:
            strategy.observe(row.color)
        except StrategyInvariantError as exc:
            v.append(f"round {row.round}: recorded colors derail the strategy: {exc}")
            break
        watch.check(row.round, move.element, row.ext, v)
    if not strategy.done():
        v.append("transcript ends before the game is over")
    return v, part


# ---------------------------------------------------------------------------
# sweeps


def sweep(configs: Iterable[dict], violation_dir: str | Path = ".") -> list[dict]:
    """Run one game per config and return table rows, verifying everything.

    A config is a dict with keys strategy, partitioner, w, and optionally
    d, seed.  Any verification failure persists the offending transcript
    and aborts.
    """
    rows = []
    for cfg in configs:
        name = cfg["strategy"]
        w = cfg["w"]
        d = cfg.get("d")
        seed = cfg.get("seed")
        pname = cfg["partitioner"]
        strategy = make_strategy(name, w, k=cfg.get("k"), d=d)
        partitioner = make_partitioner(pname, seed=seed)
        start = time.perf_counter()
        transcript, report = run_game(strategy, partitioner, seed=seed)
        elapsed = time.perf_counter() - start
        if not report.ok:
            stem = f"violation-{name}-w{w}" + (f"-d{d}" if d else "") + f"-{pname}"
            if seed is not None:
                stem += f"-seed{seed}"
            path = Path(violation_dir) / (stem + ".jsonl")
            path.write_text(transcript.serialize())
            detail = report.violations[0] if report.violations else "forced-color bound not met"
            raise OlcpError(f"game {stem} failed verification ({detail}); transcript persisted to {path}")
        rows.append(
            {
                "strategy": name,
                "partitioner": pname,
                "w": w,
                "d": d,
                "seed": seed,
                "points": report.points,
                "colors": report.colors,
                "bound": report.bound,
                "bound_met": report.bound_met,
                "runtime": elapsed,
            }
        )
    return rows
