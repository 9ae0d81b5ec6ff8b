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
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .adversaries import (
    PresentedRealizerStrategy,
    RainbowChains,
    LevelReport,
    Move,
    Strategy,
    SzemerediStrategy,
    _intersect_relations,
    make_strategy,
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
    verify_chain_partition,
    verify_realizer,
)

FORMAT_VERSION = 1

STRATEGY_CHOICES = ("szemeredi", "theorem1", "theorem2")


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
        if strategy not in STRATEGY_CHOICES:
            raise TranscriptError(f"unknown strategy {strategy!r}", line=1)
        w = _field_int(header, "w", 1, minimum=1)
        d = header["d"]
        if strategy == "theorem2":
            if type(d) is not int or d < 2:
                raise TranscriptError("visible-order games need an integer d >= 2", line=1)
        elif d is not None:
            raise TranscriptError("d belongs only to visible-order games", line=1)
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
            if strategy == "theorem2":
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
    if not isinstance(v, list) or any(type(x) is not int or x < 1 for x in v):
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
    width: int | None
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


def run_game(strategy: Strategy, partitioner, seed: int | None = None,
             checks: str = "full") -> tuple[Transcript, GameReport]:
    """Play one full game and return its transcript and verified report.

    ``checks`` is "full" (default) or "lemmas"; the latter skips the
    whole-poset width recomputation (a maximum matching over all
    comparable pairs), for high-volume fuzzing.
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
        part.assign(move.element, color, rnd)
        strategy.observe(color)
        rounds.append(
            TranscriptRound(
                rnd, move.element,
                tuple(sorted(move.below)), tuple(sorted(move.above)),
                color, move.level, move.stage, move.ext,
            )
        )
        watch.check(move, live)
    transcript = Transcript(strategy.name, strategy.w, strategy.d, partitioner.name, seed, rounds)
    report = build_report(strategy, part, checks=checks, extra_violations=live)
    report.partitioner = partitioner.name
    report.seed = seed
    return transcript, report


class _ExtensionWatch:
    """Round-by-round checks on a strategy that keeps visible orders.

    Confirms each order grew by inserting just the new element (everything
    already placed keeps its relative position) and that the presented
    relations are exactly the intersection of the orders — which, round by
    round, keeps the orders a realizer of the presented poset.
    """

    def __init__(self, strategy: Strategy):
        self.orders: Sequence[LinearOrder] | None = getattr(strategy, "orders", None)
        self.prev = [list(o.sequence) for o in self.orders] if self.orders else []

    def check(self, move: Move, out: list[str]) -> None:
        if self.orders is None:
            return
        e = move.element
        for j, order in enumerate(self.orders):
            seq = order.sequence
            if len(seq) != len(self.prev[j]) + 1 or e not in order or not _subsequence(self.prev[j], seq):
                out.append(f"round {e}: visible order {j} did not grow by insertion only")
        below, above = _intersect_relations(self.orders, e)
        if set(move.below) != below or set(move.above) != above:
            out.append(
                f"round {e}: presented relations are not the intersection of the visible orders"
            )
        self.prev = [list(o.sequence) for o in self.orders]


def _subsequence(small: list[int], big: list[int]) -> bool:
    it = iter(big)
    return all(x in it for x in small)


# ---------------------------------------------------------------------------
# verification engine (shared by live games and transcript replay)


def build_report(strategy: Strategy, part: ChainPartition, checks: str = "full",
                 extra_violations: Iterable[str] = (),
                 recheck_partition: bool = True) -> GameReport:
    violations = list(extra_violations)
    p = strategy.poset
    colors = part.distinct_colors()
    bound = strategy.bound()
    bound_met = colors >= bound
    if recheck_partition:
        violations += verify_chain_partition(p, part)

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

    width = None
    if checks == "full":
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
    visible = isinstance(strategy, PresentedRealizerStrategy)
    strict = not visible
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
        for a_i in range(len(sep)):
            for b_i in range(a_i + 1, len(sep)):
                if not p.comparable(sep[a_i], sep[b_i]):
                    v.append(f"{tag}: separator is not a chain: ({sep[a_i]}, {sep[b_i]})")
        n = part.distinct_colors(sep)
        if n != rep.separator_colors:
            v.append(f"{tag}: separator color count recorded as {rep.separator_colors}, recomputed {n}")
        ok = n > rep.threshold if strict else n >= rep.threshold
        if not ok:
            v.append(f"{tag}: separator carries {n} colors, threshold {rep.threshold:g}")
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
    v: list[str] = []
    s1, s2 = set(rep.s1_points), set(rep.s2_points)
    top_mirror = rep.dual_chains[rep.width]
    if rep.scan_hosts is not None and rep.stack_hosts is not None:
        for k in range(1, rep.width + 1):
            seq = rep.scan_hosts[k - 1].restrict(s1).sequence
            if seq[: len(rep.chains[k])] != rep.chains[k]:
                v.append(f"{tag}: chain {k} is not lowest in its keeper order")
        for k in range(1, rep.width + 1):
            seq = rep.stack_hosts[k - 1].restrict(s2).sequence
            if seq[len(seq) - len(top_mirror):] != top_mirror:
                v.append(f"{tag}: top mirrored chain is not highest in keeper order {k}")
    else:
        d = strategy.d
        assert d is not None
        lo = max(1, rep.width - d + 2)
        for k in range(lo, rep.width + 1):
            j = k - (rep.width - d + 2)
            seq = strategy.orders[j].restrict(s1).sequence
            if seq[: len(rep.chains[k])] != rep.chains[k]:
                v.append(f"{tag}: chain {k} is not lowest in visible order {j}")
        seq = strategy.orders[d - 1].restrict(s2).sequence
        if seq[len(seq) - len(top_mirror):] != top_mirror:
            v.append(f"{tag}: top mirrored chain is not highest in the last visible order")
    return v


# ---------------------------------------------------------------------------
# transcript replay


def verify_transcript(t: Transcript) -> list[str]:
    """Re-run the whole game from the transcript and report every violation.

    Empty list means the transcript is a faithful record of a passing game.
    """
    if t.strategy == "szemeredi":
        strategy: Strategy = SzemerediStrategy(t.w)
        v, part = _replay(strategy, t)
        for k in range(1, t.w):
            other = SzemerediStrategy(t.w, k=k)
            vk, _ = _replay(other, t)
            for s in vk:
                if "relations" in s or "element" in s:
                    v.append(f"chain index {k} presents a different game: {s}")
                    break
    elif t.strategy == "theorem1":
        strategy = make_strategy("theorem1", t.w)
        v, part = _replay(strategy, t)
    else:
        strategy = make_strategy("theorem2", t.w, d=t.d)
        v, part = _replay(strategy, t, track_ext=True)

    if not strategy.done():
        return v
    report = build_report(strategy, part, checks="full",
                          extra_violations=v, recheck_partition=False)
    out = list(report.violations)
    if not report.bound_met:
        out.append(f"forced-color bound not met: {report.colors} colors < {report.bound:g}")
    return out


def _replay(strategy: Strategy, t: Transcript,
            track_ext: bool = False) -> tuple[list[str], ChainPartition]:
    v: list[str] = []
    part = ChainPartition()
    replicas = [LinearOrder() for _ in range(t.d)] if track_ext else None
    replicas_ok = track_ext
    for row in t.rounds:
        if strategy.done():
            v.append(f"round {row.round}: the game was already over")
            break
        try:
            move = strategy.next_move()
        except StrategyInvariantError as exc:
            v.append(f"round {row.round}: recorded colors derail the strategy: {exc}")
            break
        if move.element != row.element:
            v.append(f"round {row.round}: element {move.element} presented, transcript says {row.element}")
        if tuple(sorted(move.below)) != row.below:
            v.append(f"round {row.round}: relations below the new element differ")
        if tuple(sorted(move.above)) != row.above:
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
        part.assign(move.element, row.color, row.round)
        try:
            strategy.observe(row.color)
        except StrategyInvariantError as exc:
            v.append(f"round {row.round}: recorded colors derail the strategy: {exc}")
            break
        if replicas_ok and row.ext is not None:
            assert replicas is not None
            for j, anchor in enumerate(row.ext):
                if anchor is not None and anchor not in replicas[j]:
                    v.append(
                        f"round {row.round}: order {j} grew above unknown element {anchor}; "
                        "insertion-only growth broken"
                    )
                    replicas_ok = False
                    break
                replicas[j].insert_above(anchor, move.element)
            if replicas_ok:
                bad = [
                    j for j in range(len(replicas))
                    if replicas[j] != strategy.orders[j]  # type: ignore[attr-defined]
                ]
                if bad:
                    v.append(
                        f"round {row.round}: recorded insertions rebuild a different order "
                        f"{bad[0]}; insertion-only growth broken"
                    )
                    replicas_ok = False
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
