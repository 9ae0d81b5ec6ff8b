"""Game loop, transcript persistence, and the verification engine.

A game alternates strictly: the adversary strategy presents one point with
its full relation sets, the partitioner answers with a color, the arena
validates the color against the chain constraint and records the round.

Transcripts are JSON-lines: a header object, then one object per round
with sorted relation lists, so files diff cleanly and reruns are
byte-comparable.  The rows of played and parsed games keep those lists as
the masks that strategies present and the verifier compares.  A
``_RowWriter`` and a ``_RowReader`` take one row at a time, keeping an id
table grown a row at a time and the previous row's two lists.  A row whose
ids lie below its place is written from the table (``_round_line``), any
other by ``json.dumps`` (``_round_json``).  Most lists repeat one of the
previous row's or add one id above its top; such a list is written from
that list's text and read back as its mask.  A line so written is read by
matching the text around its lists (``_canonical_row``), any other whole,
which keeps the lists the reader last matched for the next line.
``verify_transcript`` re-runs the named strategy against the recorded
colors — internal orders are re-derived, never trusted — and layers every
structural check on top: per-round relation equality, chain validity,
rainbow certificates, separator placement in the keeper orders,
insertion-only growth of visible orders, thresholds, and realizer
extraction.  The other chain indices of a szemeredi game or a ``theorem1``
level are checked without a builder, from positions in the two hosts tuned
to the widest: each is accepted by its cross pairs, or else the hosts tuned
to it are built and their rows compared with the poset's.  They come from
``poset._tuned_hosts``, the formula a finished level re-tunes its block by.

Live games and replays share the verification engine: one report builder,
and one insertion-only checker (``_ExtensionWatch``), O(d) a round, so
``play`` and ``verify`` judge a game's ``ext`` records the same way.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, combinations, compress, count, islice
from operator import and_, or_
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import poset
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
    RelationError,
    StrategyInvariantError,
    TranscriptError,
)
from .partitioners import PartitionerView, make_partitioner
from .poset import (
    ChainPartition,
    LinearOrder,
    _digits,
    _digits_mask,
    _first_difference,
    _mask,
    _mask_ids,
    _realized_rows,
    _realizer_width,
    _tuned_hosts,
    verify_chain_partition,
    verify_realizer,
)

FORMAT_VERSION = 1

# Field names in the order they are written, checked and reported.
_HEADER_FIELDS = ("version", "strategy", "w", "d", "partitioner", "seed")
_ROUND_FIELDS = ("round", "element", "below", "above", "color", "level", "stage")


# ---------------------------------------------------------------------------
# transcripts


class _Ids:
    """A row's ``below``/``above`` field, kept in its ``__dict__``: an int is
    a mask and reads as a tuple of ids, anything else as given.  A new value,
    as ``dataclasses.replace`` passes for every field, replaces a kept mask.
    Having ``__set__``, the field outranks the row's ``__dict__`` on reads."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, row, owner=None):
        ids = row.__dict__[self.name]  # AttributeError on the class: no default
        return tuple(_mask_ids(ids)) if type(ids) is int else ids

    def __set__(self, row, value) -> None:
        row.__dict__[self.name] = value


@dataclass(frozen=True, init=False)
class TranscriptRound:
    """One recorded round; ``ext`` holds per-visible-order insertion anchors.
    Rows made by ``run_game`` and ``Transcript.parse`` keep ``below`` and
    ``above`` as masks (``_Ids``), and compare, hash and print as tuples."""

    round: int
    element: int
    below: tuple[int, ...] = _Ids()
    above: tuple[int, ...] = _Ids()
    color: int
    level: int
    stage: int
    ext: tuple[int | None, ...] | None = None

    def __init__(self, round: int, element: int, below, above, color: int, level: int,
                 stage: int, ext: tuple[int | None, ...] | None = None) -> None:
        # One update of __dict__, where a frozen dataclass's own __init__
        # makes one object.__setattr__ call per field.
        self.__dict__.update(round=round, element=element, below=below, above=above,
                             color=color, level=level, stage=stage, ext=ext)


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
        """The transcript as JSON lines, byte for byte what ``json.dumps`` writes: each
        row by ``_RowWriter``, the header, whose strings need escaping, by ``json.dumps``."""
        header = {key: getattr(self, key) for key in _HEADER_FIELDS}
        # The final "" joins the last newline on, rather than adding it to a copy.
        return "\n".join([json.dumps(header, separators=(",", ":")),
                          *map(_RowWriter().line, self.rounds), ""])

    @classmethod
    def parse(cls, text: str) -> "Transcript":
        """The transcript ``text`` holds, its rows read by ``_RowReader``, their id
        lists kept as masks; ``TranscriptError`` names the first line at fault."""
        lines = text.splitlines()
        if not lines:
            raise TranscriptError("empty transcript")
        header = _parse_object(lines[0], 1)
        _expect_keys(header, _HEADER_FIELDS, (), 1)
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
        rounds = list(map(_RowReader(d).row, lines[1:], count(2)))
        return cls(strategy, w, d, partitioner, seed, rounds, version)


class _RowWriter:
    """Round lines, one row at a time.  A row of five int fields, kept
    ``below``/``above`` masks and ``ext`` anchors of None or ids, all ids
    below its place, is written by ``_round_line``; any other, a hand-built
    tuple row included, by ``_round_json``.  ``_list_text`` writes a list
    from ``last``, the previous table-path row's masks and their texts."""

    def __init__(self) -> None:
        self.texts = ["0"]  # id x's text at index x, up to the last row's place
        self.last: dict[int, str] = {}

    def line(self, r: TranscriptRound) -> str:
        texts = self.texts
        n = len(texts)  # the row's place: its ids and anchors lie below it
        texts.append(str(n))
        kept = r.__dict__  # the stored masks, not the tuples they read as
        below, above, ext = kept["below"], kept["above"], r.ext
        if (type(below) is type(above) is int and not (below | above) >> n
                and type(r.round) is type(r.element) is type(r.color) is int
                and type(r.level) is type(r.stage) is int
                and (ext is None or type(ext) is tuple and all(
                    a is None or type(a) is int and 0 <= a < n for a in ext))):
            below_text = _list_text(below, self.last, texts)
            above_text = _list_text(above, self.last, texts)
            self.last = {below: below_text, above: above_text}
            return _round_line(r, below_text, above_text, texts)
        return _round_json(r)


class _RowReader:
    """Round rows, each read from the lines before it alone: ``ids`` maps
    the text of each id below the next row's round to the id, and ``last``
    holds the two list bodies and masks of the last row ``_canonical_row``
    read (``_kept_mask``), a true reading of their text at any later round."""

    def __init__(self, d: int | None) -> None:
        self.d = d
        self.ids: dict[str, int] = {}
        self.last: tuple[tuple[str, int], ...] = ()

    def row(self, raw: str, n: int) -> TranscriptRound:
        """Line ``n``'s row, by ``_canonical_row`` or else decoded whole, its
        fields checked in line order."""
        row = _canonical_row(raw, n, self)
        if row is None:
            obj = _parse_object(raw, n)
            _expect_keys(obj, _ROUND_FIELDS, ("ext",), n)
            rnd = _field_int(obj, "round", n, minimum=1)
            if rnd != n - 1:
                raise TranscriptError(f"round {rnd} out of sequence", line=n)
            element = _field_int(obj, "element", n, minimum=1)
            below, above = (_id_list(obj, key, n, rnd) for key in ("below", "above"))
            color = _field_int(obj, "color", n, minimum=1)
            level = _field_int(obj, "level", n, minimum=1)
            stage = _field_int(obj, "stage", n)
            if stage not in (1, 2):
                raise TranscriptError(f"stage must be 1 or 2, got {stage}", line=n)
            ext: tuple[int | None, ...] | None = None
            if self.d is not None:
                if "ext" not in obj:
                    raise TranscriptError("visible-order rounds need an ext record", line=n)
                ext = _parse_ext(obj["ext"], self.d, n)
            elif "ext" in obj:
                raise TranscriptError("ext belongs only to visible-order games", line=n)
            row = TranscriptRound(rnd, element, below, above, color, level, stage, ext)
        self.ids[str(n - 1)] = n - 1
        return row


_BOTTOM_TEXT = '"BOTTOM"'


def _round_line(r: TranscriptRound, below: str, above: str, texts: list[str]) -> str:
    """Row ``r`` as ``_round_json`` writes it, for the rows ``_RowWriter``
    hands it with the text of its ``below`` and ``above`` lists; its anchors
    read their ids' text as ``texts[a]``."""
    ext = ""
    if r.ext is not None:
        ext = ",".join(f"[{j},{_BOTTOM_TEXT if a is None else texts[a]}]"
                       for j, a in enumerate(r.ext))
        ext = f'"ext":[{ext}],'
    return (f'{{"round":{r.round},"element":{r.element},'
            f'"below":[{below}],"above":[{above}],'
            f'{ext}"color":{r.color},"level":{r.level},"stage":{r.stage}}}')


def _list_text(mask: int, last: dict[int, str], texts: list[str]) -> str:
    """The text of ``mask``'s id list, id x written as ``texts[x]``.  A mask
    in ``last`` (the previous row's two masks and their texts) takes its
    text; one whose top id leaves a nonzero mask there takes that text, a
    comma and the top id's text; one id alone takes that id's text.  Any
    other is rendered id by id."""
    text = last.get(mask)
    if text is not None:
        return text
    if mask:
        top = mask.bit_length() - 1
        rest = mask ^ 1 << top
        if not rest:
            return texts[top]
        text = last.get(rest)
        if text is not None:
            return f"{text},{texts[top]}"
    return ",".join(compress(texts, _digits(mask)))


def _round_json(r: TranscriptRound) -> str:
    """Row ``r`` through ``json.dumps``: the text every round line must equal."""
    obj: dict = {"round": r.round, "element": r.element,
                 "below": list(r.below), "above": list(r.above)}
    if r.ext is not None:
        obj["ext"] = [[j, "BOTTOM" if a is None else a] for j, a in enumerate(r.ext)]
    obj.update(color=r.color, level=r.level, stage=r.stage)
    return json.dumps(obj, separators=(",", ":"))


def _parse_object(raw: str, line: int) -> dict:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise TranscriptError(f"not valid JSON ({exc.msg})", line=line) from exc
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise TranscriptError("an integer has too many digits to read", line=line) from exc
    except RecursionError as exc:
        raise TranscriptError("not valid JSON (nested too deeply)", line=line) from exc
    if not isinstance(obj, dict):
        raise TranscriptError("each line must be a JSON object", line=line)
    return obj


def _expect_keys(obj: dict, required: Sequence[str], optional: Sequence[str], line: int) -> None:
    """Names the line's first unexpected field, else the first of ``required`` missing."""
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


def _id_list(obj: dict, key: str, line: int, size: int) -> int | tuple[int, ...]:
    """A sorted, duplicate-free list of ids as its mask (bit x for id x); one
    naming an id of ``size``, its row's round, or more stays a tuple."""
    v = obj[key]
    if (not isinstance(v, list) or not set(map(type, v)) <= {int}
            or (ordered := sorted(v)) and ordered[0] < 1):
        raise TranscriptError(f"field {key!r} must be a list of ids", line=line)
    if v == ordered:
        if not v or v[-1] < size:
            mask = poset._digits_mask(v, v[-1] + 1 if v else 1)
            if mask.bit_count() == len(v):
                return mask
        elif len(set(v)) == len(v):
            return tuple(v)
    raise TranscriptError(f"field {key!r} must be sorted and duplicate-free", line=line)


def _kept_mask(body: str, last: tuple[tuple[str, int], ...], ids: dict[str, int]) -> int | None:
    """The mask of list body ``body`` if ``_canonical_row`` may take it
    undecoded, else None.  A body equal to one in ``last`` (the last
    canonical row's bodies and masks) takes its mask; so does one of those
    with a nonzero mask, followed by a comma and the text in ``ids`` of an
    id above its top, with that id's bit added, and one id's text alone."""
    for prev, mask in last:
        if body == prev:
            return mask
        if mask and body.startswith(prev) and body.startswith(",", len(prev)):
            x = ids.get(body[len(prev) + 1:])
            if x is not None and not mask >> x:
                return mask | 1 << x
    x = ids.get(body)
    return None if x is None else 1 << x


# A round line as ``_round_line`` writes it but for its list bodies: ints of up to 16
# ASCII digits, as ``int`` reads the other decimal digits that ``\d`` matches.
_ROW_HEAD = re.compile(r'\{"round":([1-9][0-9]{0,15}),"element":([1-9][0-9]{0,15}),"below":\[')
_ROW_MIDDLE = '],"above":['
_EXT_RECORD = r'\[[0-9]{1,16},(?:[1-9][0-9]{0,15}|"BOTTOM")\]'
_ROW_TAIL = re.compile(rf'\](?:,"ext":\[({_EXT_RECORD}(?:,{_EXT_RECORD})*)\])?'
                       r',"color":([1-9][0-9]{0,15}),"level":([1-9][0-9]{0,15}),"stage":([12])\}')


def _canonical_row(raw: str, n: int, reader: _RowReader) -> TranscriptRound | None:
    """Line ``n``'s row if the line is as ``_round_line`` writes a valid
    row, else None; its bodies and masks go to ``reader.last``.  Each list
    body runs to the first ``]`` and is taken by ``_kept_mask`` or decoded
    alone by ``_id_list``: one that passes holds only ints, so decoding the
    whole line gives this row."""
    head = _ROW_HEAD.match(raw)
    j = raw.find("]", head.end()) if head else -1
    k = j + len(_ROW_MIDDLE)  # a "]" not found is -1, where the tail cannot start
    tail = _ROW_TAIL.fullmatch(raw, raw.find("]", k)) if raw.startswith(_ROW_MIDDLE, j) else None
    d = reader.d
    if tail is None or int(head[1]) != n - 1 or (tail[1] is None) != (d is None):
        return None
    bodies = raw[head.end():j], raw[k:tail.start()]
    masks = []
    for key, body in zip(("below", "above"), bodies):
        mask = _kept_mask(body, reader.last, reader.ids)
        if mask is None:
            try:
                mask = _id_list({key: json.loads("[" + body + "]")}, key, n, n - 1)
            except (ValueError, RecursionError, TranscriptError):
                return None
        masks.append(mask)
    records, color, level, stage = tail.groups()
    pairs = [record.split(",") for record in records[1:-1].split("],[")] if records else ()
    if d is not None and (len(pairs) != d or any(x != str(i) for i, (x, _) in enumerate(pairs))):
        return None
    ext = None if d is None else tuple(None if a == _BOTTOM_TEXT else int(a) for _, a in pairs)
    reader.last = tuple(zip(bodies, masks)) if type(masks[0]) is type(masks[1]) is int else ()
    return TranscriptRound(n - 1, int(head[2]), *masks, int(color), int(level), int(stage), ext)


def _parse_ext(raw, d: int, line: int) -> tuple[int | None, ...]:
    if not isinstance(raw, list) or len(raw) != d:
        raise TranscriptError(f"ext must list {d} insertion records", line=line)
    anchors: dict[int, int | None] = {}  # order index -> anchor, None for BOTTOM
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise TranscriptError("each ext record is a [index, anchor] pair", line=line)
        idx, anchor = item
        if type(idx) is not int or not 0 <= idx < d or idx in anchors:
            raise TranscriptError(f"ext record has a bad order index {idx!r}", line=line)
        if anchor != "BOTTOM" and (type(anchor) is not int or anchor < 1):
            raise TranscriptError(f"ext anchor must be an id or \"BOTTOM\", got {anchor!r}", line=line)
        anchors[idx] = None if anchor == "BOTTOM" else anchor
    return tuple(map(anchors.__getitem__, range(d)))


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
    presented poset included, but the szemeredi chain-index check, which
    only :func:`verify_transcript` runs.  The visible orders are checked to
    realize the poset once, at the end: insertion-only growth carries a
    wrong round there.  The partition handed to the partitioner is rechecked whole.
    A row keeps the move's masks.
    """
    part = ChainPartition()
    rounds: list[TranscriptRound] = []
    live: list[str] = []
    watch = _ExtensionWatch(strategy)
    rnd = 0
    while not strategy.done():
        rnd += 1
        move = strategy.next_move()
        view = PartitionerView(strategy.poset, part, move.element, strategy.realizer_snapshot)
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
        rounds.append(TranscriptRound(rnd, move.element, move.below, move.above,
                                      color, move.level, move.stage, move.ext))
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

    Each round every order must be one longer, never reordered, and hold
    the new element at the index its insertion took, right above the anchor
    its ``ext`` records (at the bottom for None): by the argument in
    ``LinearOrder``, the old order grown by just that insertion.  The first
    break, a round without an insertion record included, is reported and
    ends the watch.  Only orders the partitioner sees (``strategy.d`` set)
    are watched: hidden hosts are spliced in place and carry no ``ext``.
    """

    def __init__(self, strategy: Strategy):
        self.orders = tuple(strategy.orders)
        self.sizes = None if strategy.d is None else [len(o) for o in self.orders]
        self.reorders = [o._reorders for o in self.orders]

    def check(self, rnd: int, e: int, ext: tuple[int | None, ...] | None,
              out: list[str]) -> None:
        if self.sizes is None:
            return
        try:
            fault = self._grow(e, ext)
        except (IndexError, TypeError):  # more anchors than orders, or no sequence of them
            fault = f"malformed insertion record {ext!r}"
        if fault is not None:
            out.append(f"round {rnd}: {fault}; insertion-only growth broken")
            self.sizes = None

    def _grow(self, e: int, ext: tuple[int | None, ...] | None) -> str | None:
        """Check each order's growth by e above its recorded anchor; the fault, if any."""
        if ext is None:
            return "no insertion record for the visible orders"
        for j, anchor in enumerate(anchors := list(ext)):
            try:  # an IndexError, more anchors than orders, is malformed
                known = anchor in self.orders[j]
            except TypeError:  # unhashable: searched as list.index would
                known = anchor in self.orders[j].sequence
            if anchor is not None and (anchor == e or not known):
                return f"order {j} grew above unknown element {anchor}"
        for j, order in enumerate(self.orders):
            seq, at = order.sequence, order._at
            self.sizes[j] += 1
            if (len(seq) != self.sizes[j] or order._reorders != self.reorders[j] or j >= len(anchors)
                    or seq[at] != e or (seq[at - 1] != anchors[j] if at else anchors[j] is not None)):
                return f"recorded insertions rebuild a different order {j}"
        return None


# ---------------------------------------------------------------------------
# verification engine (shared by live games and transcript replay)


def build_report(strategy: Strategy, part: ChainPartition,
                 extra_violations: Iterable[str] = ()) -> GameReport:
    """Check a finished game's certificates, realizer and width; the chain
    partition is the caller's to check (a replay does it round by round).

    When the extracted realizer holds exactly two orders and its check
    passes, the width is the longest run that rises in one order and falls
    in the other (patience sorting, O(n log n)); otherwise it is a
    matching's, seeded from one of d >= 3 orders that pass (``_realizer_width``).
    """
    violations = list(extra_violations)
    p = strategy.poset
    colors = part.distinct_colors()
    bound = strategy.bound()
    bound_met = colors >= bound

    # Checked first: when it holds, it gives the poset its full rows.
    try:
        realized = verify_realizer(strategy.extract_realizer(), p)
    except RelationError:  # the orders, or the orders and the poset, hold other element sets
        realized = False
    levels: list[LevelReport] | None = None
    if isinstance(strategy, SzemerediStrategy):
        rb = strategy.rainbow()
        if sorted(rb.chains) != list(range(1, strategy.w + 1)):
            violations.append("certificate chains do not cover sizes 1..w")
        violations += rb.verify(p, part)
        # The chain the hosts are tuned to must come first in the scan host,
        # before every other point of the game.
        pinned = rb.chains.get(strategy.k, [])
        if strategy.orders[0].sequence[: len(pinned)] != pinned:
            violations.append(
                f"tuned chain {strategy.k} is not lowest in the scan host")
    else:
        levels = strategy.level_reports()
        violations += _check_levels(strategy, part, levels)
    if not realized:
        violations.append("extracted realizer does not realize the presented poset")

    width = _realizer_width(p, strategy.orders, realized)
    if width != strategy.w:
        violations.append(f"presented poset has width {width}, the game promises {strategy.w}")

    return GameReport(strategy=strategy.name, w=strategy.w, d=strategy.d, partitioner="",
                      seed=None, points=len(p), colors=colors, width=width, bound=bound,
                      bound_met=bound_met, violations=violations, levels=levels)


def _check_levels(strategy: Strategy, part: ChainPartition,
                  reports: list[LevelReport]) -> list[str]:
    """Each level's certificates, separator and keeper orders, read from
    ``p``'s rows, taken once (the mirror's from a view of the mirrored block
    whose below rows are ``p``'s above rows); only a fault found by a mask
    test is walked.  Hidden hosts are read per chain index, not rebuilt."""
    v: list[str] = []
    p = strategy.poset
    below, above = p._rows()
    # deeper[-1 - i]: the points of the levels after level i
    deeper = [*accumulate((_mask(r.s1_points + r.s2_points) for r in reports[:0:-1]), or_, initial=0)]
    sep_colors: list[set[int]] = []
    for rep, deep in zip(reports, reversed(deeper)):
        tag = f"level {rep.width}"
        if sorted(rep.chains) != list(range(1, rep.width + 1)):
            v.append(f"{tag}: forcing chains do not cover sizes 1..{rep.width}")
        if sorted(rep.dual_chains) != list(range(1, rep.width + 1)):
            v.append(f"{tag}: mirrored chains do not cover sizes 1..{rep.width}")
        rb = RainbowChains(rep.chains, frozenset(rep.s1_points))
        v += [f"{tag}: {s}" for s in rb.verify(p, part)]
        mirror = RainbowChains(rep.dual_chains, frozenset(rep.s2_points))
        dual_p = p._of_rows(sorted(filter(p.__contains__, set(rep.s2_points))), above, below)
        v += [f"{tag} mirror: {s}" for s in mirror.verify(dual_p, part)]
        if reduce(and_, map(above.__getitem__, rep.s2_points), s1 := _mask(rep.s1_points)) != s1:
            v.append(f"{tag}: mirrored block is not completely below the forcing block")

        sep = rep.separator
        reach = [below[x] | above[x] | 1 << x for x in sep]  # what each point is comparable to
        if reduce(and_, reach, m := _mask(sep)) != m:
            v += [f"{tag}: separator is not a chain: ({x}, {y})" for x, y in p.incomparable_pairs(sep)]
        n = part.distinct_colors(sep)
        if n != rep.separator_colors:
            v.append(f"{tag}: separator color count recorded as {rep.separator_colors}, recomputed {n}")
        threshold, strict = separator_threshold(rep.width, strategy.d)
        if not (n > threshold if strict else n >= threshold):
            v.append(f"{tag}: separator carries {n} colors, threshold {threshold:g}")
        sep_colors.append({part.color_of[x] for x in sep})
        if reduce(or_, reach, 0) & deep:
            v.append(f"{tag}: separator is comparable to a deeper point")
        hosts = []
        if rep.hosts is not None:
            # Each chain index's hidden host pair presents the level's rows.
            # One whose cross pairs agree presents the main pair's poset.
            level = p.restrict(rep.s1_points + rep.s2_points)
            rows, ids = (level._below, level._above), level._elements
            hosts = [h.restrict(ids) for h in rep.hosts]
            main = _realized_rows(hosts, len(rows[0]))
            y_main = _first_difference(*main, *rows, ids)
            for k, rows_k in enumerate(_chain_index_rows(*hosts, main, rep.low_blocks), start=1):
                y = y_main if rows_k is None else _first_difference(*rows_k, *rows, ids)
                if y is not None:
                    v.append(f"{tag}: hosts tuned to chain index {k} present other relations at {y}")
        v += _check_order_separation(strategy, rep, tag, hosts)

    for (i, a), (j, b) in combinations(enumerate(sep_colors), 2):
        if a & b:
            v.append(f"levels {reports[i].width} and {reports[j].width} share separator "
                     f"color {min(a & b)}")
    return v


def _check_order_separation(strategy: Strategy, rep: LevelReport, tag: str,
                            hosts: Sequence[LinearOrder]) -> list[str]:
    """Placement checks in the keeper orders (the visible orders, or ``_tuned_hosts`` of
    ``hosts``, a hidden-host level's two restricted to its points, at each chain index): each
    certified chain sits at the bottom of the order tuned to it, and the top mirrored chain at
    the top of every mirror-keeper order.  When ``hosts`` hold one multiset, a tuned stack host
    holds its low points in ``hosts[1]``'s order, and so a mirrored block inside the low block.
    A chain size the report lacks is skipped; the cover checks name it."""
    s1, s2 = set(rep.s1_points), set(rep.s2_points)
    if rep.hosts is not None:
        seq, stack_seq = (h.sequence for h in hosts)
        stack_s2 = [x for x in stack_seq if x in s2] if sorted(seq) == sorted(stack_seq) else None
        forcing, mirror = [], []
        for k, low in enumerate(accumulate(map(set, rep.low_blocks), or_), start=1):
            scan_k, stack_k = _tuned_hosts(seq, stack_seq, low.__contains__)
            forcing.append((k, "its keeper order", scan_k))
            mirror.append((f"keeper order {k}",
                           stack_s2 if stack_s2 is not None and s2 <= low else [*stack_k]))
    else:
        d = strategy.d
        assert d is not None
        j0 = rep.width - d + 2  # chain k keeps visible order k - j0
        forcing = [(k, f"visible order {k - j0}", strategy.orders[k - j0].sequence)
                   for k in range(max(1, j0), rep.width + 1)]
        mirror = [("the last visible order", strategy.orders[d - 1].sequence)]
    v: list[str] = []
    for k, name, order in forcing:
        if k in rep.chains and [*islice(filter(s1.__contains__, order), len(rep.chains[k]))] != rep.chains[k]:
            v.append(f"{tag}: chain {k} is not lowest in {name}")
    top_mirror = rep.dual_chains.get(rep.width)
    for name, order in mirror if top_mirror is not None else ():
        if [*islice(filter(s2.__contains__, reversed(order)), len(top_mirror))][::-1] != top_mirror:
            v.append(f"{tag}: top mirrored chain is not highest in {name}")
    return v


# ---------------------------------------------------------------------------
# transcript replay


def verify_transcript(t: Transcript) -> list[str]:
    """Re-run the whole game from the transcript and report every violation.

    Empty list means the transcript is a faithful record of a passing game.
    A header ``check_strategy`` refuses is one violation.  A game's first
    stage one runs builders of widths w..1, each placing at least as many
    points as its width, so fewer rows than w(w+1)/2 cannot hold a complete
    game; such a transcript is rejected before any replay, whose setup
    would cost O(w) or O(d) whatever the row count.  The replay
    (``_replay``) reads each row once, in order, as it replays its round.

    A szemeredi transcript is replayed once, tuned to chain index w.  Every
    other chain index must present the replayed poset: one whose cross pairs
    agree with the main hosts does, and any other one's rows
    (``_chain_index_rows``) are compared with the poset's, restricted to
    older ids; the first id that differs names the round.
    """
    try:
        check_strategy(t.strategy, t.w, d=t.d)
    except ValueError as exc:
        return [f"header: {exc}"]
    if len(t.rounds) < t.w * (t.w + 1) // 2:
        return ["transcript ends before the game is over"]
    strategy = make_strategy(t.strategy, t.w, d=t.d)
    v, part = _replay(strategy, t)
    if isinstance(strategy, SzemerediStrategy):
        p = strategy.poset
        hosts = [h.restrict(p._elements) for h in strategy.orders]
        rows = _realized_rows(hosts, len(p._below))
        for k, tuned in enumerate(
                _chain_index_rows(*hosts, rows, strategy._bank.blocks(t.w - 1)), start=1):
            e = None if tuned is None else _first_difference(*tuned, p._below, p._above, p._elements)
            if e is not None:
                side = "below" if (tuned[0][e] ^ p._below[e]) & (1 << e) - 1 else "above"
                v.append(f"chain index {k} presents a different game: "
                         f"round {t.rounds[e - 1].round}: relations {side} the new element differ")

    if not strategy.done():
        return v
    report = build_report(strategy, part, extra_violations=v)
    out = list(report.violations)
    if not report.bound_met:
        out.append(f"forced-color bound not met: {report.colors} colors < {report.bound:g}")
    return out


def _row_mask(ids, e: int) -> int | None:
    """A row's below or above set as a mask (bit x for id x), read for the
    element ``e`` a replay presents in the row's round, which is the round's
    place in the transcript.  A kept mask is read as it is.  A set no such
    element can have -- not a tuple or list, not all ints, as in ``_id_list``,
    not sorted and distinct, or outside 1..e-1 -- gets None."""
    if type(ids) is int:
        return None if ids >> e else ids
    valid = isinstance(ids, (tuple, list)) and set(map(type, ids)) <= {int} and (
        not ids or ids[0] >= 1 and ids[-1] < e and list(ids) == sorted(set(ids)))
    return _digits_mask(ids, e) if valid else None


def _replay(strategy: Strategy, t: Transcript) -> tuple[list[str], ChainPartition]:
    """Feed the recorded colors to ``strategy`` and compare every move with
    its row.  Each row is read once, in order, in the round that replays it:
    its relation sets (``_row_mask``) are compared with the new element's
    rows in the strategy's poset, right after its insertion.  The relations
    of a row after the game is over, or after the colors derail the
    strategy, are never read."""
    v: list[str] = []
    part = ChainPartition()
    watch = _ExtensionWatch(strategy)
    below, above = strategy.poset._below, strategy.poset._above
    for place, row in enumerate(t.rounds, start=1):
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
        if below[e] != _row_mask(row.__dict__["below"], place):
            v.append(f"round {row.round}: relations below the new element differ")
        if above[e] != _row_mask(row.__dict__["above"], place):
            v.append(f"round {row.round}: relations above the new element differ")
        if move.level != row.level:
            v.append(f"round {row.round}: level annotation {row.level}, re-run says {move.level}")
        if move.stage != row.stage:
            v.append(f"round {row.round}: stage annotation {row.stage}, re-run says {move.stage}")
        if row.ext is not None and t.d is None:
            v.append(f"round {row.round}: ext belongs only to visible-order games")
        if type(row.color) is not int or row.color < 1:
            v.append(f"round {row.round}: color {row.color!r} is not a positive integer")
            break
        ok, pair = part.legal(strategy.poset, move.element, row.color)
        part.assign(move.element, row.color)
        if not ok:
            assert pair is not None
            v.append(
                f"round {row.round}: color {row.color} is not a chain: "
                f"({pair[0]}, {pair[1]}) incomparable"
            )
        try:
            strategy.observe(row.color)
        except StrategyInvariantError as exc:
            v.append(f"round {row.round}: recorded colors derail the strategy: {exc}")
            break
        watch.check(row.round, move.element, row.ext, v)
    if not strategy.done():
        v.append("transcript ends before the game is over")
    return v, part


def _chain_index_rows(scan: LinearOrder, stack: LinearOrder, rows: tuple[list[int], list[int]],
                      blocks: Iterable[Iterable[int]]) -> Iterator[tuple[list[int], list[int]] | None]:
    """For the low block grown by each of ``blocks`` in turn: None if the
    hosts tuned to it (``_tuned_hosts``) present the poset of ``scan`` and
    ``stack``, whose rows are ``rows``, else their rows, as long as ``rows``.
    On one element set, only cross pairs, one point low and one in the rest,
    can differ: a low x comes first in the tuned scan host, so it lies below
    no rest point, and below a rest y iff y follows x's slot (its place in
    the tuned stack host) in ``scan``.  Only a failing block's hosts are built."""
    seq, stack_seq = scan.sequence, stack.sequence
    members = set(seq)
    one_set = len(members) == len(seq) and sorted(seq) == sorted(stack_seq)
    below, above = rows
    after, full = [0] * len(seq), 0  # after[i]: the mask of seq[i + 1:]
    for i in range(len(seq) - 1, -1, -1):
        after[i], full = full, full | 1 << seq[i]
    low, low_mask, low_below = set(), 0, 0  # the low block, its mask, every id below it
    for block in blocks:
        new = set(block) - low
        low |= new
        for x in members & new:
            low_mask |= 1 << x
            low_below |= below[x]
        rest, is_low = full & ~low_mask, low.__contains__
        same = (one_set and not low_below & rest
                and not any((above[x] ^ after[i]) & rest
                            for x, i in zip(filter(is_low, stack_seq), compress(count(), map(is_low, seq)))))
        yield None if same else _realized_rows([*map(LinearOrder, _tuned_hosts(seq, stack_seq, is_low))],
                                               len(below))


# ---------------------------------------------------------------------------
# sweeps


def sweep(configs: Iterable[dict], violation_dir: str | Path = ".") -> list[dict]:
    """Run one game per config and return table rows, verifying everything.

    A config is a dict with keys strategy, partitioner, w, and optionally
    d, seed.  Any verification failure persists the offending transcript
    and aborts, naming the path when the transcript cannot be written.
    """
    rows = []
    for cfg in configs:
        name, w, pname = cfg["strategy"], cfg["w"], cfg["partitioner"]
        d, seed = cfg.get("d"), cfg.get("seed")
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
            detail = report.violations[0] if report.violations else "forced-color bound not met"
            failed = f"game {stem} failed verification ({detail})"
            try:
                path.write_text(transcript.serialize())
            except OSError as exc:
                raise OlcpError(f"{failed}; cannot write its transcript to {path}: {exc.strerror}") from exc
            raise OlcpError(f"{failed}; transcript persisted to {path}")
        rows.append(dict(strategy=name, partitioner=pname, w=w, d=d, seed=seed,
                         points=report.points, colors=report.colors, bound=report.bound,
                         bound_met=report.bound_met, runtime=elapsed))
    return rows
