"""Workload grids, timed passes and output checks for the olcp benchmark.

A workload is a fixed grid of games derived from the workload seed ``s``:
the random partitioner plays with seeds ``s, s+1, s+2`` and the library
receives only the generated games.  Play workloads time ``run_game`` plus
``Transcript.serialize`` (what ``olcp play --out`` does); the replay
workload plays its transcripts during set-up and times ``Transcript.parse``
plus ``verify_transcript`` (what ``olcp verify`` does).

Every game is checked after the timed passes.  A game fails when it
raises, when its report is not ok, when its serialize -> parse -> verify
round trip finds violations, when a later pass gives a different
transcript than the first, or, on the default seed, when its points,
colors or transcript SHA-256 differ from ``digests.json``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from olcp import adversaries, arena, partitioners

from speed import Clock
from tracing import Tracer

DEFAULT_SEED = 0
DIGESTS = Path(__file__).with_name("digests.json")
SETUP_REPEATS = 3    # replay set-ups per run; setup_s is their median
MIN_PLAY_PASSES = 2  # two passes in one process must agree byte for byte


@dataclass(frozen=True)
class Game:
    """One game of a grid: adversary strategy against a partitioner."""

    strategy: str
    w: int
    d: int | None = None
    partitioner: str = "first-fit"
    seed: int | None = None

    @property
    def key(self) -> str:
        parts = [self.strategy, f"w{self.w}"]
        if self.d is not None:
            parts.append(f"d{self.d}")
        parts.append(self.partitioner)
        if self.seed is not None:
            parts.append(f"s{self.seed}")
        return "-".join(parts)

    def setup(self):
        """Fresh strategy and partitioner objects: the inputs of one game."""
        return (adversaries.make_strategy(self.strategy, self.w, d=self.d),
                partitioners.make_partitioner(self.partitioner, seed=self.seed))


def _opponents(seed: int, randoms: int) -> list[tuple[str, int | None]]:
    return [("first-fit", None)] + [("random", seed + i) for i in range(randoms)]


def staged_grid(seed: int) -> list[Game]:
    return [Game(name, 10, d, p, s)
            for name, d in (("theorem1", None), ("theorem2", 2), ("theorem2", 4))
            for p, s in _opponents(seed, 3)]


def rainbow_grid(seed: int) -> list[Game]:
    return [Game("szemeredi", 36, None, p, s) for p, s in _opponents(seed, 2)]


def replay_grid(seed: int) -> list[Game]:
    return [Game("szemeredi", 24), Game("szemeredi", 32),
            Game("theorem2", 10, 3), Game("theorem2", 10, 3, "random", seed)]


#: workload name -> (kind, grid)
WORKLOADS: dict[str, tuple[str, Callable[[int], list[Game]]]] = {
    "play-staged": ("play", staged_grid),
    "play-rainbow": ("play", rainbow_grid),
    "verify-replay": ("verify", replay_grid),
}


# ---------------------------------------------------------------------------
# outcomes and checks


@dataclass
class Outcome:
    """What one attempt at a game produced; ``error`` names why it failed."""

    key: str
    points: int = 0
    colors: int = 0
    digest: str | None = None
    error: str | None = None


@dataclass
class Result:
    attempted: int
    failed: int
    failures: list[str]
    metrics: dict[str, tuple[float, str]]
    notes: list[str] = field(default_factory=list)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def recorded_digests() -> dict[str, dict]:
    return json.loads(DIGESTS.read_text())


def _check_against(outcome: Outcome, first: Outcome | None, seed: int,
                   recorded: dict[str, dict]) -> str | None:
    """Cross-pass and recorded-value checks; the first reason found."""
    if outcome.error is not None:
        return outcome.error
    if first is not None and outcome.digest != first.digest:
        return "transcript differs from the first pass"
    if seed == DEFAULT_SEED:
        want = recorded.get(outcome.key)
        got = {"points": outcome.points, "colors": outcome.colors, "sha256": outcome.digest}
        if want != got:
            return f"differs from the recorded game: {got} != {want}"
    return None


def _round_trip(text: str) -> str | None:
    try:
        violations = arena.verify_transcript(arena.Transcript.parse(text))
    except Exception as exc:  # a failing check is counted, never a crash
        return f"round trip raised {exc!r}"
    return f"round trip found {violations[:3]}" if violations else None


def _round_trips(texts: dict[str, str], build_dir: Path | None) -> dict[str, str | None]:
    """Round-trip verdict per game, reusing verdicts of earlier runs.

    ``verify_transcript`` is deterministic, so a verdict holds as long as
    the transcript, the library source and the interpreter are unchanged.
    Verdicts are kept by transcript digest in a file named after a digest
    of the other two.  First-fit games give the same transcript on every
    seed, so most runs verify only their random games.
    """
    code = hashlib.sha256(sys.version.encode())
    for path in sorted(Path(arena.__file__).parent.glob("*.py")):
        code.update(path.name.encode() + b"\0" + path.read_bytes())
    cache = build_dir / f"round-trips-{code.hexdigest()[:16]}.json" if build_dir else None
    known = json.loads(cache.read_text()) if cache and cache.exists() else {}
    verdicts = {}
    for key, text in texts.items():
        digest = sha256(text)
        if digest not in known:
            known[digest] = _round_trip(text)
        verdicts[key] = known[digest]
    if cache:
        cache.parent.mkdir(parents=True, exist_ok=True)
        partial = cache.with_suffix(".partial")
        partial.write_text(json.dumps(known, indent=0, sort_keys=True))
        partial.replace(cache)
    return verdicts


# ---------------------------------------------------------------------------
# round clocks


class _RoundClock:
    """Delegating partitioner that ticks the clock at every ``choose()`` entry.

    It keeps the inner partitioner's ``name``, so transcripts stay byte
    identical.  The interval after a game's last ``choose()`` carries the
    end-of-game report and is never recorded.
    """

    def __init__(self, inner, clock: Clock):
        self.inner = inner
        self.name = inner.name
        self._clock = clock

    def choose(self, view):
        self._clock.tick()
        return self.inner.choose(view)


@contextmanager
def _next_move_ticks(clock: Clock) -> Iterator[None]:
    """Ticks the clock at ``next_move()`` entries of replayed strategies.

    An interval counts only between two moves of one strategy object, so
    the report and the start of the next replay never count.
    """
    cls = adversaries.Strategy
    original = vars(cls)["next_move"]

    def next_move(strategy):
        clock.tick(strategy)
        return original(strategy)

    cls.next_move = next_move
    try:
        yield
    finally:
        cls.next_move = original


# ---------------------------------------------------------------------------
# passes


@dataclass
class _Pass:
    """One pass over a grid: timed seconds and points, round intervals, outcomes.

    ``seconds`` and ``intervals`` are calibrated (see ``speed.py``);
    ``wall_s`` is the raw timed wall time.
    """

    seconds: float = 0.0
    wall_s: float = 0.0
    points: int = 0
    intervals: list[float] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)


@contextmanager
def _timed_game(run: _Pass, clock: Clock, tracer: Tracer | None) -> Iterator[None]:
    """One timed game: the outermost span, booked into ``run``.

    Each game starts from a collected heap, so neither its time nor the
    peak RSS depends on garbage an earlier game left behind.
    """
    gc.collect()
    mark = tracer.mark() if tracer else None
    clock.start(run.intervals)
    try:
        with tracer.game() if tracer else nullcontext():
            yield
    finally:
        wall_s, seconds = clock.stop()
        run.wall_s += wall_s
        run.seconds += seconds
        if tracer:
            tracer.rescale(mark, seconds / wall_s)


def _play_pass(games: list[Game], texts: dict[str, str], setup: list[float],
               clock: Clock, tracer: Tracer | None) -> _Pass:
    clock.start()
    inputs = [g.setup() for g in games]
    setup.append(clock.stop()[1])
    inputs.reverse()
    run = _Pass()
    for game in games:
        strategy, partitioner = inputs.pop()  # freed once its game ends
        out = Outcome(game.key)
        text = None
        try:
            with _timed_game(run, clock, tracer):
                transcript, report = arena.run_game(
                    strategy, _RoundClock(partitioner, clock), seed=game.seed)
                text = transcript.serialize()
        except Exception as exc:  # a failing game is counted, never a crash
            out.error = f"raised {exc!r}"
        if text is not None:
            out.points, out.colors, out.digest = report.points, report.colors, sha256(text)
            run.points += report.points
            texts.setdefault(game.key, text)
            if not report.ok:
                out.error = f"report not ok: {report.violations[:3]}"
        run.outcomes.append(out)
    return run


def _replay_setup(games: list[Game], texts: dict[str, str], setup: list[float],
                  clock: Clock) -> list[Outcome]:
    """Play and serialize the transcripts the replay workload verifies."""
    gc.collect()
    clock.start()
    outcomes = []
    for game in games:
        out = Outcome(game.key)
        try:
            strategy, partitioner = game.setup()
            transcript, report = arena.run_game(
                strategy, _RoundClock(partitioner, clock), seed=game.seed)
            text = transcript.serialize()
        except Exception as exc:  # a failing game is counted, never a crash
            out.error = f"set-up game raised {exc!r}"
        else:
            out.points, out.colors, out.digest = report.points, report.colors, sha256(text)
            texts.setdefault(game.key, text)
            if not report.ok:
                out.error = f"set-up report not ok: {report.violations[:3]}"
        outcomes.append(out)
    setup.append(clock.stop()[1])
    return outcomes


def _replay_pass(played: list[Outcome], texts: dict[str, str], clock: Clock,
                 tracer: Tracer | None) -> _Pass:
    run = _Pass()
    with _next_move_ticks(clock):
        for game in played:
            out = Outcome(game.key, game.points, game.colors, game.digest, game.error)
            text = texts.get(game.key)
            if text is not None:
                try:
                    with _timed_game(run, clock, tracer):
                        violations = arena.verify_transcript(arena.Transcript.parse(text))
                except Exception as exc:  # a failing game is counted, never a crash
                    violations = [f"verify raised {exc!r}"]
                run.points += game.points
                if violations and out.error is None:
                    out.error = f"verify found {violations[:3]}"
            run.outcomes.append(out)
    return run


# ---------------------------------------------------------------------------
# the workload


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float,
        grid: Callable[[int], list[Game]] | None = None,
        build_dir: Path | None = None) -> Result:
    """Run one workload; with ``trace`` the metrics are per-layer, else end to end.

    Whole passes over the grid repeat until ``seconds`` of timed wall time
    are done; a play workload makes at least two, which must agree byte for
    byte.  Reported times are calibrated seconds (see ``speed.py``).
    """
    kind, default_grid = WORKLOADS[workload]
    games = (grid or default_grid)(seed)
    clock = Clock()
    import_s *= clock.current
    texts: dict[str, str] = {}
    setup: list[float] = []
    played: list[Outcome] = []
    if kind == "verify":
        setups = [_replay_setup(games, texts, setup, clock) for _ in range(SETUP_REPEATS)]
        played = setups[0]
        for again in setups[1:]:
            for first, out in zip(played, again):
                if first.error is None and (out.error or out.digest != first.digest):
                    first.error = out.error or "set-up replay differs from the first set-up"

    def one_pass(tracer: Tracer | None) -> _Pass:
        if kind == "play":
            return _play_pass(games, texts, setup, clock, tracer)
        return _replay_pass(played, texts, clock, tracer)

    minimum = MIN_PLAY_PASSES if kind == "play" else 1
    passes: list[_Pass] = []
    while len(passes) < minimum or sum(p.wall_s for p in passes) < seconds:
        passes.append(one_pass(None))
    traced: list[_Pass] = []
    tracer = Tracer()
    if trace:
        # A probe inside a game would land in the self time of a traced span.
        clock.probe_inside = False
        with tracer.installed():
            traced = [one_pass(tracer) for _ in passes]

    recorded = recorded_digests() if seed == DEFAULT_SEED else {}
    firsts = {o.key: o for o in played or passes[0].outcomes}
    round_trips = {} if kind == "verify" else _round_trips(texts, build_dir)
    attempted = failed = 0
    failures: list[str] = []
    for p in passes + traced:
        for out in p.outcomes:
            attempted += 1
            why = _check_against(out, firsts.get(out.key), seed, recorded) or round_trips.get(out.key)
            if why is not None:
                failed += 1
                failures.append(f"{out.key}: {why}")

    wall_s = sum(p.wall_s for p in passes)
    points = sum(p.points for p in passes)
    notes = [f"{workload} speed {clock.median():.4f} (median reference speed, 1 = calibrated)",
             f"{workload} raw_points_per_s {points / wall_s:.6g} 1/s ({wall_s:.2f} s timed wall)"]
    if trace:
        if build_dir is not None:
            tracer.dump(build_dir / f"spans-{workload}-seed{seed}.jsonl")
        traced_s = sum(p.seconds for p in traced)
        metrics = tracer.metrics(traced_s, sum(p.seconds for p in passes))
        metrics["bench.speed"] = (clock.median(), "ratio")
        return Result(attempted, failed, failures, metrics, notes + layer_table(tracer, traced_s))

    # Two zeros only when every game raised before its second round.
    ms = [x * 1e3 for p in passes for x in p.intervals] or [0.0, 0.0]
    metrics = {
        "setup_s": (import_s + statistics.median(setup), "s"),
        "points_per_s": (points / sum(p.seconds for p in passes), "1/s"),
        "round_ms_p50": (statistics.median(ms), "ms"),
        "round_ms_p99": (statistics.quantiles(ms, n=100)[98], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return Result(attempted, failed, failures, metrics, notes)


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10


def layer_table(tracer: Tracer, wall_s: float) -> list[str]:
    """Boundaries by self time, as shares of traced timed time."""
    rows = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
    lines = [f"{'boundary':34} {'self_s':>9} {'share':>7} {'calls':>9}"]
    for name, self_s in rows:
        lines.append(f"{name:34} {self_s:9.3f} {self_s / wall_s:7.1%} {tracer.calls[name]:9d}")
    return lines
