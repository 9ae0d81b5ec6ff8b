"""Command-line front end: play games, verify transcripts, build tables.

Exit codes: 0 success, 1 any invariant violation or bound failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .adversaries import STRATEGY_NAMES, check_strategy, make_strategy
from .arena import Transcript, run_game, sweep, verify_transcript
from .errors import OlcpError, TranscriptError
from .partitioners import PARTITIONER_NAMES, make_partitioner


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="olcp",
        description="On-line chain partitioning games: adversaries vs partitioners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    play = sub.add_parser("play", help="run one game and report the outcome")
    play.add_argument("--strategy", required=True, choices=STRATEGY_NAMES)
    play.add_argument("--width", required=True, type=int, metavar="W")
    play.add_argument("--dim", type=int, help="number of visible orders (theorem2 only)")
    play.add_argument("--k", type=int, help="hidden chain index (szemeredi only, default W)")
    play.add_argument("--partitioner", required=True, choices=PARTITIONER_NAMES)
    play.add_argument("--seed", type=int, help="seed for the random partitioner")
    play.add_argument("--out", metavar="FILE", help="write the transcript here")

    verify = sub.add_parser("verify", help="replay a transcript and list violations")
    verify.add_argument("--in", dest="infile", required=True, metavar="FILE")

    table = sub.add_parser("table", help="sweep a parameter grid into a CSV table")
    table.add_argument("--strategies", nargs="+", required=True,
                       help="strategy names, space- or comma-separated")
    table.add_argument("--width-max", dest="width_max", required=True, type=int)
    table.add_argument("--dims", default="2,3,4", help="comma-separated dimensions for theorem2")
    table.add_argument("--seeds", type=int, default=0,
                       help="random-partitioner seeds 0..N-1 to add beside first-fit")
    table.add_argument("--out", required=True, metavar="FILE")
    return parser


# Strategy parameter -> the flag that sets it, per command.
_PLAY_FLAGS = {"w": "--width", "d": "--dim", "k": "--k"}
_TABLE_FLAGS = {"w": "--width-max", "d": "--dims"}


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parameter_error(exc: ValueError, flags: dict[str, str]) -> int:
    """A ``check_strategy`` message, with its parameter named by its flag."""
    param, _, rest = str(exc).partition(" ")  # messages open with the parameter
    return _usage_error(f"{flags.get(param, param)} {rest}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2

    if args.command == "play":
        return _cmd_play(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_table(args)


def _cmd_play(args: argparse.Namespace) -> int:
    try:
        strategy = make_strategy(args.strategy, args.width, k=args.k, d=args.dim)
    except ValueError as exc:
        return _parameter_error(exc, _PLAY_FLAGS)
    partitioner = make_partitioner(args.partitioner, seed=args.seed)
    try:
        transcript, report = run_game(strategy, partitioner, seed=args.seed)
    except OlcpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.summary())
    for violation in report.violations:
        print(f"violation: {violation}")
    if args.out:
        try:
            Path(args.out).write_text(transcript.serialize())
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 1
    return 0 if report.ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        data = Path(args.infile).read_bytes()
    except OSError as exc:
        print(f"error: cannot read {args.infile}: {exc.strerror}", file=sys.stderr)
        return 2
    try:
        transcript = Transcript.parse(data.decode())
        violations = verify_transcript(transcript)
    except (TranscriptError, OlcpError) as exc:
        print(f"error: {args.infile}: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        print(f"error: {args.infile}: line {line}: not UTF-8 text ({exc.reason})", file=sys.stderr)
        return 1
    for violation in violations:
        print(violation)
    print(f"{len(violations)} violations")
    return 0 if not violations else 1


def _cmd_table(args: argparse.Namespace) -> int:
    if args.seeds < 0:
        return _usage_error("--seeds must be non-negative")
    names = [n for item in args.strategies for n in item.split(",") if n]
    if not names:
        return _usage_error("--strategies must name at least one strategy")
    try:
        dims = [int(part) for part in args.dims.split(",") if part.strip()]
    except ValueError:
        return _usage_error(f"--dims must be comma-separated integers, got {args.dims!r}")
    if not dims and "theorem2" in names:
        return _usage_error("--dims must name at least one dimension for theorem2")
    dims_of = {name: dims if name == "theorem2" else [None] for name in names}
    for name in names:
        for d in dims_of[name]:
            try:
                check_strategy(name, args.width_max, d=d)
            except ValueError as exc:
                return _parameter_error(exc, _TABLE_FLAGS)

    players: list[tuple[str, int | None]] = [("first-fit", None)]
    players += [("random", s) for s in range(args.seeds)]
    configs = [{"strategy": name, "partitioner": pname, "w": w, "d": d, "seed": seed}
               for name in names for w in range(1, args.width_max + 1)
               for d in dims_of[name] for pname, seed in players]
    out_path = Path(args.out)
    try:
        rows = sweep(configs, violation_dir=out_path.parent if str(out_path.parent) else ".")
    except OlcpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        with out_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["strategy", "partitioner", "w", "d", "seed",
                             "points", "colors", "bound", "bound_met", "runtime"])
            for row in rows:
                writer.writerow([
                    row["strategy"], row["partitioner"], row["w"],
                    "" if row["d"] is None else row["d"], "" if row["seed"] is None else row["seed"],
                    row["points"], row["colors"], f"{row['bound']:g}",
                    "true" if row["bound_met"] else "false", f"{row['runtime']:.3f}"])
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 1
    print(f"{len(rows)} games, table written to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
