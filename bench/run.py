"""Run one olcp benchmark workload and print its metrics.

    python3 bench/run.py --workload play-staged --seed 0 --seconds 15 --trace 0

Run from anywhere inside a checkout: the library is imported from the
checkout's own ``src/``, never from an installed copy.  Each metric is
printed on its own line with its unit; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones (and writes the spans to ``.bench_build/``).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def _import_library() -> float:
    """Import olcp from this checkout; seconds spent since process start."""
    sys.path.insert(0, str(SRC))
    try:
        import olcp
    except ImportError as exc:
        sys.exit(f"bench: cannot import olcp from {SRC}: {exc}")
    if SRC not in Path(olcp.__file__).resolve().parents:
        sys.exit(f"bench: olcp was imported from {olcp.__file__}, not from {SRC}")
    return time.perf_counter() - _T0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    import_s = _import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           import_s, build_dir=ROOT / ".bench_build")
    for line in result.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for line in result.notes:
        print(line)
    for name, (value, unit) in result.metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} failed_share {result.failed / result.attempted:.6g} "
          f"({result.failed}/{result.attempted} games)")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
