"""Record points, colors and transcript SHA-256 of every default-seed game.

    python3 bench/record_digests.py

Writes ``bench/digests.json``, which the benchmark checks every default-seed
game against.  Transcripts are meant to stay byte-identical across
versions, so rerun this only when a change of transcripts is intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402
from olcp import arena  # noqa: E402


def main() -> None:
    record = {}
    for _, grid in workloads.WORKLOADS.values():
        for game in grid(workloads.DEFAULT_SEED):
            strategy, partitioner = game.setup()
            transcript, report = arena.run_game(strategy, partitioner, seed=game.seed)
            if not report.ok:
                sys.exit(f"{game.key}: report not ok: {report.violations[:3]}")
            record[game.key] = {"points": report.points, "colors": report.colors,
                                "sha256": workloads.sha256(transcript.serialize())}
            print(game.key, record[game.key])
    workloads.DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
