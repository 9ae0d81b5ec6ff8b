"""Transcripts stay byte-identical across versions.

Seven seed-0 games of the benchmark grid, one per strategy shape plus the
random partitioner on ``szemeredi`` and ``theorem1``, are played again and
compared with the points, colors and transcript SHA-256 recorded in
``bench/digests.json`` (read only; ``bench/record_digests.py`` writes it).
The random games pin the ascending order of the legal colors, which
``RandomValid`` draws from, over hundreds of colors.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from olcp import make_partitioner, make_strategy, run_game

DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text())


GAMES = {
    "szemeredi-w24-first-fit": ("szemeredi", 24, None, "first-fit", None),
    "szemeredi-w36-random-s0": ("szemeredi", 36, None, "random", 0),
    "theorem1-w10-first-fit": ("theorem1", 10, None, "first-fit", None),
    "theorem1-w10-random-s0": ("theorem1", 10, None, "random", 0),
    "theorem2-w10-d2-random-s0": ("theorem2", 10, 2, "random", 0),
    "theorem2-w10-d3-first-fit": ("theorem2", 10, 3, "first-fit", None),
    "theorem2-w10-d4-first-fit": ("theorem2", 10, 4, "first-fit", None),
}


@pytest.mark.parametrize("key", GAMES)
def test_recorded_game_is_replayed_byte_for_byte(key):
    name, w, d, partitioner, seed = GAMES[key]
    transcript, report = run_game(make_strategy(name, w, d=d),
                                  make_partitioner(partitioner, seed=seed), seed=seed)
    assert report.ok, report.violations[:3]
    got = {"points": report.points, "colors": report.colors,
           "sha256": hashlib.sha256(transcript.serialize().encode()).hexdigest()}
    assert got == DIGESTS[key]
