"""Smoke test of the benchmark on tiny grids.

    python3 -m pytest bench/test_smoke.py

Every workload, untraced and traced, must emit exactly the metrics
BENCHMARK.json declares, each with its declared unit, and a checkout
without the library must give no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from olcp import arena  # noqa: E402
from workloads import Game  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "play-staged": lambda s: [Game("theorem1", 2), Game("theorem2", 2, 3, "random", s)],
    "play-rainbow": lambda s: [Game("szemeredi", 3, None, "random", s)],
    "verify-replay": lambda s: [Game("szemeredi", 3), Game("theorem2", 2, 2, "random", s)],
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = workloads.run(workload, seed=5, seconds=0, trace=trace, import_s=0.0,
                           grid=TINY[workload])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: unit for name, (_, unit) in result.metrics.items()} == {
        m["name"]: m["unit"] for m in declared}
    assert result.attempted >= 1 and result.failed == 0, result.failures
    assert not hasattr(arena.run_game, "__wrapped__"), "tracer left a wrapper installed"


def test_no_result_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
