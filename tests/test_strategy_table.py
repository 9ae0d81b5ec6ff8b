"""Every entry point takes the same (strategy, w, d, k) combinations.

``make_strategy``, ``sweep``, ``Transcript.parse`` and
``olcp play`` all defer to the strategy table's one validator, so each
combination is accepted by all of them or rejected by all of them.
"""

from __future__ import annotations

import json

import pytest

from olcp import Transcript, TranscriptError, make_strategy, sweep
from olcp.cli import main

COMBOS = [
    # name, w, d, k, accepted
    ("szemeredi", 2, None, None, True),
    ("szemeredi", 3, None, 2, True),
    ("szemeredi", 2, None, 3, False),
    ("szemeredi", 2, 3, None, False),
    ("theorem1", 2, None, None, True),
    ("theorem1", 2, 3, None, False),
    ("theorem1", 2, None, 1, False),
    ("theorem2", 2, 2, None, True),
    ("theorem2", 2, None, None, False),
    ("theorem2", 2, 1, None, False),
    ("theorem2", 2, 2, 1, False),
    ("szemeredi", 0, None, None, False),
    ("theorem2", 0, 2, None, False),
    ("minimax", 2, None, None, False),
]


def _accepts(call, *errors) -> bool:
    try:
        call()
    except errors:
        return False
    return True


@pytest.mark.parametrize("name, w, d, k, accepted", COMBOS)
def test_every_entry_point_agrees(name, w, d, k, accepted, tmp_path, capsys):
    verdicts = {
        "make_strategy": _accepts(lambda: make_strategy(name, w, k=k, d=d), ValueError),
        "sweep": _accepts(lambda: sweep([{"strategy": name, "partitioner": "first-fit",
                                          "w": w, "d": d, "k": k}], violation_dir=tmp_path),
                          ValueError),
    }
    argv = ["play", "--strategy", name, "--width", str(w), "--partitioner", "first-fit"]
    if d is not None:
        argv += ["--dim", str(d)]
    if k is not None:
        argv += ["--k", str(k)]
    code = main(argv)
    capsys.readouterr()
    assert code in (0, 2)
    verdicts["olcp play"] = code == 0
    if k is None:  # a transcript header does not name k
        header = {"version": 1, "strategy": name, "w": w, "d": d,
                  "partitioner": "first-fit", "seed": None}
        verdicts["Transcript.parse"] = _accepts(
            lambda: Transcript.parse(json.dumps(header) + "\n"), TranscriptError)
    assert verdicts == dict.fromkeys(verdicts, accepted)


@pytest.mark.parametrize("name, w, d, k, message", [
    ("szemeredi", True, None, None, "w must be an integer"),
    ("theorem1", 2.0, None, None, "w must be an integer"),
    ("theorem2", "2", 2, None, "w must be an integer"),
    ("szemeredi", 3, None, True, "k must be an integer"),
    ("szemeredi", 3, None, 2.0, "k must be an integer"),
])
def test_a_width_or_chain_index_that_is_not_an_int_is_refused(name, w, d, k, message):
    """A bool or a float would play a game whose header no parse accepts, or
    fail mid-game; the validator refuses it, naming the parameter first."""
    with pytest.raises(ValueError) as err:
        make_strategy(name, w, k=k, d=d)
    assert str(err.value) == message
