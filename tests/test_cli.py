"""Command-line surface: flags, exit codes, output contracts."""

from __future__ import annotations

import csv
import io
import sys

import pytest

from olcp import HiddenRealizerStrategy, LinearOrder, Transcript
from olcp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# play


def test_play_reports_the_small_game(capsys):
    code, out, _ = run(
        capsys, "play", "--strategy", "szemeredi", "--width", "2",
        "--partitioner", "first-fit",
    )
    assert code == 0
    assert out.splitlines()[0] == "4 points, 3 colors, bound 3, OK"


def test_play_writes_a_parseable_transcript(tmp_path, capsys):
    out_file = tmp_path / "game.jsonl"
    code, _, _ = run(
        capsys, "play", "--strategy", "theorem1", "--width", "2",
        "--partitioner", "first-fit", "--out", str(out_file),
    )
    assert code == 0
    t = Transcript.parse(out_file.read_text())
    assert t.strategy == "theorem1" and t.w == 2 and len(t.rounds) == 10


def test_play_reruns_are_byte_identical(tmp_path, capsys):
    files = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        code, _, _ = run(
            capsys, "play", "--strategy", "theorem2", "--width", "3",
            "--dim", "3", "--partitioner", "random", "--seed", "42",
            "--out", str(path),
        )
        assert code == 0
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_play_prints_each_violation_and_exits_1(capsys, monkeypatch):
    extract = HiddenRealizerStrategy.extract_realizer

    def reversed_second_order(self):
        realizer = extract(self)
        realizer.orders[1] = LinearOrder(reversed(realizer.orders[1].sequence))
        return realizer

    monkeypatch.setattr(HiddenRealizerStrategy, "extract_realizer", reversed_second_order)
    code, out, _ = run(
        capsys, "play", "--strategy", "theorem1", "--width", "2",
        "--partitioner", "first-fit",
    )
    assert code == 1
    assert out.splitlines() == [
        "10 points, 4 colors, bound 2.58579, FAIL",
        "violation: extracted realizer does not realize the presented poset",
    ]


def test_play_dim_is_required_for_visible_games(capsys):
    code, _, err = run(
        capsys, "play", "--strategy", "theorem2", "--width", "3",
        "--partitioner", "first-fit",
    )
    assert code == 2 and "--dim" in err


def test_play_dim_is_rejected_elsewhere(capsys):
    code, _, err = run(
        capsys, "play", "--strategy", "szemeredi", "--width", "2",
        "--dim", "2", "--partitioner", "first-fit",
    )
    assert code == 2 and "--dim" in err


def test_play_k_only_fits_the_two_host_game(capsys):
    code, _, err = run(
        capsys, "play", "--strategy", "theorem1", "--width", "2",
        "--k", "1", "--partitioner", "first-fit",
    )
    assert code == 2 and "--k" in err

    code, out, _ = run(
        capsys, "play", "--strategy", "szemeredi", "--width", "3",
        "--k", "2", "--partitioner", "first-fit",
    )
    assert code == 0 and out.splitlines()[0].endswith("OK")

    code, _, err = run(
        capsys, "play", "--strategy", "szemeredi", "--width", "3",
        "--k", "4", "--partitioner", "first-fit",
    )
    assert code == 2


def test_play_width_must_be_positive(capsys):
    code, _, err = run(
        capsys, "play", "--strategy", "szemeredi", "--width", "0",
        "--partitioner", "first-fit",
    )
    assert code == 2


def test_play_unknown_names_exit_2(capsys):
    code, _, _ = run(
        capsys, "play", "--strategy", "minimax", "--width", "2",
        "--partitioner", "first-fit",
    )
    assert code == 2
    code, _, _ = run(
        capsys, "play", "--strategy", "szemeredi", "--width", "2",
        "--partitioner", "oracle",
    )
    assert code == 2


def test_play_unwritable_out_path(tmp_path, capsys):
    code, _, err = run(
        capsys, "play", "--strategy", "szemeredi", "--width", "2",
        "--partitioner", "first-fit", "--out", str(tmp_path / "no" / "dir" / "x.jsonl"),
    )
    assert code == 1 and "x.jsonl" in err


def test_play_human_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n1\n2\n3\n"))
    code, out, _ = run(
        capsys, "play", "--strategy", "szemeredi", "--width", "2",
        "--partitioner", "human",
    )
    assert code == 0
    assert "element 4:" in out
    assert out.rstrip().splitlines()[-1] == "4 points, 3 colors, bound 3, OK"


def test_play_human_eof_is_an_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n"))
    code, _, err = run(
        capsys, "play", "--strategy", "szemeredi", "--width", "2",
        "--partitioner", "human",
    )
    assert code == 1 and "aborted" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_accepts_a_fresh_game(tmp_path, capsys):
    path = tmp_path / "game.jsonl"
    run(
        capsys, "play", "--strategy", "szemeredi", "--width", "4",
        "--partitioner", "random", "--seed", "9", "--out", str(path),
    )
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 0 and out.strip() == "0 violations"


def test_verify_counts_and_lists_violations(tmp_path, capsys):
    path = tmp_path / "game.jsonl"
    run(
        capsys, "play", "--strategy", "szemeredi", "--width", "3",
        "--partitioner", "first-fit", "--out", str(path),
    )
    text = path.read_text().splitlines()
    assert '"color":2' in text[4]
    text[4] = text[4].replace('"color":2', '"color":1')
    path.write_text("\n".join(text) + "\n")
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[-1] == "1 violations"
    assert "round 4: color 1 is not a chain: (2, 4) incomparable" in lines


def test_verify_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--in", "/nonexistent/game.jsonl")
    assert code == 2 and "game.jsonl" in err


@pytest.mark.parametrize("body", [b"not json\n", b"\xff\xfe"], ids=["not-json", "not-utf8"])
def test_verify_malformed_file_exits_1(tmp_path, capsys, body):
    path = tmp_path / "junk.jsonl"
    path.write_bytes(body)
    code, _, err = run(capsys, "verify", "--in", str(path))
    assert code == 1 and "line 1" in err


def test_verify_reads_a_seed_too_long_for_int_as_an_error_line(tmp_path, capsys):
    path = tmp_path / "long-seed.jsonl"
    run(capsys, "play", "--strategy", "szemeredi", "--width", "2",
        "--partitioner", "random", "--seed", "7", "--out", str(path))
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    path.write_text(path.read_text().replace('"seed":7', f'"seed":{digits}', 1))
    code, _, err = run(capsys, "verify", "--in", str(path))
    assert code == 1 and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: line 1: ")


# ---------------------------------------------------------------------------
# table


def test_table_writes_the_grid(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code, stdout, _ = run(
        capsys, "table", "--strategies", "szemeredi,theorem2", "--width-max", "2",
        "--dims", "2,3", "--seeds", "1", "--out", str(out),
    )
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    # szemeredi: 2 widths x (first-fit + 1 seed); theorem2: 2 widths x 2 dims x 2
    assert len(rows) == 4 + 8
    assert f"{len(rows)} games" in stdout
    assert all(r["bound_met"] == "true" for r in rows)
    szem = [r for r in rows if r["strategy"] == "szemeredi"]
    assert all(r["d"] == "" for r in szem)
    assert {r["partitioner"] for r in rows} == {"first-fit", "random"}


def test_table_validates_its_numbers(tmp_path, capsys):
    code, _, _ = run(
        capsys, "table", "--strategies", "szemeredi", "--width-max", "0",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    code, _, _ = run(
        capsys, "table", "--strategies", "theorem2", "--width-max", "2",
        "--dims", "1", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    code, _, err = run(
        capsys, "table", "--strategies", "wizardry", "--width-max", "2",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2 and "wizardry" in err
    for flags, message in [
        (["--strategies", ","], "--strategies must name at least one strategy"),
        (["--strategies", "szemeredi", "--seeds", "-1"], "--seeds must be non-negative"),
        (["--strategies", "szemeredi", "--dims", "x"],
         "--dims must be comma-separated integers, got 'x'"),
        (["--strategies", "theorem2", "--dims", ","],
         "--dims must name at least one dimension for theorem2"),
    ]:
        code, out, err = run(capsys, "table", *flags, "--width-max", "2",
                             "--out", str(tmp_path / "x.csv"))
        assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "x.csv").exists()


def test_table_checks_dims_only_where_theorem2_plays(tmp_path, capsys):
    code, _, err = run(
        capsys, "table", "--strategies", "theorem2", "--width-max", "1",
        "--dims", "2,1", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "--dims must be an integer >= 2 in visible-order games" in err
    code, _, _ = run(
        capsys, "table", "--strategies", "szemeredi", "--width-max", "1",
        "--dims", "1", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 0


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2
