"""Acceptance gate: every headline guarantee, run end to end.

Each test covers one numbered criterion and prints a PASS/FAIL line; the
whole module is expected to finish in well under two minutes.
"""

from __future__ import annotations

import itertools
import random
import time

from olcp import (
    FirstFit,
    Poset,
    RandomValid,
    Transcript,
    intersect,
    make_strategy,
    run_game,
    verify_chain_partition,
    verify_realizer,
)
from olcp.cli import main as cli_main

_T0 = time.monotonic()

# frozen numeric targets, computed away from the implementation
SZEMEREDI_BOUNDS = [1, 3, 6, 10, 15, 21]
HIDDEN_LEVEL_THRESHOLDS = {
    1: 0.5857864376269049,
    2: 2.0,
    3: 3.550510257216822,
    4: 5.17157287525381,
    5: 6.83772233983162,
    6: 8.535898384862247,
}
HIDDEN_TOTALS = [
    0.5857864376269049,
    2.585786437626905,
    6.136296694843727,
    11.307869570097537,
    18.14559190992916,
    26.681490294791406,
]
VISIBLE_LEVEL_THRESHOLDS = {
    2: {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 5.0, 6: 6.0},
    3: {1: 1.0, 2: 2.5, 3: 4.0, 4: 5.5, 5: 7.0, 6: 8.5},
    4: {1: 2 / 3, 2: 7 / 3, 3: 4.0, 4: 17 / 3, 5: 22 / 3, 6: 9.0},
}
VISIBLE_TOTALS = {
    2: [1, 3, 6, 10, 15, 21],
    3: [1, 3.5, 7.5, 13, 20, 28.5],
    4: [2 / 3, 3, 7, 38 / 3, 20, 29],
}
EPS = 1e-9


def _report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def _play(name, w, d=None, seed=None):
    s = make_strategy(name, w, d=d)
    part = FirstFit() if seed is None else RandomValid(seed)
    t, r = run_game(s, part, seed=seed)
    return s, t, r


def test_criterion_1_two_host_bound_grid():
    """w = 1..6 vs first-fit and 100 random seeds: at least w(w+1)/2 colors,
    certificate union exactly that large and fully multicolored, < 1s/game."""
    ok = True
    for w in range(1, 7):
        partitioners = [None] + list(range(100))
        for seed in partitioners:
            start = time.perf_counter()
            s, t, r = _play("szemeredi", w, seed=seed)
            elapsed = time.perf_counter() - start
            union = [x for chain in s.rainbow().chains.values() for x in chain]
            colors_in_union = {t.rounds[x - 1].color for x in union}
            ok = ok and r.violations == []
            ok = ok and r.colors >= SZEMEREDI_BOUNDS[w - 1]
            ok = ok and len(union) == SZEMEREDI_BOUNDS[w - 1]
            ok = ok and len(colors_in_union) == len(union)
            ok = ok and elapsed < 1.0
    _report("two-host game forces w(w+1)/2 colors (w<=6, 101 opponents each)", ok)


def test_criterion_2_small_game_oracle():
    """Width-2 game vs first-fit, frozen to the hand-derived table."""
    s, t, r = _play("szemeredi", 2)
    ok = len(s.poset) == 4
    ok = ok and r.colors == 3
    ok = ok and r.width == 2
    ok = ok and [row.color for row in t.rounds] == [1, 1, 2, 3]
    ok = ok and s.poset.relation_pairs() == {(1, 2), (1, 3), (4, 2)}
    ok = ok and s.rainbow().chains == {2: [1, 3], 1: [4]}
    ok = ok and r.violations == []
    _report("width-2 game matches the hand-derived oracle exactly", ok)


def test_criterion_3_chain_index_invariance():
    """All chain indices k present the identical game, round by round."""
    ok = True
    for w in range(1, 7):
        for seed in [None] + list(range(20)):
            baseline = None
            for k in range(1, w + 1):
                s = make_strategy("szemeredi", w, k=k)
                part = FirstFit() if seed is None else RandomValid(seed)
                t, _ = run_game(s, part, seed=seed)
                sig = [(row.element, row.below, row.above) for row in t.rounds]
                if baseline is None:
                    baseline = sig
                ok = ok and sig == baseline
    _report("every chain index presents the same poset (w<=6, 21 opponents)", ok)


def test_criterion_4_certificate_lemma_fuzz():
    """Certificate chains and order separations verify on every game the
    other criteria play, and across 200 extra random opponents at w <= 5.

    Criteria 1-3 and 5-6 run the full check stack on each of their games;
    this adds the dedicated random sweep."""
    ok = True
    for seed in range(200):
        for w in range(1, 6):
            for name in ("szemeredi", "theorem1"):
                _, _, r = _play(name, w, seed=seed)
                ok = ok and r.violations == [] and r.bound_met
        d = 2 + seed % 3
        w = (seed // 3) % 5 + 1
        _, _, r = _play("theorem2", w, d=d, seed=seed)
        ok = ok and r.violations == [] and r.bound_met
    _report("certificate and separation checks hold over 200-seed fuzz (w<=5)", ok)


def test_criterion_5_hidden_realizer_grid():
    """w = 1..6 vs first-fit and 50 random seeds: strict per-level margins,
    the frozen color totals, exact width, and a valid two-order realizer."""
    ok = True
    for w in range(1, 7):
        for seed in [None] + list(range(50)):
            s, t, r = _play("theorem1", w, seed=seed)
            ok = ok and len(r.levels) == w
            for rep in r.levels:
                ok = ok and rep.separator_colors > HIDDEN_LEVEL_THRESHOLDS[rep.width]
            ok = ok and r.colors >= HIDDEN_TOTALS[w - 1] - EPS
            ok = ok and r.width == w
            ok = ok and verify_realizer(s.extract_realizer(), s.poset)
            ok = ok and r.violations == []
    _report("hidden-pair game beats 2w'-sqrt(2w') per level (w<=6, 51 opponents)", ok)


def test_criterion_6_visible_realizer_grid():
    """d in {2,3,4}, w = 1..6, same opponents: per-round insertion-only
    extension growth, intersection equal to the presented poset, per-level
    margins met (equality allowed), frozen totals, exact width."""
    ok = True
    for d in (2, 3, 4):
        for w in range(1, 7):
            for seed in [None] + list(range(50)):
                s, t, r = _play("theorem2", w, d=d, seed=seed)
                ok = ok and r.violations == []  # includes every per-round check
                ok = ok and len(r.levels) == w
                ok = ok and intersect([o.copy() for o in s.orders]) == s.poset
                for rep in r.levels:
                    thr = VISIBLE_LEVEL_THRESHOLDS[d][rep.width]
                    ok = ok and rep.separator_colors >= thr - EPS
                ok = ok and r.colors >= VISIBLE_TOTALS[d][w - 1] - EPS
                ok = ok and r.width == w
    _report("visible-orders game meets its margins for d=2,3,4 (w<=6)", ok)


def _exhaustive_width(p: Poset) -> int:
    els = p.elements
    best = 0
    for r in range(len(els), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(els, r):
            if all(
                not p.comparable(a, b)
                for a, b in itertools.combinations(combo, 2)
            ):
                best = r
                break
    return best


def test_criterion_7_offline_baseline():
    """min_chain_cover is optimal on every presented poset; width agrees
    with exhaustive antichain enumeration on every <=12-point poset."""
    ok = True
    presented = []
    for w in range(1, 7):
        presented.append(_play("szemeredi", w)[0].poset)
        presented.append(_play("theorem1", w)[0].poset)
    for d in (2, 3, 4):
        for w in range(1, 5):
            presented.append(_play("theorem2", w, d=d)[0].poset)
    for p in presented:
        cover = p.min_chain_cover()
        ok = ok and verify_chain_partition(p, cover) == []
        ok = ok and cover.distinct_colors() == p.width()

    small = [p for p in presented if len(p) <= 12]
    small += [Poset.chain(5), Poset.antichain(6), Poset()]
    rng = random.Random(20240817)
    for _ in range(120):
        n = rng.randint(1, 12)
        pairs = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.35
        ]
        small.append(Poset.from_pairs(n, pairs))
    for p in small:
        if len(p) == 0:
            continue
        ok = ok and p.width() == _exhaustive_width(p)
    _report("offline chain cover is optimal; width matches brute force (<=12)", ok)


def test_criterion_8_reproducibility(tmp_path, capsys):
    """Identical invocations give byte-identical transcripts, all of which
    verify clean; the whole module stays under its two-minute budget."""
    ok = True
    specs = [
        ["play", "--strategy", "szemeredi", "--width", "4",
         "--partitioner", "first-fit"],
        ["play", "--strategy", "theorem1", "--width", "3",
         "--partitioner", "random", "--seed", "13"],
        ["play", "--strategy", "theorem2", "--width", "3", "--dim", "3",
         "--partitioner", "random", "--seed", "99"],
    ]
    for i, argv in enumerate(specs):
        blobs = []
        for attempt in ("x", "y"):
            out = tmp_path / f"game-{i}-{attempt}.jsonl"
            code = cli_main(argv + ["--out", str(out)])
            capsys.readouterr()
            ok = ok and code == 0
            blobs.append(out.read_bytes())
        ok = ok and blobs[0] == blobs[1]

        code = cli_main(["verify", "--in", str(tmp_path / f"game-{i}-x.jsonl")])
        captured = capsys.readouterr()
        ok = ok and code == 0 and captured.out.strip().endswith("0 violations")
        parsed = Transcript.parse((tmp_path / f"game-{i}-x.jsonl").read_text())
        ok = ok and len(parsed.rounds) > 0

    elapsed = time.monotonic() - _T0
    ok = ok and elapsed < 120.0
    _report(
        f"byte-identical reruns, clean verifies, suite at {elapsed:.0f}s < 120s", ok
    )
