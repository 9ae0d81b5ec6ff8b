"""Call counts on the on-line loop's hot path, counted rather than timed.

The partitioner's legal colors come from the classes' first members: only a
class whose first member is not incomparable to the new point has its mask
tested, and ``ChainPartition.legal`` runs once a round (the arena's check
of the chosen color), not once per color.  Host orders grow by
``list.index`` and a membership set, so no insertion rebuilds a
``positions()`` dict.  A root builder acts on the last instance of its
recursion list itself, so each host's ``Builder.place_next`` runs exactly
once a round, however deep the builder recursion.  A builder places each
point by its slot among its own points, which are all its window holds, so
the host index it hands the host already holds the anchor: no placement
searches the host.  A staged game hands each round to its current level
alone: one ``place`` and one ``observe`` a round.  An insertion appends the
new element's rows and no on-line round changes the row of an older
element.  The rows arrive as the masks the builders record in their hosts,
read from their windows, so no on-line round builds a mask from the ids
of the poset.  A szemeredi transcript is replayed once, and a
theorem1 level runs two roots and two dual roots: hosts tuned to other
chain indices are grown by no builder, as their cross-pair and keeper
checks read the two hosts' positions, and a clean level's chain indices
are all accepted by their cross pairs, so no tuned pair's rows are built;
the strategy re-tunes a finished level's hosts once.  A clean
report tests each certified chain with one mask test, walking no pairs.
Only a hidden-host level's report copies hosts: a visible-order level's
builds no ``LinearOrder``.  A theorem2 report seeds its width matching
from a chain cover along a visible order, which leaves at most a couple
of augmenting searches.
Transcript rows stay masks from the move to the text and from the text to
the verifier, and the visible orders are copied only for a partitioner
that reads them.  A played transcript's round lines are read as written,
none decoded whole.
"""

from __future__ import annotations

import json

import pytest

from olcp import FirstFit, RandomValid, Transcript, make_strategy, run_game, verify_transcript
from olcp import adversaries, arena
from olcp import poset as poset_module
from olcp.adversaries import PresentedRealizerStrategy, _GameLevel
from olcp.builders import FAMILIES, ORIENTATIONS, Builder
from olcp.poset import ChainPartition, LinearOrder, Poset


def test_szemeredi_game_keeps_legal_and_positions_off_the_per_color_path(monkeypatch):
    counts = {"legal": 0, "rebuilds": 0, "rebuilds_in_insert": 0, "place_next": 0}
    inserting = []
    legal, positions, insert_above, place_next = (
        ChainPartition.legal, LinearOrder.positions, LinearOrder.insert_above,
        Builder.place_next)

    def spy_legal(self, p, e, color):
        counts["legal"] += 1
        return legal(self, p, e, color)

    def spy_positions(self):
        if self._stale:
            counts["rebuilds"] += 1
            counts["rebuilds_in_insert"] += bool(inserting)
        return positions(self)

    def spy_insert_above(self, anchor, e, hint=None):
        inserting.append(e)
        try:
            return insert_above(self, anchor, e, hint)
        finally:
            inserting.pop()

    def spy_place_next(self, e):
        counts["place_next"] += 1
        return place_next(self, e)

    monkeypatch.setattr(ChainPartition, "legal", spy_legal)
    monkeypatch.setattr(LinearOrder, "positions", spy_positions)
    monkeypatch.setattr(LinearOrder, "insert_above", spy_insert_above)
    monkeypatch.setattr(Builder, "place_next", spy_place_next)
    transcript, report = run_game(make_strategy("szemeredi", 8), FirstFit())
    assert report.ok
    assert report.colors == 36  # C(w+1, 2) classes for each later point to test
    rounds = len(transcript.rounds)
    assert counts["legal"] == rounds
    assert counts["rebuilds_in_insert"] == 0
    assert counts["rebuilds"] == 0
    roots = 2  # one per host: the scan and the stack builder
    assert counts["place_next"] == roots * rounds  # one call, on the root


def test_rainbow_game_tests_a_few_class_masks_a_round():
    """A szemeredi game forces C(w+1, 2) colors, about one of them legal a
    round: the partitioner's legal colors read under a tenth of the class
    masks, rather than every one."""
    reads, tested, classes = [0], [0], [0]

    class Counted(dict):
        def __getitem__(self, color):
            reads[0] += 1
            return super().__getitem__(color)

        def get(self, color, default=None):
            reads[0] += 1
            return super().get(color, default)

        def items(self):
            for item in super().items():
                reads[0] += 1
                yield item

        def values(self):
            for _, cls in self.items():
                yield cls

    class Counting(FirstFit):
        def choose(self, view):
            part = view.partition
            if type(part.masks) is not Counted:
                part.masks = Counted(part.masks)
            classes[0] += len(part.masks)
            before = reads[0]
            color = super().choose(view)
            tested[0] += reads[0] - before
            return color

    transcript, report = run_game(make_strategy("szemeredi", 36), Counting())
    assert report.ok and report.colors == 666
    assert tested[0] < classes[0] / 10


@pytest.mark.parametrize("name, w, d", [("szemeredi", 8, None), ("theorem2", 4, 3),
                                        ("theorem1", 3, None)])
def test_host_searches_grow_with_the_width_not_the_rounds(monkeypatch, name, w, d):
    """Every insertion a builder makes hands the host the index that
    already holds its anchor (-1 for a new bottom), so the host's check of
    that index never falls back to a search: searches do not grow at all."""
    insertions, misses, placing = [0], [], []
    insert_above, place_next = LinearOrder.insert_above, Builder.place_next

    def spy_insert_above(self, anchor, e, hint=None):
        if placing:
            insertions[0] += 1
            if hint != (-1 if anchor is None else self.sequence.index(anchor)):
                misses.append(e)
        return insert_above(self, anchor, e, hint)

    def spy_place_next(self, e):
        placing.append(e)
        try:
            return place_next(self, e)
        finally:
            placing.pop()

    monkeypatch.setattr(LinearOrder, "insert_above", spy_insert_above)
    monkeypatch.setattr(Builder, "place_next", spy_place_next)
    transcript, report = run_game(make_strategy(name, w, d=d), FirstFit())
    assert report.ok
    hosts = 2 if d is None else d
    assert insertions[0] == hosts * len(transcript.rounds)
    assert misses == []


@pytest.mark.parametrize("name, w, d", [("theorem2", 4, 3), ("theorem1", 3, None)])
def test_staged_game_hands_each_round_to_one_level(monkeypatch, name, w, d):
    counts = {"legal": 0, "rebuilds_in_insert": 0, "place": 0, "observe": 0}
    inserting = []
    legal, positions, insert_above, place, observe = (
        ChainPartition.legal, LinearOrder.positions, LinearOrder.insert_above,
        _GameLevel.place, _GameLevel.observe)

    def spy_legal(self, p, e, color):
        counts["legal"] += 1
        return legal(self, p, e, color)

    def spy_positions(self):
        counts["rebuilds_in_insert"] += bool(self._stale and inserting)
        return positions(self)

    def spy_insert_above(self, anchor, e, hint=None):
        inserting.append(e)
        try:
            return insert_above(self, anchor, e, hint)
        finally:
            inserting.pop()

    def spy_place(self, e):
        counts["place"] += 1
        return place(self, e)

    def spy_observe(self, e, color):
        counts["observe"] += 1
        return observe(self, e, color)

    monkeypatch.setattr(ChainPartition, "legal", spy_legal)
    monkeypatch.setattr(LinearOrder, "positions", spy_positions)
    monkeypatch.setattr(LinearOrder, "insert_above", spy_insert_above)
    monkeypatch.setattr(_GameLevel, "place", spy_place)
    monkeypatch.setattr(_GameLevel, "observe", spy_observe)
    transcript, report = run_game(make_strategy(name, w, d=d), FirstFit())
    assert report.ok
    rounds = len(transcript.rounds)
    assert counts == {"legal": rounds, "rebuilds_in_insert": 0, "place": rounds,
                      "observe": rounds}


@pytest.mark.parametrize("name, w, d", [("szemeredi", 8, None), ("theorem2", 4, 3)])
def test_online_rounds_leave_older_rows_as_they_were(monkeypatch, name, w, d):
    """Between one insertion and the next -- the insertion itself, the
    partitioner's scan, the strategy's observation -- no row of an older
    id changes; only the end-of-game report may complete them."""
    add_closed = Poset._add_closed
    seen: list[tuple[list[int], list[int]]] = []
    insertions = []

    def spy_add_closed(self, down, up):
        before = (self._below[:], self._above[:])
        if seen:
            assert before == seen[-1], f"an older row changed before element {len(self._below)}"
        e = add_closed(self, down, up)
        assert (self._below[:e], self._above[:e]) == before, f"inserting {e} changed an older row"
        seen.append((self._below[:], self._above[:]))
        insertions.append(e)
        return e

    monkeypatch.setattr(Poset, "_add_closed", spy_add_closed)
    transcript, report = run_game(make_strategy(name, w, d=d), FirstFit())
    assert report.ok
    assert insertions == list(range(1, len(transcript.rounds) + 1))


@pytest.mark.parametrize("name, w, d", [("szemeredi", 6, None), ("theorem1", 3, None),
                                        ("theorem2", 4, 3)])
def test_online_rounds_build_no_mask_from_ids(monkeypatch, name, w, d):
    """Relations reach the poset as the masks the builders record: no
    on-line round turns a list of the poset's ids into a mask (a builder
    ORs only its own points, fewer than 2w)."""
    calls = []
    digits_mask = poset_module._digits_mask

    def spy_digits_mask(ids, size):
        calls.append(size)
        return digits_mask(ids, size)

    for module in (poset_module, arena):
        monkeypatch.setattr(module, "_digits_mask", spy_digits_mask)
    seen = []

    class Counting(FirstFit):
        def choose(self, view):
            seen.append(len(calls))
            return super().choose(view)

    transcript, report = run_game(make_strategy(name, w, d=d), Counting())
    assert report.ok
    assert len(seen) == len(transcript.rounds) and seen[-1] == 0


@pytest.mark.parametrize("name, w", [("theorem1", 4), ("szemeredi", 8)])
def test_transcript_rows_stay_masks_from_the_poset_to_the_verifier(monkeypatch, name, w):
    """Playing and serializing a game, then parsing and verifying its text,
    turns no mask into ids and no ids into a mask.  The spies sit on the
    arena's bindings, which the transcript path calls; ``Poset.restrict``
    builds its element masks through the poset module's own."""
    calls = []

    def spy(helper):
        def counted(*args):
            calls.append(helper.__name__)
            return helper(*args)
        return counted

    for module, helper in ((arena, "_mask_ids"), (arena, "_digits_mask"),
                           (poset_module, "_mask_ids")):
        monkeypatch.setattr(module, helper, spy(getattr(module, helper)))
    transcript, report = run_game(make_strategy(name, w), FirstFit())
    text = transcript.serialize()
    assert report.ok
    assert verify_transcript(Transcript.parse(text)) == []
    assert calls == []


def test_visible_orders_are_copied_only_for_a_partitioner_that_reads_them(monkeypatch):
    snapshot = PresentedRealizerStrategy.realizer_snapshot
    copies = []

    def spy_snapshot(self):
        copies.append(len(self.poset))
        return snapshot(self)

    monkeypatch.setattr(PresentedRealizerStrategy, "realizer_snapshot", spy_snapshot)
    transcript, report = run_game(make_strategy("theorem2", 4, d=3), FirstFit())
    assert report.ok and copies == []

    class Reading(FirstFit):
        def choose(self, view):
            orders = view.realizer
            assert view.realizer is orders  # one copy a round, however often read
            assert [o.sequence for o in orders] == [o.sequence for o in strategy.orders]
            assert all(o is not live for o, live in zip(orders, strategy.orders))
            return super().choose(view)

    strategy = make_strategy("theorem2", 4, d=3)
    transcript, report = run_game(strategy, Reading())
    assert report.ok
    assert copies == list(range(1, len(transcript.rounds) + 1))


@pytest.mark.parametrize("w", [2, 5])
def test_szemeredi_transcript_is_replayed_once(monkeypatch, w):
    """Chain indices 1..w-1 run builders only; the one strategy replay is
    the main one."""
    transcript, _ = run_game(make_strategy("szemeredi", w), FirstFit())
    replay = arena._replay
    replays = []

    def spy_replay(strategy, t, rows):
        replays.append(strategy.k)
        return replay(strategy, t, rows)

    monkeypatch.setattr(arena, "_replay", spy_replay)
    assert verify_transcript(transcript) == []
    assert replays == [w]


def _spy_builders(monkeypatch) -> list[Builder]:
    """Every builder instance made from here on, in order of creation."""
    made: list[Builder] = []
    init = Builder.__init__

    def spy_init(self, spec, region, host):
        made.append(self)
        init(self, spec, region, host)

    monkeypatch.setattr(Builder, "__init__", spy_init)
    return made


def _roots(made: list[Builder]) -> list[tuple[int, str, str]]:
    """Width, family and orientation of each builder no other one holds."""
    deeper = {id(x) for b in made for x in b._deeper}
    return sorted((b.spec.w, b.spec.family, b.spec.orientation) for b in made if id(b) not in deeper)


def test_a_hidden_level_runs_two_roots_and_two_dual_roots(monkeypatch):
    """A theorem1 level grows two hosts, tuned to k = width: one scan and
    one stack root, and under them one dual root each, in play and in
    verify.  Its hosts tuned to the other chain indices are spliced, by no
    builder."""
    w = 5
    made = _spy_builders(monkeypatch)
    transcript, report = run_game(make_strategy("theorem1", w), FirstFit())
    assert report.ok
    per_level = sorted((width, family, orientation) for width in range(1, w + 1)
                       for family in FAMILIES for orientation in ORIENTATIONS)
    assert _roots(made) == per_level
    assert all(b.spec.k == b.spec.w for b in made)
    made.clear()
    assert verify_transcript(transcript) == []
    assert _roots(made) == per_level


def test_szemeredi_verify_runs_only_the_main_replays_builders(monkeypatch):
    """Chain indices 1..w-1 are spliced from the main replay's hosts: the
    only builders a verify makes are the main replay's two roots, tuned to
    k = w, and their deeper instances."""
    w = 6
    transcript, report = run_game(make_strategy("szemeredi", w), FirstFit())
    assert report.ok
    made = _spy_builders(monkeypatch)
    assert verify_transcript(transcript) == []
    assert _roots(made) == [(w, "scan", "primal"), (w, "stack", "primal")]
    assert all(b.spec.k == b.spec.w for b in made)
    assert len(made) == 2 * w


def test_a_clean_theorem1_play_realizes_rows_once_a_level(monkeypatch):
    """Every chain index of a clean theorem1 level is accepted by its cross
    pairs, so the report realizes rows once per level, for the level's two
    hosts, and once for ``verify_realizer``: no chain index's own rows."""
    realized_rows = poset_module._realized_rows
    calls = []

    def spy(orders, size):
        calls.append(len(orders))
        return realized_rows(orders, size)

    monkeypatch.setattr(poset_module, "_realized_rows", spy)
    monkeypatch.setattr(arena, "_realized_rows", spy)
    _, report = run_game(make_strategy("theorem1", 6), FirstFit())
    assert report.ok
    assert 0 < len(calls) <= len(report.levels) + 1


@pytest.mark.parametrize("w", range(3, 7))
def test_a_theorem1_level_check_splices_no_chain_index(monkeypatch, w):
    """Playing and verifying a clean theorem1 game: the strategy re-tunes
    its hosts by the formula (``poset._tuned_hosts``) once per finished
    level, in ``_GameLevel._splice_to_t``, and the level checks accept every
    chain index by its cross pairs, so no tuned pair's rows are built."""
    tuned, yielded = [], []
    tuned_hosts, chain_index_rows = adversaries._tuned_hosts, arena._chain_index_rows

    def spy_tuned_hosts(*args):
        tuned.append(True)
        return tuned_hosts(*args)

    def spy_rows(*args):
        for item in chain_index_rows(*args):
            yielded.append(item)
            yield item

    monkeypatch.setattr(adversaries, "_tuned_hosts", spy_tuned_hosts)
    monkeypatch.setattr(arena, "_chain_index_rows", spy_rows)
    transcript, report = run_game(make_strategy("theorem1", w), FirstFit())
    assert report.ok
    assert verify_transcript(transcript) == []
    widths = [rep.width for rep in report.levels]
    assert len(tuned) == 2 * len(widths)
    assert yielded == [None] * (2 * sum(widths))


def test_a_clean_szemeredi_verify_builds_no_order_for_its_chain_indices(monkeypatch):
    """Each chain index 1..w-1 of a clean szemeredi transcript is accepted
    by its cross pairs, read from the main hosts' positions: no
    ``LinearOrder`` is built while ``_chain_index_rows`` runs (a splice per
    chain index built two)."""
    w = 8
    transcript, report = run_game(make_strategy("szemeredi", w), FirstFit())
    assert report.ok
    inside, built, checked, done = [], [], [], object()
    init, chain_index_rows = LinearOrder.__init__, arena._chain_index_rows

    def spy_init(self, sequence=()):
        built.extend(inside)
        init(self, sequence)

    def spy_rows(*args):
        rows = chain_index_rows(*args)
        while True:
            inside.append(True)
            try:
                item = next(rows, done)
            finally:
                inside.pop()
            if item is done:
                return
            checked.append(item)
            yield item

    monkeypatch.setattr(LinearOrder, "__init__", spy_init)
    monkeypatch.setattr(arena, "_chain_index_rows", spy_rows)
    assert verify_transcript(transcript) == []
    assert len(built) == 0
    assert checked == [None] * (w - 1)


@pytest.mark.parametrize("name, w, d, per_level", [
    ("theorem2", 10, 2, 0), ("theorem2", 6, 4, 0), ("theorem1", 5, None, 2),
])
def test_level_reports_build_hosts_only_for_hidden_levels(monkeypatch, name, w, d, per_level):
    """A visible-order level reports no hosts, so ``level_reports`` builds no
    ``LinearOrder`` for it; a theorem1 level copies its two hosts."""
    s = make_strategy(name, w, d=d)
    _, report = run_game(s, FirstFit())
    assert report.ok
    built = []
    init = LinearOrder.__init__

    def spy_init(self, sequence=()):
        built.append(self)
        init(self, sequence)

    monkeypatch.setattr(LinearOrder, "__init__", spy_init)
    reports = s.level_reports()
    assert reports and len(built) == per_level * len(reports)


@pytest.mark.parametrize("name", ["szemeredi", "theorem1"])
def test_a_clean_report_walks_no_incomparable_pairs(monkeypatch, name):
    """Every certified chain of a clean game passes its one mask test, so
    ``Poset.incomparable_pairs`` is never called to name a pair."""
    calls = []
    incomparable_pairs = Poset.incomparable_pairs

    def spy(self, pts):
        calls.append(pts)
        return incomparable_pairs(self, pts)

    monkeypatch.setattr(Poset, "incomparable_pairs", spy)
    _, report = run_game(make_strategy(name, 4), FirstFit())
    assert report.ok
    assert calls == []


@pytest.mark.parametrize("opponent", ["first-fit", 0])
@pytest.mark.parametrize("w, d", [(8, 3), (8, 4), (10, 3), (10, 4)])
def test_a_theorem2_report_width_needs_few_augmenting_searches(monkeypatch, w, d, opponent):
    """The report's width matching starts from the consecutive pairs of a
    first-fit chain cover along a visible order: at most two augmenting
    paths are left to find (30 after the greedy seed at w=10, d=4)."""
    augmented = []
    max_matching = Poset._max_matching

    def spy(self, seed=None):
        assert seed is not None
        start = len(seed)
        matching = max_matching(self, seed)
        augmented.append(len(matching) - start)
        return matching

    monkeypatch.setattr(Poset, "_max_matching", spy)
    partitioner = FirstFit() if opponent == "first-fit" else RandomValid(opponent)
    _, report = run_game(make_strategy("theorem2", w, d=d), partitioner)
    assert report.ok and report.width == w
    assert len(augmented) == 1 and augmented[0] <= 2


@pytest.mark.parametrize("opponent", ["first-fit", 0])
@pytest.mark.parametrize("name, w, d", [("szemeredi", 6, None), ("theorem1", 4, None),
                                        ("theorem2", 4, 2), ("theorem2", 4, 3)])
def test_a_played_transcript_decodes_only_its_header_whole(monkeypatch, name, w, d, opponent):
    """Every round line of a played game matches the text written around its
    lists, so ``Transcript.parse`` decodes the header alone as a whole line."""
    partitioner = FirstFit() if opponent == "first-fit" else RandomValid(opponent)
    seed = None if opponent == "first-fit" else opponent
    transcript, report = run_game(make_strategy(name, w, d=d), partitioner, seed=seed)
    assert report.ok
    decoded = []
    parse_object = arena._parse_object
    monkeypatch.setattr(arena, "_parse_object",
                        lambda raw, line: decoded.append(line) or parse_object(raw, line))
    assert Transcript.parse(transcript.serialize()) == transcript
    assert decoded == [1]


def test_a_line_decoded_whole_keeps_the_previous_lists_for_the_next(monkeypatch):
    """A re-spaced round line is decoded whole, and the lists of the last
    line read by its text stay a true reading of their text, so the next
    line still reuses them: a theorem1 w=4 text with rounds 10, 20, ..., 60
    re-spaced by ``json.dumps`` decodes 38 lists, 12 of them on the
    re-spaced lines."""
    transcript, report = run_game(make_strategy("theorem1", 4), FirstFit())
    assert report.ok
    lines = transcript.serialize().splitlines()
    for i in range(10, len(lines), 10):
        lines[i] = json.dumps(json.loads(lines[i]))
    decoded = []
    id_list = arena._id_list
    monkeypatch.setattr(arena, "_id_list", lambda *args: decoded.append(args[2]) or id_list(*args))
    assert Transcript.parse("\n".join(lines) + "\n") == transcript
    assert len(decoded) == 38
    assert sum(line % 10 == 1 for line in decoded) == 12
