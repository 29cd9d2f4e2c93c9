import gc
import itertools
import random
import sys

import pytest

from puzzlefonts import hinged
from puzzlefonts.cli import main
from puzzlefonts.errors import BudgetExceeded, FieldError, InvalidPolyabolo
from puzzlefonts.hinged import (
    CORNERS, COORD_LIMIT, DEFAULT_BUDGET, HALVES, Cell, HingedChain, _block_table, _cell_slots,
    _fold_blocks, _poses, _walk, cell_triangle, check_cell, contact_masks, fold_chain, refine,
    render_chain_strip, render_fold, render_polyabolo, stays_connected, validate_polyabolo,
    verify_fold,
)
from oracles import (
    block_folds, cell_placements, cell_vertices, exhaustive_fold_exists, fillable_from_scratch,
    fold_is_valid, plain_block_fold, slots_connected,
)

ALT = (("Q", "P"), ("R", "P"))


def alt_chain(n):
    return HingedChain.cyclic(n, ALT)


def square_cells(w, h):
    return [(x, y, "NE", half) for x in range(w) for y in range(h)
            for half in ("first", "second")]


FULL_SQUARE_4 = square_cells(4, 4)
TWO_CELL = [(0, 0, "NE", "first"), (0, 0, "NE", "second")]
# a 32-cell G into which the block levels cannot fold the shipped chain
G_GLYPH = [(x, y, d, half) for x, y, d in (
    (0, 3, "NW"), (1, 3, "NE"), (2, 3, "NW"), (3, 0, "NE"), (3, 2, "NE"), (3, 3, "NW"),
    (4, 0, "NE"), (4, 1, "NW"), (4, 2, "NE"), (4, 3, "NE"), (4, 4, "NW"), (5, 0, "NW"),
    (5, 1, "NW"), (5, 2, "NW"), (5, 3, "NW"), (5, 4, "NW")) for half in HALVES]


def moved(cells, dx, dy):
    return [(x + dx, y + dy, diagonal, half) for x, y, diagonal, half in cells]


def as_pieces(slots, fold):
    """A fold's placement numbers ``2 * slot + pose`` as the oracles list pieces:
    (slot index, (R, P, Q) corners), pose 0 keeping the slot's acute corners in
    order and pose 1 swapping them."""
    return tuple((q >> 1, (r, a1, a2) if q & 1 == 0 else (r, a2, a1))
                 for q in fold for r, a1, a2 in [slots[q >> 1]])


def shipped_targets(shipped):
    """The 4x4 square and the shipped hinged glyphs, by name."""
    glyphs = shipped["hinged"].glyphs
    return {"square": FULL_SQUARE_4, **{ch: glyphs[ch] for ch in sorted(glyphs)}}


class TestValidatePolyabolo:
    def test_4x4_square(self):
        rep = validate_polyabolo(FULL_SQUARE_4, 32)
        assert rep.ok and rep.area == 16.0

    def test_disconnected(self):
        blobs = square_cells(2, 4) + [(x + 10, y, "NE", h) for x, y, _, h in square_cells(2, 4)]
        rep = validate_polyabolo(blobs, 32)
        assert rep.cell_count == 32 and not rep.connected
        touching = [(0, 0, "NE", "first"), (1, 1, "NE", "second")]  # only the point (1, 1)
        assert not validate_polyabolo(touching, 2).connected

    def test_wrong_count(self):
        rep = validate_polyabolo(FULL_SQUARE_4[:-1], 32)
        assert rep.cell_count == 31 and not rep.ok

    def test_overlap_mixed_diagonals(self):
        cells = [(0, 0, "NE", "first"), (0, 0, "NW", "first")]
        rep = validate_polyabolo(cells, 2)
        assert not rep.no_overlap

    def test_duplicate_cells(self):
        rep = validate_polyabolo([(0, 0, "NE", "first")] * 2, 2)
        assert not rep.no_overlap

    def test_hypotenuse_only_connection_counts(self):
        rep = validate_polyabolo(TWO_CELL, 2)
        assert rep.connected and rep.ok


class TestCellGeometry:
    @pytest.mark.parametrize("diag,half", list(itertools.product(("NE", "NW"), ("first", "second"))))
    def test_right_angle_and_unit_legs(self, diag, half):
        r, a, b = cell_triangle(Cell(2, 3, diag, half))
        va = (a[0] - r[0], a[1] - r[1])
        vb = (b[0] - r[0], b[1] - r[1])
        assert va[0] * vb[0] + va[1] * vb[1] == 0  # legs perpendicular at R
        assert va[0] ** 2 + va[1] ** 2 == 1
        assert vb[0] ** 2 + vb[1] ** 2 == 1


class TestCellCoordinates:
    """Cell coordinates are integers below COORD_LIMIT in magnitude, so that
    every slot corner is an exact float: rounded ones would let slots
    collide, and a glyph whose slots collide can pass as valid."""

    @pytest.mark.parametrize("cell,field", [
        ((0.5, 0, "NE", "first"), "sx"),
        ((0, -1.5, "NW", "second"), "sy"),
        ((COORD_LIMIT, 0, "NE", "first"), "sx"),
        ((0, -COORD_LIMIT, "NE", "second"), "sy"),
        ((2 ** 60, 0, "NE", "first"), "sx"),
        ((float("inf"), 0, "NE", "first"), "sx"),
        ((0, float("nan"), "NE", "first"), "sy"),
        (("3", 0, "NE", "first"), "sx"),
    ])
    def test_rejects_what_is_not_a_small_integer(self, cell, field):
        with pytest.raises(FieldError) as err:
            check_cell(cell)
        assert err.value.field == field
        assert "cell coordinates must be integers" in str(err.value)

    def test_accepts_integral_values_inside_the_bound(self):
        limit = COORD_LIMIT - 1
        assert check_cell((3.0, -limit, "NE", "first")) == Cell(3, -limit, "NE", "first")
        assert check_cell((limit, 0, "NW", "second")) == Cell(limit, 0, "NW", "second")

    @pytest.mark.parametrize("side", ["high", "low"])
    def test_library_rejects_a_glyph_beyond_the_bound(self, shipped, side):
        # up to the bound it folds as it does at home: see
        # TestBlockTable::test_translated_targets_fold_the_same
        chain, cells = shipped["hinged"].chain, shipped["hinged"].glyphs["O"]
        fold = fold_chain(chain, cells, expected_cells=32)
        edge = (COORD_LIMIT - 1 - max(c.sx for c in cells) if side == "high"
                else -(COORD_LIMIT - 1) - min(c.sx for c in cells))
        assert validate_polyabolo(moved(cells, edge, 0), 32).ok
        step = 1 if side == "high" else -1
        for dx in (edge + step, 2 ** 52 * step, 2 ** 60 * step):
            for call in (validate_polyabolo, refine, lambda c: fold_chain(chain, c),
                         lambda c: verify_fold(chain, c, fold)):
                with pytest.raises(FieldError):
                    call(moved(cells, dx, 0))

    @pytest.mark.parametrize("side,beyond", [("high", False), ("high", True), ("low", False),
                                             ("low", True)])
    def test_validate_reports_the_coordinate_beyond_the_bound(self, shipped, tmp_path, capsys,
                                                              side, beyond):
        cells = shipped["hinged"].glyphs["O"]
        dx = (COORD_LIMIT - 1 - max(c.sx for c in cells) + beyond if side == "high"
              else -(COORD_LIMIT - 1) - min(c.sx for c in cells) - beyond)
        there = moved(cells, dx, 0)
        path = tmp_path / "moved.pft"
        path.write_text("font hinged 1\nchain 128 Q:P R:P\nglyph O\n" + "".join(
            f"cell {x} {y} {diagonal} {half}\n" for x, y, diagonal, half in there))
        assert main(["validate", str(path)]) == (1 if beyond else 0)
        out = capsys.readouterr().out.splitlines()
        if not beyond:
            assert out == [f"{path}: ok"]
            return
        # the first cell line whose x is out of range, at its x token
        line = 4 + next(k for k, c in enumerate(there) if abs(c[0]) >= COORD_LIMIT)
        x = there[line - 4][0]
        assert (f"  {line}:6: cell coordinates must be integers of magnitude below 2**51, "
                f"got {x}") in out


class TestRefine:
    def test_single_cell_four_slots(self):
        slots = refine([(0, 0, "NE", "first")]).slots
        assert len(slots) == 4
        # each slot is right isosceles with legs 1/2 -> area 1/8, total 1/2
        total = 0.0
        for r, a, b in slots:
            va = (a[0] - r[0], a[1] - r[1])
            vb = (b[0] - r[0], b[1] - r[1])
            assert va[0] * vb[0] + va[1] * vb[1] == pytest.approx(0.0)
            assert va[0] ** 2 + va[1] ** 2 == pytest.approx(0.25)
            total += abs(va[0] * vb[1] - va[1] * vb[0]) / 2.0
        assert total == pytest.approx(0.5)

    def test_square_gives_128(self):
        assert len(refine(FULL_SQUARE_4, 32).slots) == 128

    def test_rejects_invalid(self):
        with pytest.raises(InvalidPolyabolo):
            refine(FULL_SQUARE_4[:-1], 32)



class TestFoldChain:
    def test_two_cell_toy(self):
        chain = alt_chain(8)
        fold = fold_chain(chain, TWO_CELL)
        assert fold is not None
        assert verify_fold(chain, TWO_CELL, fold)

    def test_4x4_square(self):
        chain = alt_chain(128)
        fold = fold_chain(chain, FULL_SQUARE_4, expected_cells=32)
        assert fold is not None
        assert verify_fold(chain, FULL_SQUARE_4, fold, expected_cells=32)

    def test_uniform_acute_chain_is_proven_impossible(self):
        # acute-only hinges cannot reach the corner/center slot pairs
        chain = HingedChain.cyclic(8, [("Q", "P")])
        assert fold_chain(chain, TWO_CELL) is None

    def test_impossible_hinge_labels_exhaust(self):
        # R-R hinges in one cell: all four R corners sit at distinct points
        chain = HingedChain.cyclic(4, [("R", "R")])
        assert fold_chain(chain, [(0, 0, "NE", "first")]) is None

    def test_budget_exceeded_is_distinguished(self):
        # a fold of 128 pieces places 16 blocks or walks 128 nodes, so any
        # budget under 16 runs out whatever order the search takes
        chain = alt_chain(128)
        with pytest.raises(BudgetExceeded):
            fold_chain(chain, FULL_SQUARE_4, budget=15, expected_cells=32)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fold_chain(alt_chain(12), TWO_CELL)

    def test_each_cell_checked_once_per_call(self, shipped, monkeypatch):
        # fold_chain and verify_fold each refine the glyph once, and the
        # block levels take its cells and cell graph from that record
        calls = {"check_cell": 0, "_cell_graph": 0}
        for name in calls:
            def counted(*args, real=getattr(hinged, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(hinged, name, counted)
        chain, cells = shipped["hinged"].chain, shipped["hinged"].glyphs["F"]
        fold = fold_chain(chain, cells, budget=10**6, expected_cells=32)
        assert calls == {"check_cell": 32, "_cell_graph": 1}
        calls.update(dict.fromkeys(calls, 0))
        assert verify_fold(chain, cells, fold, expected_cells=32)
        assert calls == {"check_cell": 32, "_cell_graph": 1}

    def test_block_levels_split_each_cell_once(self, shipped, monkeypatch):
        # refine splits each cell into its slots once, and the block levels
        # read them from its record.  The first call warms `_block_table`,
        # whose builds split their own pairs of cells
        chain, cells = shipped["hinged"].chain, shipped["hinged"].glyphs["F"]
        want = fold_chain(chain, cells, budget=10**6, expected_cells=32)
        calls = []
        monkeypatch.setattr(hinged, "_cell_slots",
                            lambda cell, real=hinged._cell_slots: calls.append(cell) or real(cell))
        assert fold_chain(chain, cells, budget=10**6, expected_cells=32) == want
        assert len(calls) == 32

    def test_fold_leaves_no_reference_cycle(self, shipped):
        # N's block levels remember about 470 dead states, the square's
        # 24.  Allocated blocks, not traced bytes: tracemalloc makes N's
        # search twenty times slower
        fd = shipped["hinged"]
        for chain, cells in ((alt_chain(128), FULL_SQUARE_4), (fd.chain, fd.glyphs["N"])):
            gc.collect()
            gc.disable()
            try:
                # fill the interpreter's free lists first, so that what stays
                # allocated below is what the folds keep alive
                for _ in range(20):
                    fold_chain(chain, cells, expected_cells=32)
                before = sys.getallocatedblocks()
                for _ in range(20):
                    fold_chain(chain, cells, expected_cells=32)
                retained = sys.getallocatedblocks() - before
            finally:
                gc.enable()
            assert retained < 200, f"{retained} blocks retained after 20 folds"

    @pytest.mark.parametrize("cells", [
        [(0, 0, "NE", "first")],
        TWO_CELL,
        [(0, 0, "NE", "first"), (0, 0, "NE", "second"), (1, 0, "NE", "first")],
        square_cells(2, 1),
        square_cells(1, 2),
        [(0, 0, "NE", "second"), (1, 0, "NW", "second"), (0, 0, "NE", "first"),
         (0, 1, "NE", "second")],
    ])
    def test_matches_exhaustive_oracle_on_toys(self, cells):
        chain = alt_chain(4 * len(cells))
        slots = refine(cells).slots
        expected = exhaustive_fold_exists(chain, [tuple(s) for s in slots])
        got = fold_chain(chain, cells)
        assert (got is not None) == expected
        if got is not None:
            assert verify_fold(chain, cells, got)


class TestSearchIsPinned:
    """The smallest budget at which the 128-piece walk alone folds each target:
    a walk that visits other nodes, or the same nodes in another order, shows
    as a moved pin.  Bisected before the connectivity check became local to the
    last eight placements; F and Z fold in the first round, only at starts 108
    and 204.  `fold_chain` places blocks first, so these are the walk's own."""

    @pytest.mark.parametrize("target,budget", [
        ("square", 198), ("I", 206), ("L", 202), ("O", 587), ("N", 32_089),
        ("F", 414_654), ("Z", 767_414),
    ])
    def test_smallest_folding_budget(self, shipped, target, budget):
        fd = shipped["hinged"]
        cells = FULL_SQUARE_4 if target == "square" else fd.glyphs[target]
        slots = refine(cells, 32).slots
        fold = _walk(fd.chain, slots, budget)
        assert verify_fold(fd.chain, cells, fold, expected_cells=32)
        with pytest.raises(BudgetExceeded):
            _walk(fd.chain, slots, budget - 1)

    def test_smallest_exhausting_budget(self):
        # a dead state met again costs only the node that reached it, so the
        # proof that this chain has no fold counts only the nodes it walks
        chain = HingedChain.cyclic(16, [("R", "P")])
        slots = refine(square_cells(2, 1)).slots
        assert _walk(chain, slots, 7_688) is None
        with pytest.raises(BudgetExceeded):
            _walk(chain, slots, 7_687)

    def test_fallback_walk_folds_where_the_blocks_cannot(self, shipped):
        # the block levels exhaust on this G after 41,135 nodes and the walk
        # folds it in the first round, at start 168; one depth-first pass over
        # the starts finds no fold in 10M nodes, so this pins the rounds
        fd = shipped["hinged"]
        fold = fold_chain(fd.chain, G_GLYPH, budget=657_500, expected_cells=32)
        assert verify_fold(fd.chain, G_GLYPH, fold, expected_cells=32)
        with pytest.raises(BudgetExceeded, match="41135 of them spent on block levels"):
            fold_chain(fd.chain, G_GLYPH, budget=657_499, expected_cells=32)


BLOCK_SHAPES = {"2x1": square_cells(2, 1), "2x2": square_cells(2, 2), "4x1": square_cells(4, 1),
                "two cells": TWO_CELL}
BLOCK_CHAINS = {"Q:P/R:P": ALT, "Q:P/R:R": (("Q", "P"), ("R", "R")), "R:P": (("R", "P"),),
                "Q:P": (("Q", "P"),)}
# uniform R:P on 8 cells has no fold, and the walk alone takes 1.1M nodes, 3 s
# (4x1), and 12.3M nodes, 38 s (2x2), to show it, so the comparison with the
# walk leaves these two out
SLOW_WALKS = {("2x2", "R:P"), ("4x1", "R:P")}
# 16 pieces whose hinges no pairing of the 4 cells into blocks can follow:
# the block levels give up after 15 blocks and the walk folds in 36 nodes
WALK_ONLY = ([(1, 0, "NE", "second"), (2, 0, "NE", "first"), (2, 0, "NE", "second"),
              (2, 1, "NE", "second")], (("R", "Q"), ("Q", "P")))


class TestBlockLevels:
    @pytest.mark.parametrize("shape", sorted(BLOCK_SHAPES))
    @pytest.mark.parametrize("pattern", sorted(BLOCK_CHAINS))
    def test_block_folds_pass_verify(self, shape, pattern):
        cells = BLOCK_SHAPES[shape]
        glyph = refine(cells)
        chain = HingedChain.cyclic(len(glyph.slots), BLOCK_CHAINS[pattern])
        fold, _ = _fold_blocks(chain, glyph, 10**6)
        assert (fold is not None) == (pattern == "Q:P/R:P")
        if fold is not None:
            assert verify_fold(chain, cells, fold)

    @pytest.mark.parametrize("shape,pattern", [
        (shape, pattern) for shape in sorted(BLOCK_SHAPES) for pattern in sorted(BLOCK_CHAINS)
        if (shape, pattern) not in SLOW_WALKS])
    def test_none_exactly_when_the_walk_finds_none(self, shape, pattern):
        cells = BLOCK_SHAPES[shape]
        slots = refine(cells).slots
        chain = HingedChain.cyclic(len(slots), BLOCK_CHAINS[pattern])
        fold = fold_chain(chain, cells, budget=10**7)
        assert (fold is None) == (_walk(chain, slots, 10**7) is None)
        if len(slots) <= 16:
            assert (fold is not None) == exhaustive_fold_exists(chain, [tuple(s) for s in slots])
        if fold is not None:
            assert verify_fold(chain, cells, fold)

    def test_matches_exhaustive_oracle_on_random_toys(self):
        # 2 or 4 edge-connected cells of a 3x3 grid with a random diagonal per
        # square, hinges repeating 1 or 2 random (exit, entry) pairs: in 100
        # draws the block levels fold (7 times only at level 2), and the walk
        # after them folds or exhausts the space
        rng = random.Random(20141016)
        outcomes = set()
        for _ in range(100):
            diagonal = {(x, y): rng.choice(("NE", "NW")) for x in range(3) for y in range(3)}
            grid = [(x, y, d, half) for (x, y), d in diagonal.items() for half in ("first", "second")]
            cells = [rng.choice(grid)]
            k = rng.choice((2, 4))
            while len(cells) < k:
                cell = rng.choice(grid)
                if cell not in cells and validate_polyabolo(cells + [cell], len(cells) + 1).ok:
                    cells.append(cell)
            pattern = [(rng.choice("RPQ"), rng.choice("RPQ")) for _ in range(rng.choice((1, 2)))]
            chain = HingedChain.cyclic(4 * k, pattern)
            glyph = refine(cells)
            blocks, _ = _fold_blocks(chain, glyph, 10**6)
            fold = fold_chain(chain, cells, budget=10**6)
            assert (fold is not None) == exhaustive_fold_exists(chain,
                                                                [tuple(s) for s in glyph.slots])
            if fold is not None:
                assert verify_fold(chain, cells, fold)
                assert blocks is None or blocks == fold
            outcomes.add((blocks is not None, fold is not None))
        assert outcomes == {(True, True), (False, True), (False, False)}

    def test_matches_plain_block_search_on_random_glyphs(self):
        # about half of the 60 draws fold; in about half the cuts skip
        # blocks that a look at the cells beside the pair alone would place
        folded = 0
        for cells, chain in random_block_glyphs():
            glyph = refine(cells)
            fold, _ = _fold_blocks(chain, glyph, 10**6)
            want = plain_block_fold(chain, cells, [tuple(s) for s in glyph.slots])
            assert (None if fold is None else as_pieces(glyph.slots, fold)) == want, (
                cells, chain.hinges[:2])
            folded += fold is not None
        assert 20 <= folded <= 40

    def test_cut_from_the_parent_matches_the_whole_set(self, shipped, monkeypatch):
        # `_fillable` checks each new free set from its parent's, around the
        # pair just placed; the oracle checks the whole set, and the parent
        # must pass it, as the incremental check assumes
        calls, check = [], hinged._fillable

        def recorded(meets, partners, free, removed):
            answer = check(meets, partners, free, removed)
            calls.append((meets, partners, free, removed, answer))
            return answer

        monkeypatch.setattr(hinged, "_fillable", recorded)
        chain = shipped["hinged"].chain
        cases = [(chain, refine(cells, 32)) for cells in shipped_targets(shipped).values()]
        cases += [(chain, refine(cells)) for cells, chain in random_block_glyphs()]
        cases += [(HingedChain.cyclic(4 * len(BLOCK_SHAPES[shape]), BLOCK_CHAINS[pattern]),
                   refine(BLOCK_SHAPES[shape]))
                  for shape in sorted(BLOCK_SHAPES) for pattern in sorted(BLOCK_CHAINS)]
        outcomes = set()
        for chain, glyph in cases:
            calls.clear()
            _fold_blocks(chain, glyph, 10**6)
            for meets, partners, free, removed, answer in calls:
                assert meets is glyph.meets and partners in (glyph.edges, glyph.meets)
                a, b = (i for i in range(len(meets)) if removed >> i & 1)
                assert not free & removed and partners[a] >> b & 1
                assert fillable_from_scratch(meets, partners, free | removed)
                assert answer == fillable_from_scratch(meets, partners, free), (
                    glyph.cells, free, removed)
                outcomes.add((partners is meets, answer))
        assert outcomes == {(False, False), (False, True), (True, False), (True, True)}

    def test_level_1_blocks_may_meet_at_a_shared_vertex_only(self):
        # an L of three squares, folded at level 1 corner square first: the
        # two squares left free share only the point (1, 1), where the second
        # block hands over to the third, so a cut that asked the free cells
        # to share edges would lose this fold
        cells = [(0, 0, "NE", h) for h in HALVES] + [(1, 0, "NW", h) for h in HALVES] + [
            (0, 1, "NE", h) for h in HALVES]
        chain = HingedChain.cyclic(24, (("P", "Q"), ("R", "P")))
        glyph = refine(cells)
        fold, nodes = _fold_blocks(chain, glyph, 10**6)
        assert as_pieces(glyph.slots, fold) == plain_block_fold(chain, cells,
                                                                [tuple(s) for s in glyph.slots])
        assert verify_fold(chain, cells, fold)
        with pytest.raises(BudgetExceeded, match="at block level 1, placing block 2"):
            _fold_blocks(chain, glyph, nodes - 1)

    def test_walk_folds_where_blocks_cannot_on_one_budget(self):
        cells, pattern = WALK_ONLY
        glyph = refine(cells)
        slots = glyph.slots
        chain = HingedChain.cyclic(16, pattern)
        assert _fold_blocks(chain, glyph, 10**6) == (None, 15)
        assert exhaustive_fold_exists(chain, [tuple(s) for s in slots])
        fold = fold_chain(chain, cells, budget=15 + 36)
        assert fold == _walk(chain, slots, 36) and verify_fold(chain, cells, fold)
        with pytest.raises(BudgetExceeded):
            fold_chain(chain, cells, budget=15 + 35)

    @pytest.mark.parametrize("case", ["blocks fold", "walk folds", "walk exhausts",
                                      "blocks run out", "walk runs out"])
    def test_search_leaves_no_cycle_for_the_collector(self, case):
        # each search's closure refers to itself, so a stage that does not
        # break that cycle on its way out leaves its tables to the collector
        cells, pattern = WALK_ONLY
        chain, budget = HingedChain.cyclic(16, pattern), 10**6
        if case == "blocks fold":
            chain, cells = alt_chain(16), square_cells(2, 1)
        elif case == "walk exhausts":
            chain, cells = HingedChain.cyclic(16, [("R", "P")]), square_cells(2, 1)
        elif case == "blocks run out":
            budget = 10
        elif case == "walk runs out":
            budget = 15 + 30
        gc.collect()
        gc.disable()
        try:
            try:
                fold_chain(chain, cells, budget=budget)
            except BudgetExceeded:
                assert case in ("blocks run out", "walk runs out")
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0, f"{found} objects in reference cycles after the fold"

    @pytest.mark.parametrize("budget,where", [
        # the block levels of WALK_ONLY spend 15 nodes, none of them at level 1
        (10, "at block level 2, placing block 0 (pieces 0-7)"),
        (15 + 30, "in the piece-by-piece walk, 15 of them spent on block levels"),
    ], ids=["blocks run out", "walk runs out"])
    def test_budget_message_says_where_it_ran_out(self, budget, where):
        cells, pattern = WALK_ONLY
        with pytest.raises(BudgetExceeded) as err:
            fold_chain(HingedChain.cyclic(16, pattern), cells, budget=budget)
        assert str(err.value) == f"fold search exceeded {budget} nodes {where}"

    def test_chain_not_in_blocks_of_8_skips_the_block_levels(self, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a 12-piece chain went to the block levels")
        monkeypatch.setattr(hinged, "_fold_blocks", no_blocks)
        cells = [(0, 0, "NE", "first"), (0, 0, "NE", "second"), (1, 0, "NE", "first")]
        chain = alt_chain(12)
        fold = fold_chain(chain, cells)
        slots = refine(cells).slots
        assert exhaustive_fold_exists(chain, [tuple(s) for s in slots])
        assert fold == _walk(chain, slots, DEFAULT_BUDGET)
        assert verify_fold(chain, cells, fold)

    @pytest.mark.parametrize("target,budget", [
        ("square", 40), ("F", 1_734), ("I", 38), ("L", 38), ("N", 490), ("O", 38),
        ("T", 42), ("U", 41), ("Z", 641),
    ])
    def test_smallest_folding_budget(self, shipped, target, budget):
        # the block levels fold every target, N and Z only at level 2; each
        # block placed is one node
        fd = shipped["hinged"]
        cells = FULL_SQUARE_4 if target == "square" else fd.glyphs[target]
        fold = fold_chain(fd.chain, cells, budget=budget, expected_cells=32)
        assert verify_fold(fd.chain, cells, fold, expected_cells=32)
        with pytest.raises(BudgetExceeded):
            fold_chain(fd.chain, cells, budget=budget - 1, expected_cells=32)

    @pytest.mark.parametrize("once", [iter, lambda cells: (c for c in cells)], ids=["iterator", "generator"])
    def test_cells_read_once(self, shipped, once):
        # refine and the block levels both need the cells, so an iterator
        # folds as the list does, at the same smallest budget
        fd = shipped["hinged"]
        cells = fd.glyphs["F"]
        want = fold_chain(fd.chain, cells, budget=1_734, expected_cells=32)
        assert fold_chain(fd.chain, once(cells), budget=1_734, expected_cells=32) == want
        with pytest.raises(BudgetExceeded):
            fold_chain(fd.chain, once(cells), budget=1_733, expected_cells=32)


def block_shape(chain, j):
    """Block j's shape as `_block_table` keys it: its 7 inner hinges as
    (exit, entry) corner indices, its entry and its exit corner index."""
    hinges = [(CORNERS.index(ex), CORNERS.index(en)) for ex, en in chain.hinges]
    m = chain.n_pieces // 8
    return (tuple(hinges[8 * j:8 * j + 7]), hinges[8 * j - 1][1] if j else None,
            hinges[8 * j + 7][0] if j + 1 < m else None)


def kernel_listing(chain, slots, a, b, j, entry_point):
    """`_block_table` for block j in cells a and b (a first in cell order), mapped
    onto the glyph as the oracle lists it: [(exit point, placements)]."""
    pair = (a.diagonal, a.half, b.diagonal, b.half, b.sx - a.sx, b.sy - a.sy)
    entry = None if entry_point is None else (entry_point[0] - a.sx, entry_point[1] - a.sy)
    local = [(slots.index(s), corners) for cell in (a, b) for s in _cell_slots(cell)
             for corners in _poses(s)]
    return [(None if end is None else (end[0] + a.sx, end[1] + a.sy),
             tuple(local[i] for i in path))
            for end, path in _block_table(pair, block_shape(chain, j), entry)]


def assert_tables_match_the_oracle(chain, cells):
    """Every meeting cell pair, block shape and entry point of the glyph."""
    glyph = refine(cells)
    slots, cell_list = glyph.slots, glyph.cells
    points = [tuple(s) for s in slots]
    shapes = [block_shape(chain, j) for j in range(chain.n_pieces // 8)]
    firsts = [j for j, shape in enumerate(shapes) if shapes.index(shape) == j]
    for a, b in itertools.combinations(cell_list, 2):
        if not set(cell_vertices(a)) & set(cell_vertices(b)):
            continue
        own = cell_placements(a, points) + cell_placements(b, points)
        entries = sorted({v for _, corners in own for v in corners})
        for j in firsts:
            for entry_point in entries if j else [None]:
                assert (kernel_listing(chain, slots, a, b, j, entry_point)
                        == block_folds(chain, j, own, entry_point)), (a, b, j, entry_point)


def random_block_glyphs():
    """60 seeded (cells, chain) draws.

    6 to 12 edge-connected cells of a 4x4 grid with a random diagonal per
    square, grown half the time by the other half of a square already in;
    3 in 4 chains alternate a random hinge between acute corners with a
    random one at a right angle, the rest repeat 1 or 2 random (exit, entry)
    pairs.
    """
    rng = random.Random(20141017)
    acute = [(a, b) for a in "PQ" for b in "PQ"]
    right = [("R", "P"), ("R", "Q"), ("P", "R"), ("Q", "R")]
    for _ in range(60):
        diagonal = {(x, y): rng.choice(("NE", "NW")) for x in range(4) for y in range(4)}
        grid = [(x, y, d, half) for (x, y), d in diagonal.items() for half in ("first", "second")]
        k = rng.choice((6, 8, 10, 12))
        cells = [rng.choice(grid)]
        while len(cells) < k:
            x, y, d, half = rng.choice(cells)
            cell = ((x, y, d, "second" if half == "first" else "first") if rng.random() < 0.5
                    else rng.choice(grid))
            if cell not in cells and validate_polyabolo(cells + [cell], len(cells) + 1).ok:
                cells.append(cell)
        if rng.random() < 0.75:
            pattern = [rng.choice(acute), rng.choice(right)]
        else:
            pattern = [(rng.choice("RPQ"), rng.choice("RPQ")) for _ in range(rng.choice((1, 2)))]
        yield cells, HingedChain.cyclic(4 * k, pattern)


class TestBlockTable:
    """`_block_table` keys a block's folds into a cell pair by shapes only, so
    one table serves every pair of that shape in every glyph."""

    def test_matches_the_oracle_on_shipped_targets(self, shipped):
        for cells in shipped_targets(shipped).values():
            assert_tables_match_the_oracle(shipped["hinged"].chain, cells)

    def test_matches_the_oracle_on_random_glyphs(self):
        draws = list(random_block_glyphs())
        assert len(draws) == 60
        for cells, chain in draws:
            assert_tables_match_the_oracle(chain, cells)

    def test_targets_share_tables(self, shipped):
        # a pass over the nine targets looks up a table for each free pair
        # it tries, 1,450 lookups of fewer than 100 shapes (92 builds); a
        # second pass, and a glyph moved elsewhere, build none
        chain, targets = shipped["hinged"].chain, shipped_targets(shipped)
        _block_table.cache_clear()
        for cells in targets.values():
            fold_chain(chain, cells, budget=10**6, expected_cells=32)
        first = _block_table.cache_info()
        assert first.hits + first.misses == 1450
        assert first.currsize <= 100
        for cells in [*targets.values(), moved(targets["F"], -7, 12), moved(targets["Z"], 40, -3)]:
            fold_chain(chain, cells, budget=10**6, expected_cells=32)
        assert _block_table.cache_info().currsize == first.currsize

    def test_translated_targets_fold_the_same(self, shipped):
        # the same pieces in the same slots, found with the same nodes: the
        # untranslated count is the target's pin in TestBlockLevels
        chain = shipped["hinged"].chain
        rng = random.Random(20141019)
        for name, cells in shipped_targets(shipped).items():
            glyph = refine(cells, 32)
            fold, nodes = _fold_blocks(chain, glyph, 10**6)
            xs, ys = [c[0] for c in cells], [c[1] for c in cells]
            offsets = [(rng.randint(-99, 99), rng.randint(-99, 99)),
                       (rng.randint(-2 ** 50, 2 ** 50), rng.randint(-2 ** 50, 2 ** 50)),
                       (COORD_LIMIT - 1 - max(xs), -(COORD_LIMIT - 1) - min(ys)),
                       (-(COORD_LIMIT - 1) - min(xs), COORD_LIMIT - 1 - max(ys))]
            for dx, dy in offsets:
                there = moved(cells, dx, dy)
                got = fold_chain(chain, there, budget=nodes, expected_cells=32)
                assert as_pieces(refine(there, 32).slots, got) == tuple(
                    (i, tuple((x + dx, y + dy) for x, y in corners))
                    for i, corners in as_pieces(glyph.slots, fold)), (name, dx, dy)
                assert verify_fold(chain, there, got, expected_cells=32)
                with pytest.raises(BudgetExceeded):
                    fold_chain(chain, there, budget=nodes - 1, expected_cells=32)


def _connected_pair(rng, near, n):
    """A seeded (free, removed) pair of slot masks whose union is connected."""
    if rng.random() < 0.25:
        union = (1 << n) - 1
    else:  # grow from one slot by random slots on the border
        i = rng.randrange(n)
        union, border = 1 << i, near[i]
        for _ in range(rng.randrange(8, n)):
            i = rng.choice([j for j in range(n) if border >> j & 1])
            union |= 1 << i
            border = (border | near[i]) & ~union
    members = [i for i in range(n) if union >> i & 1]
    count = rng.randint(1, 8)
    if rng.random() < 0.5:
        removed = 0
        for i in rng.sample(members, count):
            removed |= 1 << i
    else:  # a walk through touching slots, like the chain's placements
        i = rng.choice(members)
        removed = 1 << i
        for _ in range(count - 1):
            steps = [j for j in members if near[i] >> j & 1 and not removed >> j & 1]
            if not steps:
                break
            i = rng.choice(steps)
            removed |= 1 << i
    return union & ~removed, removed


def test_local_connectivity_check_matches_full_flood(shipped):
    targets = [FULL_SQUARE_4] + [cells for _, cells in sorted(shipped["hinged"].glyphs.items())]
    rng = random.Random(20140)
    outcomes = set()
    for cells in targets:
        slots = refine(cells, 32).slots
        points = [tuple(s) for s in slots]
        near = contact_masks(slots)
        for _ in range(60):
            free, removed = _connected_pair(rng, near, len(slots))
            members = {i for i in range(len(slots)) if free >> i & 1}
            assert slots_connected(points, members | {i for i in range(len(slots))
                                                      if removed >> i & 1})
            want = slots_connected(points, members)
            assert stays_connected(near, free, removed) == want, (cells[0], free, removed)
            outcomes.add(want)
    assert outcomes == {True, False}


def mutations(fold, rng):
    """Seeded broken copies of a fold: two pieces swapped, a pose flipped, the
    fold cut short, a slot repeated with the same or the other pose."""
    n = len(fold)
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        swapped = list(fold)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield tuple(swapped)
        yield fold[:i] + (fold[i] ^ 1,) + fold[i + 1:]
        yield fold[:i]
        yield fold[:j] + (fold[i] ^ rng.randrange(2),) + fold[j + 1:]


class TestVerifyFold:
    @pytest.mark.parametrize("case", ["127 numbers", "float", "None", "-1", "2n", "repeated slot",
                                      "swapped pieces", "flipped pose"])
    def test_malformed_fold_is_false(self, case):
        # each entry a number 2 * slot + pose, each slot once, every hinge kept
        chain = alt_chain(128)
        fold = list(fold_chain(chain, FULL_SQUARE_4, expected_cells=32))
        assert verify_fold(chain, FULL_SQUARE_4, tuple(fold), expected_cells=32)
        if case == "127 numbers":
            fold.pop()
        elif case == "float":
            fold[0] = float(fold[0])
        elif case == "None":
            fold[0] = None
        elif case == "-1":
            fold[0] = -1
        elif case == "2n":
            fold[0] = 2 * 128
        elif case == "repeated slot":  # the other pose of piece 0's slot
            fold[1] = fold[0] ^ 1
        elif case == "swapped pieces":
            fold[2], fold[5] = fold[5], fold[2]
        else:
            fold[3] ^= 1
        assert verify_fold(chain, FULL_SQUARE_4, tuple(fold), expected_cells=32) is False

    def test_matches_the_oracle_on_broken_folds(self, shipped):
        # 912 broken copies of the nine shipped folds and of the 29 block
        # folds of the random glyphs; one of them is still a valid fold
        rng = random.Random(20141020)
        chain = shipped["hinged"].chain
        cases = [(chain, cells, fold_chain(chain, cells, budget=10**6, expected_cells=32))
                 for cells in shipped_targets(shipped).values()]
        cases += [(chain, cells, _fold_blocks(chain, refine(cells), 10**6)[0])
                  for cells, chain in random_block_glyphs()]
        outcomes = set()
        for chain, cells, fold in cases:
            if fold is None:
                continue
            slots = refine(cells).slots
            points = [tuple(s) for s in slots]
            for broken in (fold, *mutations(fold, rng)):
                want = fold_is_valid(chain, points, as_pieces(slots, broken))
                assert verify_fold(chain, cells, broken) == want, (cells[0], broken)
                outcomes.add(want)
        assert outcomes == {True, False}


class TestShippedGlyphs:
    def test_every_glyph_32_cells_area_16(self, shipped):
        for ch, cells in sorted(shipped["hinged"].glyphs.items()):
            rep = validate_polyabolo(cells, 32)
            assert rep.ok, (ch, rep)
            assert rep.area == 16.0

    def test_chain_is_128_alternating(self, shipped):
        chain = shipped["hinged"].chain
        assert chain.n_pieces == 128
        assert chain.hinges[0] == ("Q", "P") and chain.hinges[1] == ("R", "P")


class TestRendering:
    def test_chain_strip_has_pieces_and_hinges(self):
        scene = render_chain_strip(alt_chain(8))
        assert {"piece", "hinge"} <= scene.style_classes()

    def test_fold_rendering(self):
        chain = alt_chain(8)
        fold = fold_chain(chain, TWO_CELL)
        scene = render_fold(chain, TWO_CELL, fold)
        assert {"piece", "chain", "hinge"} <= scene.style_classes()

    def test_fold_drawing_checks_each_cell_once(self, shipped, monkeypatch):
        # render_fold draws the cells its refine checked, as render_polyabolo
        # draws them
        chain, cells = shipped["hinged"].chain, shipped["hinged"].glyphs["F"]
        fold = fold_chain(chain, cells, budget=10**6, expected_cells=32)
        calls = []
        monkeypatch.setattr(hinged, "check_cell",
                            lambda cell, real=hinged.check_cell: calls.append(cell) or real(cell))
        scene = render_fold(chain, cells, fold)
        assert len(calls) == 32
        pieces = [p for p in scene.primitives if p.style == "piece"]
        assert pieces == render_polyabolo(cells).primitives

    def test_polyabolo_rendering(self):
        assert render_polyabolo(TWO_CELL).style_classes() == {"piece"}
