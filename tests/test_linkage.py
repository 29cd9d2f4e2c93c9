import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puzzlefonts.errors import AmbiguousSolution, NoSolution, NotAChain, UnknownLetter
from puzzlefonts.geometry import Point2, dist
from puzzlefonts.linkage import (
    LEFT, RIGHT, LinkageFont, all_choices, enumerate_glyphs,
    interior_angles, realize, spread_overlapping_bars,
)

PAPER_SEQUENCES = {
    "F": (90.0, 0.0, 90.0, 90.0, 0.0),
    "U": (0.0, 180.0, 90.0, 90.0, 180.0),
    "N": (180.0, 30.0, 180.0, 30.0, 180.0),
}


@pytest.fixture()
def fun_font():
    return LinkageFont({k: list(v) for k, v in PAPER_SEQUENCES.items()})


class TestEncode:
    @pytest.mark.parametrize("letter,seq", sorted(PAPER_SEQUENCES.items()))
    def test_published_sequences(self, fun_font, letter, seq):
        assert fun_font.encode(letter) == seq

    def test_unknown_letter(self, fun_font):
        with pytest.raises(UnknownLetter):
            fun_font.encode("@")


class TestRealize:
    def test_straight_chain(self):
        g = realize([180] * 5, "LLLLL", origin=(0, 0), heading=0.0)
        assert g.vertices == tuple(Point2(float(i), 0.0) for i in range(7))

    def test_unit_bars(self):
        g = realize([90, 30, 150, 10, 350], "LRLRL")
        for i in range(6):
            assert dist(g.vertices[i], g.vertices[i + 1]) == pytest.approx(1.0, abs=1e-12)

    def test_angles_recovered_for_n(self):
        g = realize(PAPER_SEQUENCES["N"], "LLLLL")
        measured = interior_angles(g.vertices)
        assert measured == pytest.approx([180, 30, 180, 30, 180], abs=1e-9)

    def test_flipped_choices_mirror(self):
        seq = PAPER_SEQUENCES["F"]
        g = realize(seq, "LRLLR")
        m = realize(seq, "RLRRL")
        mirrored = [Point2(p.x, -p.y) for p in m.vertices]
        for a, b in zip(g.vertices, mirrored):
            assert dist(a, b) < 1e-9

    def test_pose(self):
        g = realize([180] * 5, "LLLLL", origin=(2, 3), heading=90.0)
        assert g.vertices[0] == pytest.approx((2.0, 3.0))
        assert g.vertices[6] == pytest.approx((2.0, 9.0))

    @given(st.lists(st.floats(0, 360, allow_nan=False), min_size=5, max_size=5),
           st.lists(st.sampled_from([LEFT, RIGHT]), min_size=5, max_size=5))
    @settings(max_examples=200)
    def test_realize_measure_roundtrip(self, seq, choices):
        g = realize(seq, choices)
        measured = interior_angles(g.vertices)
        for m, a in zip(measured, seq):
            folded = min(a, 360.0 - a)
            assert abs(m - folded) < 1e-6


class TestEnumerate:
    def test_generic_sequence_yields_32(self):
        assert len(enumerate_glyphs([30, 60, 100, 140, 170])) == 32

    def test_all_straight_yields_1(self):
        assert len(enumerate_glyphs([180] * 5)) == 1

    @staticmethod
    def _brute_force_count(seq):
        """All-pairs comparison with its own alignment math, no library reuse."""
        def canon(verts):
            x0, y0 = verts[0]
            moved = [(x - x0, y - y0) for x, y in verts]
            ang = math.atan2(moved[1][1], moved[1][0])
            c, s = math.cos(-ang), math.sin(-ang)
            return [(c * x - s * y, s * x + c * y) for x, y in moved]

        def same(a, b):
            return all(math.hypot(p[0] - q[0], p[1] - q[1]) < 1e-7 for p, q in zip(a, b))

        realized = [canon(realize(seq, ch).vertices) for ch in all_choices()]
        reversed_canon = [canon(list(reversed(realize(seq, ch).vertices)))
                          for ch in all_choices()]
        distinct = []
        for i, g in enumerate(realized):
            if not any(same(g, realized[j]) or same(g, reversed_canon[j]) for j in distinct):
                distinct.append(i)
        return len(distinct)

    @pytest.mark.parametrize("seq,expected", [
        (PAPER_SEQUENCES["F"], 8),      # two 0-degree joints are choice-free
        (PAPER_SEQUENCES["N"], 3),      # palindromic: reversal merges a pair
        ((30, 60, 100, 140, 170), 32),  # generic
    ])
    def test_counts_match_bruteforce(self, seq, expected):
        assert len(enumerate_glyphs(seq)) == self._brute_force_count(seq) == expected

    def test_zero_angle_choice_has_no_effect(self):
        seq = [90, 0, 90, 90, 0]
        base = ["L"] * 5
        flip2 = list(base)
        flip2[1] = RIGHT
        g1 = realize(seq, base)
        g2 = realize(seq, flip2)
        assert all(dist(a, b) < 1e-12 for a, b in zip(g1.vertices, g2.vertices))


class TestDecode:
    def test_roundtrip_all_choices(self, fun_font):
        for letter in PAPER_SEQUENCES:
            for ch in all_choices():
                g = realize(fun_font.encode(letter), ch)
                assert fun_font.decode(g) == letter

    def test_reversed_chain_decodes(self, fun_font):
        g = realize(fun_font.encode("F"), "LLRLR")
        rev = type(g)(tuple(reversed(g.vertices)))
        assert fun_font.decode(rev) == "F"

    def test_straight_chain_no_match(self, fun_font):
        g = realize([180] * 5, "LLLLL")
        with pytest.raises(NoSolution):
            fun_font.decode(g)

    def test_not_a_chain(self, fun_font):
        with pytest.raises(NotAChain):
            fun_font.decode([(0, 0)] * 7)
        with pytest.raises(NotAChain):
            fun_font.decode([(i, 0) for i in range(6)])

    def test_ambiguous_match_flags_bad_data(self):
        font = LinkageFont({"A": [90, 90, 90, 90, 90]})
        font.sequences["B"] = font.sequences["A"]  # corrupt on purpose
        g = realize([90, 90, 90, 90, 90], "LLLLL")
        with pytest.raises(AmbiguousSolution):
            font.decode(g)


class TestRandomPuzzle:
    def test_deterministic(self, fun_font):
        a = fun_font.random_puzzle_glyph("F", 0)
        b = fun_font.random_puzzle_glyph("F", 0)
        assert a.vertices == b.vertices

    def test_different_seeds_still_decode(self, fun_font):
        for seed in (0, 1, 2, 17):
            g = fun_font.random_puzzle_glyph("F", seed)
            assert fun_font.decode(g) == "F"

    def test_unknown_letter(self, fun_font):
        with pytest.raises(UnknownLetter):
            fun_font.random_puzzle_glyph("@", 0)


class TestUniqueness:
    def test_shipped_alphabet(self, shipped):
        from puzzlefonts.typeset import linkage_font_of
        font = linkage_font_of(shipped["linkage"])
        assert font.uniqueness_failures() == []

    def test_detects_reversal_collision(self):
        font = LinkageFont({"A": [10, 20, 30, 40, 50], "B": [50, 40, 30, 20, 10]})
        assert font.uniqueness_failures() == [("A", "B")]

    def test_flags_what_decode_cannot_tell_apart(self):
        # B folds to A (270 measures as 90), C is A reversed within ANGLE_ATOL
        font = LinkageFont({"A": [90, 120, 90, 150, 60], "B": [270, 120, 90, 150, 60],
                            "C": [60, 150, 90, 120, 90.0000001]})
        assert font.uniqueness_failures() == [("A", "B"), ("A", "C"), ("B", "C")]
        for letter in "ABC":
            with pytest.raises(AmbiguousSolution):
                font.decode(font.random_puzzle_glyph(letter, 0))


def test_spread_overlapping_bars_offsets_duplicates():
    g = realize([0, 180, 180, 180, 180], "LLLLL")  # bar 2 doubles back over bar 1
    bars = spread_overlapping_bars(g.vertices, offset=0.06)
    assert len(bars) == 6
    # the doubled bar is drawn displaced, the original in place
    d = min(math.hypot(bars[1][0].x - bars[0][0].x, bars[1][0].y - bars[0][0].y),
            math.hypot(bars[1][0].x - bars[0][1].x, bars[1][0].y - bars[0][1].y))
    assert d > 0.05
