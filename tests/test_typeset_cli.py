import hashlib
import json
import math
import random
import re
import subprocess
import sys

import pytest

from oracles import copied_layout
from test_golden import RENDER, SCALED_RENDER, SOLUTION_SHEET, TEXT
from puzzlefonts import fontdata, scene
from puzzlefonts.cli import main
from puzzlefonts.errors import NotAChain, UnknownCharacter
from puzzlefonts.scene import SvgConfig, emit_svg
from puzzlefonts.typeset import (
    MAX_PUZZLE_GLYPHS, AmbiguousSolution, NoSolution, _position_key, solve_puzzle, typeset,
)


class TestTypeset:
    def test_deterministic_bytes(self, shipped):
        a = emit_svg(typeset(shipped["linkage"], "FUN", "puzzle", seed=7).scene, SvgConfig())
        b = emit_svg(typeset(shipped["linkage"], "FUN", "puzzle", seed=7).scene, SvgConfig())
        assert a.encode() == b.encode()

    def test_seed_changes_linkage_puzzle(self, shipped):
        a = emit_svg(typeset(shipped["linkage"], "FUN", "puzzle", seed=0).scene, SvgConfig())
        b = emit_svg(typeset(shipped["linkage"], "FUN", "puzzle", seed=1).scene, SvgConfig())
        assert a != b

    def test_unknown_character(self, shipped):
        with pytest.raises(UnknownCharacter) as err:
            typeset(shipped["conveyer"], "F@N", "solved")
        assert err.value.chars == ["@"]

    def test_conveyer_solved_vs_puzzle_content(self, shipped):
        solved = typeset(shipped["conveyer"], "FUN", "solved").scene
        puzzle = typeset(shipped["conveyer"], "FUN", "puzzle").scene
        assert "belt" in solved.style_classes()
        assert "disk" in solved.style_classes()
        assert puzzle.style_classes() == {"disk"}

    def test_puzzle_data_emitted_only_for_machine_fonts(self, shipped):
        assert typeset(shipped["conveyer"], "FUN", "puzzle").puzzle_data is not None
        assert typeset(shipped["linkage"], "FUN", "puzzle", seed=3).puzzle_data is not None
        assert typeset(shipped["cane"], "FUN", "puzzle").puzzle_data is None
        assert typeset(shipped["conveyer"], "FUN", "solved").puzzle_data is None

    def test_linkage_puzzle_glyph_realized_once(self, shipped, monkeypatch):
        from puzzlefonts import linkage
        realized = []
        real = linkage.realize
        monkeypatch.setattr(linkage, "realize",
                            lambda *args, **kwargs: realized.append(args) or real(*args, **kwargs))
        typeset(shipped["linkage"], "FUN", "puzzle", seed=7)
        assert len(realized) == 3

    def test_hinged_puzzle_strip_built_once_per_text(self, shipped, monkeypatch):
        # every letter's puzzle is the same chain, so one strip serves the text
        from puzzlefonts import hinged
        built = []
        real = hinged.render_chain_strip
        monkeypatch.setattr(hinged, "render_chain_strip", lambda chain: built.append(chain) or real(chain))
        typeset(shipped["hinged"], "FILNOTUZ", "puzzle")
        assert len(built) == 1

    def test_cane_side_view_built_once_per_distinct_letter(self, shipped, monkeypatch):
        from puzzlefonts import cane
        built = []
        real = cane.render_side
        monkeypatch.setattr(cane, "render_side", lambda *args: built.append(args) or real(*args))
        typeset(shipped["cane"], "FIFTIFZZ", "puzzle")
        assert len(built) == 4

    @pytest.mark.parametrize("font, variant, boxed", [
        (font, variant, {("linkage", "puzzle"): 8, ("maze", "puzzle"): 1,
                         ("hinged", "puzzle"): 1}.get((font, variant), 4))
        for font in fontdata.FONT_IDS for variant in ("solved", "puzzle")])
    def test_each_distinct_glyph_scene_boxed_once(self, shipped, monkeypatch, font, variant, boxed):
        # a linkage puzzle draws each position afresh; a maze puzzle is one
        # glued sheet, and a hinged puzzle one chain for every letter
        runs = []
        real = scene._keep
        monkeypatch.setattr(scene, "_keep", lambda run: runs.append(run) or real(run))
        sheet = typeset(shipped[font], "FIFTIFZZ", variant, seed=5).scene
        emit_svg(sheet)  # boxed from what layout kept
        assert len(runs) == boxed
        pieces = list(fontdata.kind_of(font).render(shipped[font], "FIFTIFZZ", variant, 5))
        assert len({id(piece) for piece, _ in pieces}) == boxed

    @pytest.mark.parametrize("font", fontdata.FONT_IDS)
    @pytest.mark.parametrize("variant", ["solved", "puzzle"])
    def test_kept_boxes_match_copied_primitives_bit_for_bit(self, shipped, font, variant):
        # a laid-out scene is boxed from the group boxes that layout kept; a
        # scaled one is boxed afresh
        rng = random.Random(f"kept:{font}:{variant}")
        lengths = iter([1, 16, 9, 4, 12, 2, 16, 7, 13])
        for spacing in (0.1, 0.5, 2.0):
            for scale in (1.0, 0.5, 2.0):
                text = "".join(rng.choice("FILNOTUZ") for _ in range(next(lengths)))
                seed = rng.randrange(2 ** 31)
                got = typeset(shipped[font], text, variant, seed, spacing, scale).scene
                glyphs = [s for s, _ in fontdata.kind_of(font).render(shipped[font], text, variant, seed)]
                want = copied_layout(glyphs, spacing, scale)
                assert [v.hex() for v in got.bounds()] == [v.hex() for v in want.bounds()], \
                    (text, spacing, scale)

    def test_kept_boxes_stay_right_after_more_is_added(self, shipped):
        def copied(s):
            return scene.VectorScene([p.mapped(1.0, dx, dy) for dx, dy, run in s.runs() for p in run])

        sheet = typeset(shipped["cane"], "FIFZ", "puzzle").scene
        min_x, min_y, max_x, max_y = sheet.bounds()
        sheet.add_polyline([(max_x + 1.0, max_y + 2.0), (max_x + 3.0, min_y - 1.0)], "guide")
        assert sheet.bounds() == copied(sheet).bounds() == (min_x, min_y - 1.0, max_x + 3.0, max_y + 2.0)
        more = typeset(shipped["conveyer"], "UNU", "solved").scene.translated(-50.0, 7.5)
        sheet.extend(more)
        sheet.add_circle((0.0, -20.0), 0.5, "guide")
        sheet.extend(more.translated(0.25, 0.0))
        assert sheet.bounds() == copied(sheet).bounds()
        assert sheet.bounds()[0] < min_x - 40.0 and sheet.bounds()[1] == -20.5
        assert emit_svg(sheet) == emit_svg(copied(sheet))

    def test_maze_puzzle_composes_single_sheet(self, shipped):
        scene = typeset(shipped["maze"], "FUN", "puzzle").scene
        # one composed boundary rectangle, not three spaced glyphs
        boundaries = [p for p in scene.primitives if p.style == "boundary"]
        assert len(boundaries) == 1

    def test_spacing_scales_gap(self, shipped):
        tight = typeset(shipped["cane"], "II", "solved", spacing=0.1).scene
        loose = typeset(shipped["cane"], "II", "solved", spacing=2.0).scene
        assert loose.bounds()[2] > tight.bounds()[2]

    def test_scale_applies(self, shipped):
        base = typeset(shipped["cane"], "I", "solved", scale=1.0).scene
        doubled = typeset(shipped["cane"], "I", "solved", scale=2.0).scene
        assert doubled.bounds()[2] == pytest.approx(2 * base.bounds()[2])

    @pytest.mark.parametrize("font", fontdata.FONT_IDS)
    @pytest.mark.parametrize("variant", ["solved", "puzzle"])
    def test_layout_matches_copied_primitives(self, shipped, font, variant, full_precision):
        rng = random.Random(f"{font}:{variant}")
        for spacing in (0.1, 0.5, 2.0):
            for scale in (0.5, 1.0, 2.0):
                text = "".join(rng.choice("FILNOTUZ") for _ in range(rng.randint(1, 4)))
                seed = rng.randrange(2 ** 31)
                got = typeset(shipped[font], text, variant, seed, spacing, scale).scene
                glyphs = [s for s, _ in fontdata.kind_of(font).render(shipped[font], text, variant, seed)]
                want = copied_layout(glyphs, spacing, scale)
                assert got.bounds() == want.bounds(), (text, spacing, scale)
                svg = emit_svg(got)
                assert svg == emit_svg(want), (text, spacing, scale)
                # the patch reached the points: 6 decimals would be the unpatched format
                has_points = any(isinstance(p, scene.Polyline) for p in got.primitives)
                assert any(len(d) != 6 for d in full_precision(svg)) == has_points

    @pytest.mark.parametrize("scale,spacing", [
        (-1.0, 0.5), (0.0, 0.5), (math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan), (1.0, math.inf),
    ])
    def test_bad_scale_or_spacing_is_refused(self, shipped, scale, spacing):
        with pytest.raises(ValueError, match="scale must be finite and > 0|spacing must be finite"):
            typeset(shipped["conveyer"], "FUN", "solved", spacing=spacing, scale=scale)

    @pytest.mark.parametrize("scale,spacing,message", [
        (1e308, 0.5, "scale 1e[+]308 maps the drawing beyond the float range"),
        (1.0, 1e308, "spacing 1e[+]308 places glyphs beyond the float range"),
        (1.0, -1e308, "spacing -1e[+]308 places glyphs beyond the float range"),
    ])
    def test_overflowing_scale_or_spacing_is_refused(self, shipped, scale, spacing, message):
        with pytest.raises(ValueError, match=message):
            typeset(shipped["conveyer"], "FUN", "solved", spacing=spacing, scale=scale)

    @pytest.mark.parametrize("scale,spacing", [
        (1e306, 0.5), (1e307, 0.5), (1e308, 0.5), (1.0, 1e306), (1.0, 1e307), (1.0, 1e308),
        (1.0, -1e306), (1e-308, 0.5), (1e300, 1e5),
    ])
    def test_large_values_write_only_finite_numbers_or_fail(self, shipped, scale, spacing):
        try:
            svg = emit_svg(typeset(shipped["conveyer"], "FUN", "solved", spacing=spacing,
                                   scale=scale).scene)
        except ValueError as exc:
            assert re.search("beyond the float range|too large to write", str(exc))
        else:
            assert not re.search("inf|nan", svg)

    def test_page_past_the_float_range_is_not_written(self, shipped):
        wide = typeset(shipped["conveyer"], "FUN", "solved", spacing=1e306).scene
        with pytest.raises(ValueError, match="too large to write: page inf x"):
            emit_svg(wide)

    def test_negative_spacing_is_allowed(self, shipped):
        scene = typeset(shipped["conveyer"], "FUN", "solved", spacing=-0.5).scene
        assert "nan" not in emit_svg(scene)

    def test_position_keys_sort_in_text_order(self):
        keys = [_position_key(pos) for pos in range(MAX_PUZZLE_GLYPHS)]
        assert keys[:36] == list("0123456789abcdefghijklmnopqrstuvwxyz")
        assert sorted(keys) == keys and len(set(keys)) == len(keys)
        assert all(len(k) == 1 and not k.isspace() for k in keys)
        with pytest.raises(ValueError, match=f"at most {MAX_PUZZLE_GLYPHS} glyphs"):
            _position_key(MAX_PUZZLE_GLYPHS)

    def test_placed_glyphs_are_not_copied(self, shipped, monkeypatch):
        def refuse(*args):
            raise AssertionError("a placed primitive was copied")
        monkeypatch.setattr(scene.Polyline, "mapped", refuse)
        typeset(shipped["cane"], "FILNOTUZFILNOTUZ", "puzzle", scale=1.0)


def _chain(vertices=None):
    return fontdata.LinkageRecord(angles=None if vertices else (90.0,) * 5, vertices=vertices)


def _disks(*disks):
    return fontdata.ConveyerRecord(disks=disks)


def _moved_puzzle(puzzle, offset):
    """The puzzle with every disk moved by (offset, offset)."""
    return fontdata.FontData(puzzle.font_id, puzzle.version, {
        key: _disks(*((x + offset, y + offset) for x, y in rec.disks))
        for key, rec in puzzle.glyphs.items()})


def _shifted_twin(shipped):
    """A conveyer font whose J is its I moved: one configuration, two letters."""
    rec = shipped["conveyer"].glyphs["I"]
    twin = fontdata.ConveyerRecord(disks=tuple((x + 2.0, y + 1.0) for x, y in rec.disks))
    return fontdata.FontData("conveyer", 1, {"I": rec, "J": twin}), {"0": _disks(*rec.disks)}


def _near_reversal(shipped):
    """A linkage font whose B folds to A and whose C reverses A within ANGLE_ATOL."""
    font = fontdata.FontData("linkage", 1, {
        letter: fontdata.LinkageRecord(angles=angles) for letter, angles in (
            ("A", (90, 120, 90, 150, 60)), ("B", (270, 120, 90, 150, 60)),
            ("C", (60, 150, 90, 120, 90.0000001)))})
    return font, typeset(font, "A", "puzzle", seed=3).puzzle_data.glyphs


def _first_good(font, record):
    """A puzzle whose glyph '0' reads as F and whose glyph '1' is `record`."""
    return lambda shipped: (shipped[font], {
        "0": typeset(shipped[font], "F", "puzzle").puzzle_data.glyphs["0"], "1": record})


# case: (shipped -> (font, puzzle glyphs), error type, message)
SOLVER_ERRORS = {
    "no vertex chain": (lambda shipped: (shipped["linkage"], {"0": _chain()}),
                        NoSolution, "puzzle glyph '0': has no vertex chain"),
    "garbage chain": (_first_good("linkage", _chain(tuple((i * 2.0, 0.0) for i in range(7)))),
                      NotAChain, "puzzle glyph '1': bar 0 is not unit length"),
    "straight chain": (
        lambda shipped: (shipped["linkage"], {"0": _chain(tuple((float(i), 0.0) for i in range(7)))}),
        NoSolution, "puzzle glyph '0': measured angles [180.0, 180.0, 180.0, 180.0, 180.0] "
                    "match no letter"),
    "near reversal": (_near_reversal, AmbiguousSolution,
                      "puzzle glyph '0': angles match several letters: ['A', 'B', 'C']"),
    "overlapping disks": (_first_good("conveyer", _disks((0.0, 0.0), (1.0, 0.0))),
                          NoSolution, "puzzle glyph '1': disks 0 and 1 are not disjoint"),
    "unknown configuration": (
        lambda shipped: (shipped["conveyer"], {"0": _disks((0.0, 0.0), (9.0, 9.0))}),
        NoSolution, "puzzle glyph '0': configuration matches no letter"),
    "ambiguous font": (_shifted_twin, AmbiguousSolution,
                       "puzzle glyph '0': matches letters ['I', 'J']"),
    "no belt": (lambda shipped: (shipped["conveyer"],
                                 typeset(shipped["conveyer"], "F", "puzzle").puzzle_data.glyphs),
                NoSolution, "puzzle glyph '0': no valid belt exists"),
}


class TestSolvePuzzle:
    def test_conveyer_roundtrip(self, shipped):
        result = typeset(shipped["conveyer"], "FUN", "puzzle")
        outcome = solve_puzzle(shipped["conveyer"], result.puzzle_data)
        assert outcome.text == "FUN"
        assert outcome.solution_scene is not None
        assert "belt" in outcome.solution_scene.style_classes()

    def test_linkage_roundtrip(self, shipped):
        result = typeset(shipped["linkage"], "FUN", "puzzle", seed=7)
        outcome = solve_puzzle(shipped["linkage"], result.puzzle_data)
        assert outcome.text == "FUN"

    def test_linkage_solution_sheet_is_the_solved_text(self, shipped):
        font = shipped["linkage"]
        puzzle = typeset(font, "FUN", "puzzle", seed=7).puzzle_data
        sheet = solve_puzzle(font, puzzle).solution_scene
        assert emit_svg(sheet) == emit_svg(typeset(font, "FUN").scene)

    def test_no_belt_is_no_solution(self, shipped, monkeypatch):
        from puzzlefonts import conveyer
        monkeypatch.setattr(conveyer, "iter_belts", lambda disks: iter(()))
        puzzle = typeset(shipped["conveyer"], "FUN", "puzzle").puzzle_data
        with pytest.raises(NoSolution) as err:
            solve_puzzle(shipped["conveyer"], puzzle)
        assert str(err.value) == "puzzle glyph '0': no valid belt exists"

    def test_repeated_letters_cached(self, shipped):
        result = typeset(shipped["conveyer"], "OOO", "puzzle")
        assert solve_puzzle(shipped["conveyer"], result.puzzle_data).text == "OOO"

    def test_garbage_chain_reports_glyph(self, shipped):
        from puzzlefonts.errors import NotAChain
        bad = fontdata.FontData("linkage", 1, {
            "0": fontdata.LinkageRecord(vertices=tuple((i * 2.0, 0.0) for i in range(7)))})
        with pytest.raises(NotAChain) as err:
            solve_puzzle(shipped["linkage"], bad)
        assert "'0'" in str(err.value)

    def test_unknown_configuration_is_no_solution(self, shipped):
        bad = fontdata.FontData("conveyer", 1, {
            "0": fontdata.ConveyerRecord(disks=((0.0, 0.0), (9.0, 9.0)))})
        with pytest.raises(NoSolution):
            solve_puzzle(shipped["conveyer"], bad)

    def test_no_letter_found_before_any_search(self, shipped, monkeypatch):
        from puzzlefonts import conveyer

        def no_search(*args, **kwargs):
            raise AssertionError("searched a configuration that matches no letter")

        monkeypatch.setattr(conveyer, "iter_belts", no_search)
        bad = fontdata.FontData("conveyer", 1, {
            "0": fontdata.ConveyerRecord(disks=((0.0, 0.0), (9.0, 9.0)))})
        with pytest.raises(NoSolution, match="matches no letter"):
            solve_puzzle(shipped["conveyer"], bad)

    def test_overlapping_disks_name_the_glyph(self, shipped):
        bad = fontdata.FontData("conveyer", 1, {
            "0": fontdata.ConveyerRecord(disks=((0.0, 0.0), (1.0, 0.0)))})
        with pytest.raises(NoSolution) as err:
            solve_puzzle(shipped["conveyer"], bad)
        assert str(err.value) == "puzzle glyph '0': disks 0 and 1 are not disjoint"

    @pytest.mark.parametrize("disks", [((1e308, 0.0), (-1e307, 0.0)), ((1e303, 0.0), (0.0, 0.0))])
    def test_disks_past_the_fingerprint_range_are_no_solution(self, shipped, disks):
        bad = fontdata.FontData("conveyer", 1, {"0": fontdata.ConveyerRecord(disks=disks)})
        with pytest.raises(NoSolution) as err:
            solve_puzzle(shipped["conveyer"], bad)
        assert str(err.value) == "puzzle glyph '0': disk centers are too far apart to fingerprint"

    def test_each_configuration_searched_once(self, shipped, monkeypatch):
        from puzzlefonts import conveyer
        searched = []
        real = conveyer.iter_belts
        monkeypatch.setattr(conveyer, "iter_belts",
                            lambda disks: searched.append(disks) or real(disks))
        puzzle = typeset(shipped["conveyer"], "OTO", "puzzle").puzzle_data
        assert solve_puzzle(shipped["conveyer"], puzzle).text == "OTO"
        assert len(searched) == 2

    @pytest.mark.parametrize("offset", [1e8, 1e9])
    def test_puzzle_far_from_the_origin_decodes(self, shipped, offset):
        # every conveyer check reads the set's own frame, so a moved puzzle
        # decodes like the unmoved one
        font = shipped["conveyer"]
        puzzle = typeset(font, "FILNOTUZ", "puzzle").puzzle_data
        assert solve_puzzle(font, _moved_puzzle(puzzle, offset)).text == "FILNOTUZ"

    def test_puzzle_too_far_out_to_match_is_no_solution(self, shipped):
        # at 1e10 a coordinate's ulp is past the fingerprint quantum
        font = shipped["conveyer"]
        puzzle = typeset(font, "FILNOTUZ", "puzzle").puzzle_data
        with pytest.raises(NoSolution) as err:
            solve_puzzle(font, _moved_puzzle(puzzle, 1e10))
        assert str(err.value) == "puzzle glyph '0': configuration matches no letter"

    def test_shipped_letters_searched_as_they_are(self, shipped, monkeypatch):
        # their min corner is (0, 0), so moving them there changes no bit
        from puzzlefonts import conveyer
        searched = []
        real = conveyer.iter_belts
        monkeypatch.setattr(conveyer, "iter_belts",
                            lambda disks: searched.append(disks) or real(disks))
        puzzle = typeset(shipped["conveyer"], "FILNOTUZ", "puzzle").puzzle_data
        assert solve_puzzle(shipped["conveyer"], puzzle).text == "FILNOTUZ"
        assert [repr(tuple(d)) for d in searched] == \
            [repr(tuple(rec.disks)) for _key, rec in sorted(puzzle.glyphs.items())]

    def test_disks_that_touch_in_their_frame_are_refused_alike(self, shipped):
        # 1 and 2 are 2 + TOL apart plus an ulp, and the move to the frame
        # rounds that away: the check, validation and the reader all refuse it
        from puzzlefonts.conveyer import check_disk_set
        disks = ((-0.41174908989607967, 0.0), (2.4660180792803144, 5.0), (4.466018080280315, 5.0))
        with pytest.raises(ValueError, match="^disks 1 and 2 are not disjoint$"):
            check_disk_set(disks)
        font = fontdata.FontData("conveyer", 1, {"A": fontdata.ConveyerRecord(disks=disks)})
        assert fontdata.validate(font).issues == ["glyph 'A': disks 1 and 2 are not disjoint"]
        puzzle = fontdata.FontData("conveyer", 1, {"0": fontdata.ConveyerRecord(disks=disks)})
        with pytest.raises(ValueError, match="^font glyph 'A': disks 1 and 2 are not disjoint$"):
            solve_puzzle(font, puzzle)

    def test_bad_font_glyph_is_named_not_the_puzzle(self, shipped):
        # the font's glyphs are fingerprinted in sorted order; B is never reached
        font = fontdata.FontData("conveyer", 1, {
            "A": _disks((0.0, 0.0), (1.0, 0.0)), "B": _disks((0.0, 0.0), (0.5, 0.0)),
            "I": shipped["conveyer"].glyphs["I"]})
        puzzle = typeset(shipped["conveyer"], "I", "puzzle").puzzle_data
        with pytest.raises(ValueError) as err:
            solve_puzzle(font, puzzle)
        assert str(err.value) == "font glyph 'A': disks 0 and 1 are not disjoint"

    @pytest.mark.parametrize("letter", "FILNOTUZ")
    def test_reordered_disks_same_solution_sheet(self, shipped, letter):
        font = shipped["conveyer"]
        puzzle = typeset(font, letter, "puzzle").puzzle_data
        moved = fontdata.FontData("conveyer", 1, {
            key: fontdata.ConveyerRecord(disks=tuple((x + 10.0, y + 4.0) for x, y in reversed(rec.disks)))
            for key, rec in puzzle.glyphs.items()})
        expected = solve_puzzle(font, puzzle)
        got = solve_puzzle(font, moved)
        assert got.text == letter
        assert emit_svg(got.solution_scene) == emit_svg(expected.solution_scene)

    @pytest.mark.parametrize("font,seed", [("conveyer", 0), ("linkage", 5)])
    def test_forty_letter_puzzle_round_trips(self, shipped, font, seed):
        text = "".join(random.Random(seed).choice("FILNOTUZ") for _ in range(40))
        puzzle = typeset(shipped[font], text, "puzzle", seed=seed).puzzle_data
        written = fontdata.write(puzzle)
        assert "glyph z\n" in written and f"glyph {chr(0x4E00 + 3)}\n" in written
        parsed, diags = fontdata.parse(written)
        assert diags == []
        assert solve_puzzle(shipped[font], parsed).text == text

    @pytest.mark.parametrize("case", sorted(SOLVER_ERRORS))
    def test_error_messages(self, shipped, monkeypatch, case):
        from puzzlefonts import conveyer
        make, error, message = SOLVER_ERRORS[case]
        font, glyphs = make(shipped)
        if case == "no belt":
            monkeypatch.setattr(conveyer, "iter_belts", lambda disks: iter(()))
        puzzle = fontdata.FontData(font.font_id, 1, glyphs)
        with pytest.raises(error) as err:
            solve_puzzle(font, puzzle)
        assert type(err.value) is error
        assert str(err.value) == message

    def test_unsupported_font(self, shipped):
        from puzzlefonts.errors import PuzzleFontError
        with pytest.raises(PuzzleFontError):
            solve_puzzle(shipped["maze"], fontdata.FontData("maze", 1, {}))

    def test_ambiguous_configuration_signals_bad_data(self, shipped):
        from puzzlefonts.typeset import AmbiguousSolution
        good = shipped["conveyer"]
        rec = good.glyphs["I"]
        corrupt = fontdata.FontData("conveyer", 1, {
            "I": rec,
            "J": fontdata.ConveyerRecord(disks=tuple((x + 2.0, y + 1.0) for x, y in rec.disks),
                                         belt=rec.belt)})
        puzzle = fontdata.FontData("conveyer", 1, {"0": fontdata.ConveyerRecord(disks=rec.disks)})
        with pytest.raises(AmbiguousSolution):
            solve_puzzle(corrupt, puzzle)


def run_cli(args):
    return main(list(args))


class TestCli:
    def test_typeset_to_file_and_stdout(self, tmp_path, capsys):
        out = tmp_path / "fun.svg"
        assert run_cli(["typeset", "FUN", "--font", "conveyer", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<?xml")
        assert run_cli(["typeset", "F", "--font", "cane"]) == 0
        assert capsys.readouterr().out.startswith("<?xml")

    def test_typeset_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            run_cli(["typeset", "FUN", "--font", "linkage", "--variant", "puzzle",
                     "--seed", "7", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_solve_roundtrip(self, tmp_path, capsys):
        puzzle = tmp_path / "p.pft"
        run_cli(["typeset", "NUT", "--font", "conveyer", "--variant", "puzzle",
                 "--out", str(tmp_path / "p.svg"), "--puzzle-out", str(puzzle)])
        assert run_cli(["solve", str(puzzle)]) == 0
        assert capsys.readouterr().out.strip() == "NUT"

    def test_solve_out_writes_linkage_sheet(self, shipped, tmp_path, capsys):
        puzzle, sheet = tmp_path / "p.pft", tmp_path / "s.svg"
        run_cli(["typeset", "FUN", "--font", "linkage", "--variant", "puzzle", "--seed", "7",
                 "--out", str(tmp_path / "p.svg"), "--puzzle-out", str(puzzle)])
        assert run_cli(["solve", str(puzzle), "--out", str(sheet)]) == 0
        assert capsys.readouterr().out.strip() == "FUN"
        expected = emit_svg(typeset(shipped["linkage"], "FUN").scene, SvgConfig())
        assert sheet.read_bytes() == expected.encode("utf-8")

    def test_solve_out_writes_golden_conveyer_sheet(self, tmp_path, capsys):
        puzzle, sheet = tmp_path / "p.pft", tmp_path / "s.svg"
        run_cli(["typeset", "FUN", "--font", "conveyer", "--variant", "puzzle",
                 "--out", str(tmp_path / "p.svg"), "--puzzle-out", str(puzzle)])
        assert run_cli(["solve", str(puzzle), "--out", str(sheet)]) == 0
        assert capsys.readouterr().out.strip() == "FUN"
        assert hashlib.sha256(sheet.read_bytes()).hexdigest() == SOLUTION_SHEET

    @pytest.mark.parametrize("options,golden", [
        pytest.param(["--font", font, "--variant", variant], RENDER[font, variant],
                     id=f"{font}-{variant}") for font, variant in sorted(RENDER)
    ] + [
        pytest.param(["--font", "conveyer", "--spacing", "0.25", "--scale", "2"], SCALED_RENDER,
                     id="conveyer-scaled"),
    ])
    def test_typeset_writes_golden_render(self, capsys, options, golden):
        assert run_cli(["typeset", TEXT, "--seed", "7", *options]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == golden

    def test_solve_takes_no_font_option(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(["solve", "--help"])
        assert re.findall(r"--font\b(?!-)", capsys.readouterr().out) == []

    def test_validate_exit_codes(self, tmp_path, capsys):
        good = [str(fontdata.find_font_file(fid)) for fid in fontdata.FONT_IDS]
        assert run_cli(["validate", *good]) == 0
        assert capsys.readouterr().out.splitlines() == [f"{path}: ok" for path in good]
        bad = tmp_path / "bad.pft"
        bad.write_text("font linkage 1\nglyph F\nangles 1 2 3\n")
        assert run_cli(["validate", str(bad)]) == 1
        capsys.readouterr()
        bad.write_text("font conveyer 1\nglyph I\ndisk 0 oops\n")
        assert run_cli(["validate", str(bad)]) == 1
        assert "  3:8: expected number, got 'oops'" in capsys.readouterr().out.splitlines()
        assert run_cli(["validate", str(tmp_path / "missing.pft")]) == 2

    def test_far_apart_disks_exit_1_without_a_traceback(self, tmp_path, capsys):
        puzzle = tmp_path / "far.pft"
        puzzle.write_text("font conveyer 1\nglyph 0\ndisk 1e308 0\ndisk -1e308 0\n")
        assert run_cli(["solve", str(puzzle)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            "error: puzzle glyph '0': disks 0 and 1 are too far apart: their distance overflows\n")
        assert run_cli(["validate", str(puzzle)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{puzzle}: FAIL", "  glyph '0': disks 0 and 1 are too far apart: their distance overflows"]
        proc = subprocess.run([sys.executable, "-m", "puzzlefonts.cli", "solve", str(puzzle)],
                              capture_output=True, text=True)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr

    def test_bad_font_glyph_exit_1_naming_the_glyph(self, tmp_path, capsys):
        fonts = tmp_path / "fonts"
        fonts.mkdir()
        (fonts / "conveyer.pft").write_text("font conveyer 1\nglyph A\ndisk 0 0\ndisk 1 0\n")
        puzzle = tmp_path / "p.pft"
        puzzle.write_text("font conveyer 1\nglyph 0\ndisk 0 0\ndisk 0 4\n")
        assert run_cli(["solve", str(puzzle), "--font-dir", str(fonts)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: font glyph 'A': disks 0 and 1 are not disjoint\n"

    def test_font_and_puzzle_moved_far_validate_and_solve(self, tmp_path, capsys):
        # every disk line of the shipped font and of a FILNOTUZ puzzle moved
        # by 1e8, as the CI step writes them
        def moved(text):
            return "".join("disk %r %r\n" % tuple(float(v) + 1e8 for v in line.split()[1:])
                           if line.startswith("disk ") else line
                           for line in text.splitlines(keepends=True))
        fonts = tmp_path / "fonts"
        fonts.mkdir()
        font = fonts / "conveyer.pft"
        font.write_text(moved(fontdata.find_font_file("conveyer").read_text()))
        assert "disk 100000000.0 100000000.0\n" in font.read_text()
        assert run_cli(["validate", str(font)]) == 0
        assert capsys.readouterr().out == f"{font}: ok\n"
        puzzle, far = tmp_path / "p.pft", tmp_path / "far8.pft"
        assert run_cli(["typeset", "FILNOTUZ", "--font", "conveyer", "--variant", "puzzle",
                        "--out", str(tmp_path / "p.svg"), "--puzzle-out", str(puzzle)]) == 0
        far.write_text(moved(puzzle.read_text()))
        assert run_cli(["solve", str(far), "--font-dir", str(fonts)]) == 0
        assert capsys.readouterr().out == "FILNOTUZ\n"

    def test_validate_json_lines(self, tmp_path, capsys):
        bad = tmp_path / "bad.pft"
        bad.write_text("font linkage 1\nglyph F\nangles 1 2 3\n")
        run_cli(["validate", "--format", "json-lines", str(bad)])
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["ok"] is False and rec["issues"]

    def test_zero_scale_exit_1(self, capsys):
        assert run_cli(["typeset", "FUN", "--font", "conveyer", "--scale", "0"]) == 1
        assert "scale must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--scale=1e308", "--spacing=1e308"])
    def test_overflowing_scale_or_spacing_exit_1(self, tmp_path, capsys, option):
        out = tmp_path / "x.svg"
        assert run_cli(["typeset", "FUN", "--font", "conveyer", option, "--out", str(out)]) == 1
        assert "beyond the float range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value,code", [
        ("-1e-3", 0), ("-1E-3", 0), ("-0.5", 0), ("-1e308", 1), ("-inf", 1),
    ])
    def test_negative_spacing_as_its_own_argument(self, capsys, value, code):
        # argparse alone reads -1e-3 as an option and exits 2
        assert run_cli(["typeset", "FUN", "--font", "conveyer", "--spacing", value]) == code
        captured = capsys.readouterr()
        assert captured.out.startswith("<?xml") if code == 0 else "spacing" in captured.err

    def test_unknown_character_exit_1(self, capsys):
        assert run_cli(["typeset", "F@N", "--font", "conveyer"]) == 1
        assert "characters not in font" in capsys.readouterr().err

    def test_missing_font_dir_exit_2(self, tmp_path, capsys):
        # an explicit --font-dir that lacks the file falls back to packaged data,
        # so point at a nonexistent packaged id via a bogus font file instead
        missing = tmp_path / "nowhere.pft"
        assert run_cli(["solve", str(missing)]) == 2

    def test_module_entrypoint(self):
        proc = subprocess.run([sys.executable, "-m", "puzzlefonts.cli", "typeset", "I",
                               "--font", "cane"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("<?xml")
