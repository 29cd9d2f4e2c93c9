import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puzzlefonts import fontdata
from puzzlefonts.conveyer import CCW, CW
from puzzlefonts.scene import Polygon, emit_svg
from puzzlefonts.typeset import typeset

LINKAGE_FUN = """\
font linkage 1
glyph F
angles 90 0 90 90 0
glyph U
angles 0 180 90 90 180
glyph N
angles 180 30 180 30 180
"""


class TestParse:
    def test_linkage_fun(self):
        fd, diags = fontdata.parse(LINKAGE_FUN)
        assert diags == []
        assert fd.font_id == "linkage" and fd.version == 1
        assert fd.glyphs["F"].angles == (90.0, 0.0, 90.0, 90.0, 0.0)

    def test_comments_and_blanks(self):
        fd, diags = fontdata.parse("# hi\n\nfont linkage 1\n\n# mid\nglyph F\nangles 90 0 90 90 0\n")
        assert fd is not None and not diags

    def test_arity_error_position(self):
        fd, diags = fontdata.parse("font linkage 1\nglyph F\nangles 90 0 90 90\n")
        assert fd is None
        assert len(diags) == 1
        assert diags[0].line == 3 and "5 values" in diags[0].message

    def test_duplicate_glyph(self):
        text = LINKAGE_FUN + "glyph F\nangles 1 2 3 4 5\n"
        fd, diags = fontdata.parse(text)
        assert fd is None
        assert any("duplicate glyph" in d.message for d in diags)

    def test_unknown_keyword(self):
        fd, diags = fontdata.parse("font linkage 1\nglyph F\nwiggle 3\n")
        assert fd is None and "unknown keyword" in diags[0].message

    def test_missing_header(self):
        fd, diags = fontdata.parse("glyph F\nangles 90 0 90 90 0\n")
        assert fd is None and "must start with" in diags[0].message

    def test_angle_range_checked(self):
        fd, diags = fontdata.parse("font linkage 1\nglyph F\nangles 90 0 90 90 361\n")
        assert fd is None and "outside [0, 360]" in diags[0].message

    def test_belt_tokens(self):
        text = "font conveyer 1\nglyph I\ndisk 0 0\ndisk 0 4\nbelt 0+ 1-\n"
        fd, diags = fontdata.parse(text)
        assert not diags
        assert fd.glyphs["I"].belt == ((0, CCW), (1, CW))

    def test_bad_belt_token_column(self):
        text = "font conveyer 1\nglyph I\ndisk 0 0\ndisk 0 4\nbelt 0+ 1x\n"
        fd, diags = fontdata.parse(text)
        assert fd is None
        assert diags[0].line == 5 and diags[0].column == 9

    def test_non_ascii_digit_belt_entry(self):
        # '²'.isdigit() is true, but int('²') raises
        text = "font conveyer 1\nglyph I\ndisk 0 0\ndisk 0 4\nbelt 0+ ²-\n"
        fd, diags = fontdata.parse(text)
        assert fd is None
        assert [(d.line, d.column) for d in diags] == [(5, 9)]
        assert "belt entry" in diags[0].message

    def test_huge_twist_length_reported(self):
        fd, diags = fontdata.parse("font cane 1\nglyph A\nsubcane 0.5 0 0.2 a\ntwist 0.5 1e6\n")
        assert fd is None
        assert [(d.line, d.column) for d in diags] == [(4, 11)]
        assert "cane length must be at most" in diags[0].message

    @pytest.mark.parametrize("line,column,message", [
        ("subcane 1.5 0 0.1 a", 9, "rho must be in"),
        ("subcane 0.5 0 -0.1 a", 15, "radius must be positive"),
        ("subcane 0.5 0 0.6 a", 15, "leaves the envelope"),
        ("subcane 0.5 0 0.1 zz", 19, "color must be one of"),
        ("twist -1 4", 7, "twist rate must be >= 0"),
        ("twist 0.5 -1", 11, "cane length must be positive"),
    ])
    def test_cane_range_error_at_its_token(self, line, column, message):
        # no twist line before the one under test: a second one is a repeat
        text = "font cane 1\nglyph A\nsubcane 0.5 0 0.2 a\nsubcane 0.5 180 0.2 b\n" + line + "\n"
        fd, diags = fontdata.parse(text)
        assert fd is None
        assert [(d.line, d.column) for d in diags] == [(5, column)]
        assert message in diags[0].message

    @pytest.mark.parametrize("line,column,message", [
        ("cell 0 0 NE third", 13, "half must be first or second"),
        ("cell 0 0 SE first", 10, "diagonal must be NE or NW"),
    ], ids=["half", "diagonal"])
    def test_cell_error_at_its_token(self, line, column, message):
        fd, diags = fontdata.parse("font hinged 1\nglyph A\ncell 0 0 NE first\n" + line + "\n")
        assert fd is None
        assert [(d.line, d.column) for d in diags] == [(4, column)]
        assert message in diags[0].message

    @pytest.mark.parametrize("text,line", [
        ("font linkage 1\nglyph F\nangles 90 0 90 90 0\n", 4),
        ("font conveyer 1\nglyph I\ndisk 0 0\ndisk 0 4\nbelt 0+ 1+\n", 6),
        ("font maze 1\nglyph A\nsize 2 2\n", 4),
        ("font cane 1\nglyph A\nsubcane 0.5 0 0.2 a\ntwist 0.5 4\n", 5),
    ], ids=["angles", "belt", "size", "twist"])
    def test_repeated_line_reported_at_its_keyword(self, text, line):
        # the text's last line again, indented so its keyword is at column 3
        last = text.splitlines()[-1]
        fd, diags = fontdata.parse(text + "  " + last + "\n")
        assert fd is None
        assert [(d.line, d.column) for d in diags] == [(line, 3)]
        assert f"glyph already has a {last.split()[0]!r} line" in diags[0].message

    def test_repeated_chain_reported_at_its_keyword(self):
        fd, diags = fontdata.parse("font hinged 1\nchain 8 Q:P\n  chain 8 Q:P\n")
        assert fd is None
        assert [(d.line, d.column) for d in diags] == [(3, 3)]
        assert "duplicate 'chain' line" in diags[0].message

    @pytest.mark.parametrize("text,positions,message", [
        ("font conveyer 1\nglyph I\ndisk 0 0\ndisk 0 4\nbelt 0+ 1x 2y\n",
         [(5, 9), (5, 12)], "belt entry must look like"),
        ("font hinged 1\nchain 8 Q:P X:P R:Z\n", [(2, 13), (2, 17)],
         "hinge pattern token must look like"),
        ("font linkage 1\nglyph F\nangles 361 0 0 0 400\n", [(3, 8), (3, 18)],
         "outside [0, 360]"),
    ], ids=["belt", "chain", "angles"])
    def test_every_bad_token_reported_at_its_column(self, text, positions, message):
        fd, diags = fontdata.parse(text)
        assert fd is None
        assert [(d.line, d.column) for d in diags] == positions
        assert all(message in d.message for d in diags)

    @pytest.mark.parametrize("text,diagnostics", [
        ("font linkage x\nglyph F\nangles 1 2 3 4 400\n",
         [(1, 14, "expected integer, got 'x'"), (3, 16, "angle 400.0 outside [0, 360]")]),
        ("font foo 1\nglyph F\nangles 1 2 3 4 5\n", [(1, 6, "unknown font id 'foo'")]),
        ("font linkage 1 2\nglyph F\n", [(1, 1, "'font' needs an id and a version")]),
    ], ids=["bad-version", "unknown-id", "token-count"])
    def test_rejected_header(self, text, diagnostics):
        # a known id with a bad version still names the kind the later lines are read by;
        # without a known id the header's own diagnostic is the only one
        fd, diags = fontdata.parse(text)
        assert fd is None
        assert [(d.line, d.column, d.message) for d in diags] == diagnostics

    @pytest.mark.parametrize("space", [" ", "\t", "\u3000"], ids=["space", "tab", "ideographic"])
    def test_any_whitespace_separates_tokens(self, space):
        fd, diags = fontdata.parse(f"font conveyer 1\nglyph{space}I\ndisk{space}0{space}oops\n")
        assert fd is None
        assert [(d.line, d.column) for d in diags] == [(3, 8)]

    def test_wrong_font_keyword(self):
        fd, diags = fontdata.parse("font linkage 1\nglyph F\ndisk 0 0\n")
        assert fd is None and "belong to the conveyer font" in diags[0].message

    def test_chain_line(self):
        text = "font hinged 1\nchain 8 Q:P R:P\nglyph A\n" + \
            "".join(f"cell {x} 0 NE {h}\n" for x in (0, 1) for h in ("first", "second"))
        fd, diags = fontdata.parse(text)
        assert not diags
        assert fd.chain.n_pieces == 8
        assert fd.chain.hinges[:3] == (("Q", "P"), ("R", "P"), ("Q", "P"))

    def test_chain_length_bounded_before_expanding(self, shipped):
        # the hinges are expanded as the line is read, so a huge count
        # would cost memory linear in it; it is refused at its token
        n = fontdata.MAX_CHAIN_PIECES + 1
        fd, diags = fontdata.parse(f"font hinged 1\nchain {n} Q:P R:P\n")
        assert fd is None
        assert [(d.line, d.column) for d in diags] == [(2, 7)]
        assert f"chain has {n} pieces" in diags[0].message
        assert fontdata.parse("font hinged 1\nchain 8 Q:P\n")[0].chain.n_pieces == 8
        assert shipped["hinged"].chain.n_pieces == 128

    def test_glyph_disks_bounded(self):
        # check_disk_set is quadratic in the disk count, so a glyph with
        # more disks than the bound is refused as it is read
        def conveyer_glyph(n):
            return "font conveyer 1\nglyph A\n" + "".join(f"disk {3 * k} 0\n" for k in range(n))
        fd, diags = fontdata.parse(conveyer_glyph(fontdata.MAX_GLYPH_DISKS))
        assert not diags and len(fd.glyphs["A"].disks) == fontdata.MAX_GLYPH_DISKS
        n = fontdata.MAX_GLYPH_DISKS + 1
        fd, diags = fontdata.parse(conveyer_glyph(n))
        assert fd is None
        assert [(d.line, d.column) for d in diags] == [(2, 1)]
        assert f"glyph 'A': has {n} disks" in diags[0].message

    def test_glyph_subcanes_bounded(self):
        # each subcane costs length * SAMPLES_PER_UNIT quads in the puzzle
        # side view, so a glyph with more subcanes than the bound is refused
        def cane_glyph(n):
            return "font cane 1\nglyph A\n" + "".join(
                f"subcane 0.5 {360 * k / n} 0.1 strand_a\n" for k in range(n)) + "twist 1 64\n"
        n = fontdata.MAX_GLYPH_SUBCANES
        assert n == 16
        fd, diags = fontdata.parse(cane_glyph(n))
        assert not diags
        quads = [p for p in typeset(fd, "A", "puzzle").scene.primitives if isinstance(p, Polygon)]
        assert len(quads) <= n * 4096
        fd, diags = fontdata.parse(cane_glyph(n + 1))
        assert fd is None
        assert [(d.line, d.column) for d in diags] == [(2, 1)]
        assert f"glyph 'A': has {n + 1} subcanes, more than the {n} allowed" in diags[0].message

    @pytest.mark.parametrize("lines", [
        "angles 90 0 90 90 0\n" + "".join(f"vertex {k} 0\n" for k in range(7)),
        "",
    ], ids=["both", "neither"])
    def test_linkage_glyph_has_one_form(self, lines):
        # the writer keeps one form, so a glyph with both would lose its vertices
        fd, diags = fontdata.parse("font linkage 1\nglyph A\n" + lines)
        assert fd is None
        assert [(d.line, d.column) for d in diags] == [(2, 1)]
        assert "glyph 'A': needs an 'angles' line or 'vertex' lines, not both" in diags[0].message

    def test_multiple_independent_errors_one_pass(self):
        text = ("font linkage 1\n"
                "glyph F\nangles 90 0 90 90\n"        # arity
                "glyph U\nangles 0 180 90 90 999\n"   # range
                "glyph V\nwibble\n"                   # keyword
                "glyph W\nangles 1 2 3 4 x\n"         # number
                "glyph X\nangles 1 2 3 4 5\n")        # fine
        fd, diags = fontdata.parse(text)
        assert fd is None
        assert len(diags) == 4
        assert sorted(d.line for d in diags) == [3, 5, 7, 9]

    def test_no_font_line(self):
        fd, diags = fontdata.parse("# only a comment\n")
        assert fd is None and "must start with" in diags[0].message

    def test_vertex_records(self):
        text = ("font linkage 1\nglyph 0\n" +
                "".join(f"vertex {i} 0\n" for i in range(7)))
        fd, diags = fontdata.parse(text)
        assert not diags
        assert len(fd.glyphs["0"].vertices) == 7


class TestNonFinite:
    @pytest.mark.parametrize("text,line,column", [
        ("font cane 1\nglyph A\nsubcane 0.55 90 nan a\ntwist 0.5 4\n", 3, 17),
        ("font cane 1\nglyph A\nsubcane 0.55 90 0.2 a\ntwist inf 4\n", 4, 7),
        ("font cane 1\nglyph A\nsubcane 0.55 90 0.2 a\ntwist 0.5 nan\n", 4, 11),
        ("font conveyer 1\nglyph A\ndisk 0 1e400\ndisk 0 4\n", 3, 8),
        ("font linkage 1\nglyph A\nvertex nan 0\n", 3, 8),
        ("font maze 1\nglyph A\nsize 2 2\nwall 1 0 1 " + "9" * 400 + "\n", 4, 12),
    ], ids=["cane-subcane-radius", "cane-twist-omega", "cane-twist-length", "conveyer-disk",
            "linkage-vertex", "maze-wall"])
    def test_reported_at_the_token(self, text, line, column):
        fd, diags = fontdata.parse(text)
        assert fd is None
        assert [(d.line, d.column) for d in diags] == [(line, column)]
        assert "expected a finite number" in diags[0].message


SHIPPED_TEXTS = {fid: fontdata.write(fontdata.load_font_file(fontdata.find_font_file(fid)))
                 for fid in fontdata.FONT_IDS}
KEYWORDS = {"font", "glyph"} | {kw for kind in fontdata.KINDS.values() for kw in kind.keywords}
TOKEN_POOL = sorted({tok for text in SHIPPED_TEXTS.values() for tok in text.split()}
                    | KEYWORDS | {"nan", "inf", "1e400", "1e6", "-0", "x", "²+"})


@st.composite
def mutated_font(draw):
    """A shipped font with one or two tokens replaced or inserted."""
    lines = [ln.split() for ln in SHIPPED_TEXTS[draw(st.sampled_from(fontdata.FONT_IDS))].splitlines()]
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        tok = draw(st.sampled_from(TOKEN_POOL))
        replace = draw(st.booleans())
        j = draw(st.integers(0, len(lines[i]) - replace))
        lines[i] = lines[i][:j] + [tok] + lines[i][j + replace:]
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


@given(mutated_font())
@settings(max_examples=600, deadline=None)
def test_parse_is_total(text):
    fd, diags = fontdata.parse(text)
    if fd is None:
        assert any(d.severity == "error" for d in diags)
        return
    written = fontdata.write(fd)
    again, again_diags = fontdata.parse(written)
    assert not again_diags and fontdata.write(again) == written
    assert (again.glyphs, again.chain, again.version) == (fd.glyphs, fd.chain, fd.version)
    if fontdata.validate(fd).ok:
        letters = "".join(sorted(fd.glyphs))
        for variant in ("solved", "puzzle"):
            emit_svg(typeset(fd, letters, variant).scene)


class TestWrite:
    def test_roundtrip_shipped(self, shipped):
        for fid, fd in shipped.items():
            text = fontdata.write(fd)
            again, diags = fontdata.parse(text)
            assert not diags, (fid, diags)
            assert fontdata.write(again) == text

    def test_deterministic(self, shipped):
        fd = shipped["conveyer"]
        assert fontdata.write(fd).encode() == fontdata.write(fd).encode()

    def test_glyphs_sorted(self, shipped):
        text = fontdata.write(shipped["cane"])
        keys = [ln.split()[1] for ln in text.splitlines() if ln.startswith("glyph ")]
        assert keys == sorted(keys)


class TestValidate:
    def test_shipped_fonts_all_pass(self, shipped):
        for fid, fd in shipped.items():
            rep = fontdata.validate(fd)
            assert rep.ok, (fid, rep.issues)

    def test_linkage_reversal_collision_found(self):
        text = ("font linkage 1\nglyph A\nangles 10 20 30 40 50\n"
                "glyph B\nangles 50 40 30 20 10\n")
        fd, _ = fontdata.parse(text)
        rep = fontdata.validate(fd)
        assert any("'A'" in i and "'B'" in i for i in rep.issues)

    def test_conveyer_fingerprint_collision_found(self):
        text = ("font conveyer 1\nglyph A\ndisk 0 0\ndisk 0 4\n"
                "glyph B\ndisk 5 5\ndisk 5 9\n")
        fd, _ = fontdata.parse(text)
        rep = fontdata.validate(fd)
        assert any("fingerprint" in i for i in rep.issues)

    def test_hinged_cell_count_failure(self):
        text = "font hinged 1\nchain 128 Q:P R:P\nglyph A\n" + \
            "".join(f"cell {x} {y} NE {h}\n" for x in range(3) for y in range(5)
                    for h in ("first", "second"))
        fd, _ = fontdata.parse(text)
        rep = fontdata.validate(fd)
        assert any("30 cells" in i for i in rep.issues)

    def test_conveyer_bad_belt_flagged(self):
        text = "font conveyer 1\nglyph A\ndisk 0 0\ndisk 0 4\ndisk 4 0\nbelt 0+ 1+\n"
        fd, _ = fontdata.parse(text)
        rep = fontdata.validate(fd)
        assert any("fails validation" in i for i in rep.issues)

    def test_conveyer_unrealizable_belt_flagged(self):
        text = "font conveyer 1\nglyph A\ndisk 0 0\ndisk 0 4\nbelt 0+ 7+\n"
        fd, diags = fontdata.parse(text)
        assert not diags
        rep = fontdata.validate(fd)
        assert any("belt does not realize: disk index 7 out of range" in i for i in rep.issues)

    def test_linkage_vertex_record_bars_checked(self):
        text = ("font linkage 1\nglyph 0\n" +
                "".join(f"vertex {2 * i} 0\n" for i in range(7)))
        fd, diags = fontdata.parse(text)
        assert not diags
        rep = fontdata.validate(fd)
        assert any("not unit length" in i for i in rep.issues)

    def test_cane_identical_designs_flagged(self):
        text = ("font cane 1\nglyph A\nsubcane 0.5 0 0.2 a\ntwist 0.5 4\n"
                "glyph B\nsubcane 0.5 0 0.2 a\ntwist 0.5 4\n")
        fd, _ = fontdata.parse(text)
        rep = fontdata.validate(fd)
        assert any("indistinguishable" in i for i in rep.issues)

    @pytest.mark.parametrize("first, second, twist, same", [
        ("subcane 0 0 0.2 a", "subcane 0 90 0.2 a", "twist 0.5 4", True),
        ("subcane 0.5 30 0.2 a", "subcane 0.5 390 0.2 a", "twist 0.5 4", True),
        ("subcane 0.5 30 0.2 a", "subcane 0.5 330 0.2 a", "twist 0 4", True),
        ("subcane 0.5 30 0.2 a", "subcane 0.5 330 0.2 a", "twist 0.5 4", False),
        ("subcane 0.5 0 0.2 a", "subcane 0.5 180 0.2 a", "twist 0 4", False),
    ], ids=["axis-phase", "phase-turn", "untwisted-mirror", "twisted-mirror",
            "untwisted-opposite"])
    def test_cane_glyphs_compared_by_what_they_draw(self, first, second, twist, same):
        text = f"font cane 1\nglyph A\n{first}\n{twist}\nglyph B\n{second}\n{twist}\n"
        fd, _ = fontdata.parse(text)
        issues = fontdata.validate(fd).issues
        assert issues == (["cane glyphs ['A', 'B'] are indistinguishable"] if same else [])

    def test_maze_mixed_heights_flagged(self):
        # the puzzle variant glues glyph sheets side by side
        text = "font maze 1\nglyph A\nsize 2 4\nglyph B\nsize 2 5\n"
        fd, _ = fontdata.parse(text)
        rep = fontdata.validate(fd)
        assert any("different heights" in i for i in rep.issues)


class TestErrorRecovery:
    def test_seeded_corruptions_all_reported(self, shipped):
        base = fontdata.write(shipped["conveyer"]).splitlines()
        rng = random.Random(99)
        for _ in range(20):
            lines = list(base)
            n_errs = rng.randint(1, 10)
            corrupted = rng.sample([i for i, ln in enumerate(lines) if ln.startswith("disk")],
                                   min(n_errs, 8))
            for i in corrupted:
                lines[i] = "disk oops"
            fd, diags = fontdata.parse("\n".join(lines))
            assert fd is None
            assert len([d for d in diags if d.severity == "error"]) >= len(corrupted)


def test_find_font_file_fallback(tmp_path):
    p = fontdata.find_font_file("linkage", tmp_path)  # not there -> packaged
    assert p.name == "linkage.pft"
    with pytest.raises(fontdata.MissingFontFile):
        fontdata.load_font_file(tmp_path / "nope.pft")
