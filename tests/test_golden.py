"""Full sha256 values that pin rendered SVG, solutions and written font data.

Any change to one of these values is a change in output, not a refactor:
every font in both variants, a scaled and respaced render (the only path
that scales arcs), the 16-letter cane puzzle (the heaviest render), a
conveyer solution sheet, the canonical writer on the shipped fonts and on
both kinds of machine-readable puzzle, and the hinged chain's fold into the
4x4 square and every glyph.
"""

import hashlib

import pytest

from puzzlefonts import fontdata
from puzzlefonts.hinged import fold_chain, render_fold
from puzzlefonts.scene import emit_svg
from puzzlefonts.typeset import solve_puzzle, typeset

TEXT = "FILNOTUZ"

RENDER = {
    ("linkage", "solved"): "bb84ac18527a019531eb5f4c057db2cb26373ec7c9065085b6c191d41f393b70",
    ("linkage", "puzzle"): "cf32c9281548a13a1ba0321c4f7b85248e9fab07339dd526317440dcc3c33ccf",
    ("conveyer", "solved"): "92705fa945c20a32b3f3bbd56188c436f21f10b36af94ca225ef0e4f3e977295",
    ("conveyer", "puzzle"): "8f34a7154cf1ca47adb058b50527a17771a60e64fe5686d64b6b495a091f609d",
    ("maze", "solved"): "d49da9eb4114a832af488843d792e5b370444c27825a527acea474487aedb105",
    ("maze", "puzzle"): "c0e1149ada02a1698ddc9640a18ff17e97010a5c9740bcf4ee5b6baa25c30a15",
    ("hinged", "solved"): "18b600533503481ff79d6d25006c78709a2fb72a4622646c085051e31af8c0ba",
    ("hinged", "puzzle"): "6a326a16c3050cff3e55cd17ca1e33c7794a4bf84619c308d1e91d7354f3b75d",
    ("cane", "solved"): "6d03ee6961a6556772f71cbe644e85c73a7b64e64b91c02ac4e5640670c47e06",
    ("cane", "puzzle"): "20bf041a66eb4dd36660f2c73472546aace14dd091eb5fc815a495d0699277a4",
}
# conveyer, solved, spacing 0.25, scale 2
SCALED_RENDER = "3899306b0b62466408effc72c97fe726d3d81846ab06f5fbce13d2ed3162c4be"
CANE_PUZZLE_16 = "0cf57e7e4aeec5ad41f9e14273e73680bb4795989781c0ac3b7f844648867f8f"
# the solution sheet of the conveyer puzzle of FUN (seed 0)
SOLUTION_SHEET = "d630c95c2c371a9cd120679a3326f59151cd752ce5a04458ddc2cba2329b8b06"

WRITE = {
    "linkage": "d95f7001af04341be3cb903da6889e1a54156f05bedaf32ebc45fd3818b75256",
    "conveyer": "dfe2696cc71c941f4c5f915b11f7e045ac55933c81e432146c3b9e1b6eb56118",
    "maze": "db605b81dff4b92e457d90f8f6f4a3daccd234ce541921b0004c10d6f7684d39",
    "hinged": "79d0d1137cde7de4e8934be1367edeca644c501abb003d3dff12556c1f8ec112",
    "cane": "03a14790518efa1eec3de5e7adf9358dc32c92b92cfb99a2e44e6649c73f4694",
}

PUZZLE_DATA = {
    "linkage": "2453aceebd59fe69c6fb9bcce8124921244722449706e3f74200c969bdf3baa7",
    "conveyer": "6fb52dc9462442cf01efa890c5edb8acac906dc8326f08c5a1a78ae3f61d6205",
}

# The fold search's first assignment at budget 1M, the same at every budget
# that reaches it; criterion 9 folds all nine targets at 10M against these.
FOLD = {
    "square": "2c8208841a11581e70b1bd22f13b4c62c44aebcecff5117ef027b800b850386c",
    "F": "f4398551186def52d54b624750158598fc06493a9b970da5958d85b80cdb9163",
    "I": "3166a89641471137905b6cd74cbea072a47c4470314de98e3ab49f930e7f0d53",
    "L": "eac5f76c405338600ad884b58a16d1470d0a626c510d4e66fe8a314d2cd08c19",
    "N": "55408413d195681baff5fc1a21addd9802e527ed2097ead0790658ff69b8c972",
    "O": "60a894454ae477d4ee45fc12fa93b99f29bb0bd0fe859166c3a275f8e3d7e475",
    "T": "7195c476623ea3a7e27a184114f8f3a1f50e728ca3544d4ca4b9fb24a9431855",
    "U": "5a97cb0322541430766fd7004d333f12a061dc57414b5191de6cae7674c45f5c",
    "Z": "5784b3fa9419f2891e2d007899b2ebe812356bb604fa872efa4e72a97a603f00",
}

SQUARE_4X4 = [(x, y, "NE", half) for x in range(4) for y in range(4)
              for half in ("first", "second")]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("font,variant", sorted(RENDER))
def test_render(shipped, font, variant):
    scene = typeset(shipped[font], TEXT, variant, seed=7).scene
    assert _sha(emit_svg(scene)) == RENDER[font, variant]


def test_scaled_render_with_arcs(shipped):
    scene = typeset(shipped["conveyer"], TEXT, "solved", seed=7, spacing=0.25, scale=2.0).scene
    assert _sha(emit_svg(scene)) == SCALED_RENDER


def test_sixteen_letter_cane_puzzle(shipped):
    scene = typeset(shipped["cane"], "FILNOTUZZUTONLIF", "puzzle", seed=7).scene
    assert _sha(emit_svg(scene)) == CANE_PUZZLE_16


def test_conveyer_solution_sheet(shipped):
    puzzle = typeset(shipped["conveyer"], "FUN", "puzzle").puzzle_data
    outcome = solve_puzzle(shipped["conveyer"], puzzle)
    assert _sha(emit_svg(outcome.solution_scene)) == SOLUTION_SHEET


@pytest.mark.parametrize("font", sorted(WRITE))
def test_write_shipped(shipped, font):
    assert _sha(fontdata.write(shipped[font])) == WRITE[font]


@pytest.mark.parametrize("font", sorted(PUZZLE_DATA))
def test_write_puzzle_data(shipped, font):
    puzzle = typeset(shipped[font], TEXT, "puzzle", seed=7).puzzle_data
    assert _sha(fontdata.write(puzzle)) == PUZZLE_DATA[font]


@pytest.mark.parametrize("target", sorted(FOLD))
def test_fold(shipped, target):
    chain = shipped["hinged"].chain
    cells = SQUARE_4X4 if target == "square" else shipped["hinged"].glyphs[target]
    fold = fold_chain(chain, cells, budget=1_000_000, expected_cells=32)
    assert _sha(emit_svg(render_fold(chain, cells, fold))) == FOLD[target]
