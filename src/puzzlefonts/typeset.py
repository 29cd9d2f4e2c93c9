"""Layout engine: text to scenes, puzzle emission, and machine solving.

The solved variant renders the readable form of each font (belts drawn, 2D
maze, polyabolo outline, cane top view, canonical linkage state); the puzzle
variant renders what a reader must solve (disks only, crease pattern,
unfolded chain, twisted side view, random flat states).  Each font kind in
`fontdata.KINDS` renders its own glyphs and reads one puzzle glyph back as a
letter; this module lays the pieces left to right, and the gap after a piece
is `spacing` times its width.  Placing a piece records its offset instead of
copying its primitives, so a laid-out scene's primitives keep glyph-local
coordinates (see `scene`); only a scale other than 1 maps them to new ones.
A kind builds a repeated letter's scene once per call and yields that scene
again, and layout boxes each scene object once per call; the laid-out scene
is then boxed (by `emit_svg`, say) from the group boxes that layout kept.
Nothing is kept from one call to the next.

This module alone knows the puzzle file's glyph keys: `0`-`9`, `a`-`z`, then
CJK ideographs from U+4E00, so the sorted keys give the text's order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AmbiguousSolution, NoSolution, NotAChain, PuzzleFontError, UnknownCharacter
# linkage_font_of is re-exported for callers of this module
from .fontdata import FontData, kind_of, linkage_font_of  # noqa: F401
from .scene import VectorScene

DEFAULT_SPACING = 0.5


def _lay_out(scenes, spacing: float) -> VectorScene:
    """Place glyph scenes left to right, each with its lowest point on y = 0.

    A scene object that comes again is boxed once: it is placed at (0, 0)
    once, which keeps its group boxes, and that placed scene is moved for
    every piece.
    """
    out = VectorScene()
    # id(scene) -> (scene, placed at (0, 0), its bounds) for this call; holding
    # the scene keeps its id from being reused
    placed: dict = {}
    cursor = 0.0
    for scene in scenes:
        if not math.isfinite(cursor):
            raise ValueError(f"spacing {spacing!r} places glyphs beyond the float range")
        if id(scene) not in placed:
            at_origin = scene.translated(0.0, 0.0)
            placed[id(scene)] = scene, at_origin, at_origin.bounds()
        _scene, at_origin, (min_x, min_y, max_x, _max_y) = placed[id(scene)]
        out.extend(at_origin.translated(cursor - min_x, -min_y))
        cursor += max(max_x - min_x, 0.5) * (1.0 + spacing)
    return out


@dataclass(frozen=True)
class TypesetResult:
    scene: VectorScene
    puzzle_data: FontData | None  # machine-readable puzzle, when one exists


def typeset(fd: FontData, text: str, variant: str = "solved", seed: int = 0,
            spacing: float = DEFAULT_SPACING, scale: float = 1.0) -> TypesetResult:
    """Lay glyph scenes left to right; puzzle variants also emit puzzle data.

    The same (text, variant, seed) always produces the same scene; the seed
    only matters for the linkage puzzle variant.  A spacing or scale that
    puts a coordinate past the float range raises ValueError.
    """
    if variant not in ("solved", "puzzle"):
        raise ValueError(f"variant must be 'solved' or 'puzzle', got {variant!r}")
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be finite and > 0, got {scale!r}")
    if not math.isfinite(spacing):
        raise ValueError(f"spacing must be finite, got {spacing!r}")
    missing = [c for c in text if c not in fd.glyphs]
    if missing:
        raise UnknownCharacter(missing)
    scenes = []
    puzzle_glyphs: dict = {}
    for pos, (scene, record) in enumerate(kind_of(fd.font_id).render(fd, text, variant, seed)):
        scenes.append(scene)
        if record is not None:
            puzzle_glyphs[_position_key(pos)] = record
    puzzle_data = FontData(fd.font_id, fd.version, puzzle_glyphs, None) if puzzle_glyphs else None
    return TypesetResult(_scaled(_lay_out(scenes, spacing), scale), puzzle_data)


_POSITION_KEYS = "0123456789abcdefghijklmnopqrstuvwxyz"
MAX_PUZZLE_GLYPHS = 36 + 20_992  # then U+4E00-U+9FFF, which sort after "z"


def _position_key(pos: int) -> str:
    if pos >= MAX_PUZZLE_GLYPHS:
        raise ValueError(f"puzzle files support at most {MAX_PUZZLE_GLYPHS} glyphs")
    return _POSITION_KEYS[pos] if pos < 36 else chr(0x4E00 + pos - 36)


def _scaled(scene: VectorScene, scale: float) -> VectorScene:
    if scale == 1.0:
        return scene
    out = VectorScene([p.mapped(1.0, dx, dy).mapped(scale, 0.0, 0.0)
                       for dx, dy, run in scene.runs() for p in run])
    # placing makes no nan, so an overflow shows in the bounds as an infinity
    if not all(map(math.isfinite, out.bounds())):
        raise ValueError(f"scale {scale!r} maps the drawing beyond the float range")
    return out


# -- machine solving ------------------------------------------------------------

@dataclass(frozen=True)
class SolveOutcome:
    text: str
    solution_scene: VectorScene  # the text typeset in the font's solved variant


def solve_puzzle(font_fd: FontData, puzzle_fd: FontData) -> SolveOutcome:
    """Decode a machine-readable puzzle against the shipped font data.

    Each glyph, in key order, is read by its font kind's reader; one that
    reads as no single letter raises the reader's error, prefixed with the
    glyph's key.  The solution sheet is the text typeset in the solved variant.
    """
    if puzzle_fd.font_id != font_fd.font_id:
        raise ValueError(f"puzzle is for font {puzzle_fd.font_id!r}, data is {font_fd.font_id!r}")
    kind = kind_of(font_fd.font_id)
    if kind.reader is None:
        raise PuzzleFontError(f"the {font_fd.font_id} font has no machine solver")
    read = kind.reader(font_fd)
    letters = []
    for key in sorted(puzzle_fd.glyphs):
        try:
            letters.append(read(puzzle_fd.glyphs[key]))
        except (NoSolution, AmbiguousSolution, NotAChain) as exc:
            raise type(exc)(f"puzzle glyph {key!r}: {exc}") from exc
    text = "".join(letters)
    return SolveOutcome(text, typeset(font_fd, text).scene)
