"""Seeded workloads of the puzzlefonts benchmark and their per-op checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Operations come in blocks, and a run
measures whole blocks only.  Each block holds a fixed mix of inputs in a
seeded order (stratified sampling), so every run sees the same mix and the
seed changes only the order and the free choices inside the mix; without
that, the share of the rare expensive operations (the cane puzzle in
`render`, the six-disk Z in `solve`) would move a run's throughput by more
than any change worth detecting.

The program only ever sees the generated inputs; what the workload knows
about them (the expected text) stays in the `Op` and is used by the check,
which runs outside the timed interval.
"""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LETTERS = "FILNOTUZ"
VARIANTS = ("solved", "puzzle")
RENDER_LENGTHS = range(1, 17)
FOLD_BUDGET = 1_000_000          # fixed input: default is 10M, where F and U take ~60 s each
FOLD_EXPECTED_CELLS = 32
SQUARE_4X4 = tuple((x, y, "NE", half) for x in range(4) for y in range(4)
                   for half in ("first", "second"))
DRAWING_TAGS = frozenset({"rect", "polyline", "circle", "path", "polygon"})


class SourceTreeMissing(ImportError):
    """The benchmark runs outside a checkout that holds the program's source."""


def import_program():
    """Import puzzlefonts from this checkout's `src`, never from elsewhere."""
    import sys
    if not (SRC / "puzzlefonts" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no puzzlefonts source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import puzzlefonts
    if Path(puzzlefonts.__file__).resolve().parent != SRC / "puzzlefonts":
        raise SourceTreeMissing(f"puzzlefonts imported from {puzzlefonts.__file__}, not {SRC}")
    return puzzlefonts


import_program()
from puzzlefonts import fontdata as fontdata_mod  # noqa: E402
from puzzlefonts import hinged as hinged_mod  # noqa: E402
from puzzlefonts import scene as scene_mod  # noqa: E402
from puzzlefonts import typeset as typeset_mod  # noqa: E402


def load_fonts() -> dict:
    """The five shipped fonts, loaded the way the CLI loads them."""
    return {font_id: fontdata_mod.load_font_file(fontdata_mod.find_font_file(font_id))
            for font_id in fontdata_mod.FONT_IDS}


@dataclass(frozen=True)
class Op:
    font: str
    text: str          # render/solve: the text; fold: the target name
    variant: str = "puzzle"
    seed: int = 0
    expected: str = ""  # solve: the text the solver must decode


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


class Workload:
    """Op generator, timed operation and untimed check of one workload.

    The library is always reached through module attributes, so that the
    tracer's rebinding of a name applies to the benchmark's own calls.
    """

    name = ""
    min_ops = 1  # a run holds at least this many ops, for its highest percentile

    def __init__(self, fonts: dict):
        self.fonts = fonts

    def blocks(self, seed: int):
        """Endless sequence of op blocks; the same seed gives the same blocks."""
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield self.block(rng)

    def block(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op):
        """The timed operation."""
        raise NotImplementedError

    def check(self, op: Op, out) -> None:
        """Raise CheckFailed unless `out` is the right answer for `op`."""
        raise NotImplementedError

    def svg(self, op: Op, out) -> str:
        """SVG of the op's result, emitted outside the timed interval if need be."""
        raise NotImplementedError


class RenderWorkload(Workload):
    """`typeset` + `emit_svg`; a block is every (font, variant, length) once."""

    name = "render"
    min_ops = 1000  # ten samples beyond p99

    def block(self, rng):
        cells = [(font, variant, length) for font in fontdata_mod.FONT_IDS
                 for variant in VARIANTS for length in RENDER_LENGTHS]
        rng.shuffle(cells)
        return [Op(font, "".join(rng.choice(LETTERS) for _ in range(length)), variant,
                   rng.randrange(2 ** 31))
                for font, variant, length in cells]

    def execute(self, op):
        result = typeset_mod.typeset(self.fonts[op.font], op.text, variant=op.variant,
                                     seed=op.seed)
        return result, scene_mod.emit_svg(result.scene, scene_mod.SvgConfig())

    def check(self, op, out):
        result, svg = out
        try:
            root = ET.fromstring(svg)
        except ET.ParseError as exc:
            raise CheckFailed(f"SVG does not parse: {exc}") from exc
        drawn = sum(1 for el in root.iter() if el.tag.rsplit("}", 1)[-1] in DRAWING_TAGS)
        want = len(result.scene.primitives) + 1  # + the background rect
        if drawn != want:
            raise CheckFailed(f"{drawn} drawing elements for {want - 1} primitives")

    def svg(self, op, out):
        return out[1]


class SolveWorkload(Workload):
    """Conveyer puzzle round trip: typeset -> write -> parse -> solve_puzzle.

    A block is 8 one-letter and 8 two-letter texts.  The one-letter texts are
    the eight letters once each.  The two-letter texts pair each letter `a`
    with `sigma(a)`, for a seeded permutation `sigma` with exactly one fixed
    point.  So each two-letter text is uniform over all 64, its two letters
    are equal at their natural rate of 1 in 8 (one text per block, which
    `solve_puzzle` solves once), and every block holds each letter three
    times, which keeps the share of the costly six-disk Z fixed.  The fixed
    points of eight blocks in a row are the eight letters in seeded order,
    so that a run does not hold the cheaper block with a doubled Z by chance
    more than once.
    """

    name = "solve"
    min_ops = 100  # ten samples beyond p90

    def blocks(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            fixed_points = list(LETTERS)
            rng.shuffle(fixed_points)
            for fixed in fixed_points:
                yield self.block(rng, fixed)

    def block(self, rng, fixed):
        texts = list(LETTERS)
        rest = [ch for ch in LETTERS if ch != fixed]
        image = list(rest)
        while any(a == b for a, b in zip(rest, image)):
            rng.shuffle(image)
        sigma = {fixed: fixed, **dict(zip(rest, image))}
        texts += [a + sigma[a] for a in LETTERS]
        rng.shuffle(texts)
        return [Op("conveyer", text, "puzzle", expected=text) for text in texts]

    def execute(self, op):
        fd = self.fonts[op.font]
        result = typeset_mod.typeset(fd, op.text, variant="puzzle")
        puzzle, diagnostics = fontdata_mod.parse(fontdata_mod.write(result.puzzle_data))
        if puzzle is None:
            raise ValueError(f"written puzzle does not parse: {diagnostics}")
        return typeset_mod.solve_puzzle(fd, puzzle)

    def check(self, op, out):
        if out.text != op.expected:
            raise CheckFailed(f"decoded {out.text!r}, expected {op.expected!r}")

    def svg(self, op, out):
        return scene_mod.emit_svg(out.solution_scene, scene_mod.SvgConfig())


class FoldWorkload(Workload):
    """`fold_chain` + `verify_fold` over the nine shipped targets; a block is
    one pass in seeded order at the fixed FOLD_BUDGET."""

    name = "fold"

    def __init__(self, fonts):
        super().__init__(fonts)
        glyphs = fonts["hinged"].glyphs
        self.targets = {"square": SQUARE_4X4, **{ch: glyphs[ch] for ch in sorted(glyphs)}}

    def block(self, rng):
        names = list(self.targets)
        rng.shuffle(names)
        return [Op("hinged", name) for name in names]

    def execute(self, op):
        chain = self.fonts["hinged"].chain
        cells = self.targets[op.text]
        fold = hinged_mod.fold_chain(chain, cells, budget=FOLD_BUDGET,
                                     expected_cells=FOLD_EXPECTED_CELLS)
        ok = fold is not None and hinged_mod.verify_fold(chain, cells, fold,
                                                         expected_cells=FOLD_EXPECTED_CELLS)
        return fold, ok

    def check(self, op, out):
        fold, ok = out
        if fold is None:
            raise CheckFailed(f"{op.text}: no fold found")
        if not ok:
            raise CheckFailed(f"{op.text}: verify_fold rejected the fold")

    def svg(self, op, out):
        fd = self.fonts["hinged"]
        scene = hinged_mod.render_fold(fd.chain, self.targets[op.text], out[0])
        return scene_mod.emit_svg(scene, scene_mod.SvgConfig())


WORKLOADS = {cls.name: cls for cls in (RenderWorkload, SolveWorkload, FoldWorkload)}

