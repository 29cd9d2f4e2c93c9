"""Font data model, the line-oriented `.pft` format, and the font-kind table.

One file holds one font.  The grammar is line based: `#` lines are comments,
`font <id> <version>` must come first, `glyph <char>` opens a record, and
payload lines are keyword-led.  Parsing is total: it never throws on bad
input, it collects diagnostics with exact line/column positions and returns
no FontData when any error was seen.

Payload keywords by font:
    linkage   angles a1 a2 a3 a4 a5     stored verbatim (0 and 360 both legal)
              vertex x y                seven of these for puzzle chains
    conveyer  disk x y                  unit disk center
              belt 0+ 2- 1+             winding: disk index and wrap sign
    maze      size w h                  grid bounding box
              wall x1 y1 x2 y2          unit lattice wall edge
    hinged    chain n Q:P R:P ...       font-level: cyclic exit:entry hinge pattern
              cell x y NE|NW first|second
    cane      subcane rho phi r color
              twist omega length

`KINDS` has one entry per font id and is the one place that knows a font
kind: its payload keywords, how its glyph records are built, written and
validated, how its glyphs render in the solved and puzzle variants, and how
its puzzles decode back to text where a machine solver exists.  A new font
is one entry here plus its domain module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from . import cane, conveyer, hinged, linkage, maze
from .cane import CaneCrossSection, Subcane, TwistParams
from .conveyer import CCW, CW
from .errors import (
    AmbiguousMatch, AmbiguousSolution, FieldError, InvalidSpec, MissingFontFile, NoMatch,
    NoSolution, NotAChain,
)
from .geometry import Point2, Segment, arc_extent, dist
from .hinged import Cell, HingedChain, check_cell
from .maze import GridMaze
from .scene import VectorScene

FORMAT_VERSION = 1


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


@dataclass(frozen=True)
class LinkageRecord:
    angles: tuple | None = None
    vertices: tuple | None = None


@dataclass(frozen=True)
class ConveyerRecord:
    disks: tuple
    belt: tuple | None = None


@dataclass(frozen=True)
class CaneRecord:
    cross_section: CaneCrossSection
    twist: TwistParams


@dataclass
class FontData:
    font_id: str
    version: int
    glyphs: dict
    chain: HingedChain | None = None

    def letters(self) -> list[str]:
        return sorted(self.glyphs)


# -- parser -------------------------------------------------------------------

class _Tok:
    __slots__ = ("text", "col")

    def __init__(self, text: str, col: int):
        self.text = text
        self.col = col


def _tokenize(line: str) -> list[_Tok]:
    toks = []
    i = 0
    while i < len(line):
        if line[i].isspace():
            i += 1
            continue
        j = i
        while j < len(line) and not line[j].isspace():
            j += 1
        toks.append(_Tok(line[i:j], i + 1))
        i = j
    return toks


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.diags: list[ParseDiagnostic] = []
        self.font_id: str | None = None
        self.version: int | None = None
        self.chain: HingedChain | None = None
        self.glyphs: dict = {}
        self.cur_char: str | None = None
        self.cur_line = 0
        self.cur: dict = {}
        self.cur_diag_mark = 0

    def error(self, line: int, col: int, msg: str) -> None:
        self.diags.append(ParseDiagnostic(line, col, msg))

    def _num(self, tok: _Tok, line: int, integer: bool = False):
        try:
            value = int(tok.text) if integer else float(tok.text)
        except ValueError:
            kind = "integer" if integer else "number"
            self.error(line, tok.col, f"expected {kind}, got {tok.text!r}")
            return None
        if not math.isfinite(float(tok.text)):  # nan, inf, and overflowing values
            self.error(line, tok.col, f"expected a finite number, got {tok.text!r}")
            return None
        return value

    def finish_glyph(self) -> None:
        if self.cur_char is None:
            return
        char, payload, line = self.cur_char, self.cur, self.cur_line
        glyph_had_errors = len(self.diags) > self.cur_diag_mark
        self.cur_char, self.cur = None, {}
        if glyph_had_errors:
            return  # don't cascade completeness complaints onto broken payloads
        try:
            self.glyphs[char] = KINDS[self.font_id].record(payload)
        except ValueError as exc:
            self.error(line, 1, f"glyph {char!r}: {exc}")

    def parse(self) -> tuple[FontData | None, list[ParseDiagnostic]]:
        for lineno, raw in enumerate(self.lines, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            toks = _tokenize(raw)
            head = toks[0]
            if self.font_id is None and head.text != "font":
                self.error(lineno, head.col, "file must start with a 'font <id> <version>' line")
                return None, self.diags
            handler = getattr(self, f"_kw_{head.text}", None)
            if handler is None:
                self.error(lineno, head.col, f"unknown keyword {head.text!r}")
                continue
            if head.text in _KEYWORD_KIND and not self._payload_guard(head, lineno):
                continue
            handler(toks, lineno)
        self.finish_glyph()
        if self.font_id is None and not self.diags:
            self.error(1, 1, "file must start with a 'font <id> <version>' line")
        if any(d.severity == "error" for d in self.diags):
            return None, self.diags
        fd = FontData(self.font_id, self.version, self.glyphs, self.chain)
        return fd, self.diags

    # keyword handlers ---------------------------------------------------

    def _kw_font(self, toks, lineno):
        if self.font_id is not None:
            self.error(lineno, toks[0].col, "duplicate 'font' header")
            return
        if len(toks) != 3:
            self.error(lineno, toks[0].col, "'font' needs an id and a version")
            return
        if toks[1].text not in KINDS:
            self.error(lineno, toks[1].col, f"unknown font id {toks[1].text!r}")
            return
        version = self._num(toks[2], lineno, integer=True)
        if version is None:
            return
        self.font_id = toks[1].text
        self.version = version

    def _kw_glyph(self, toks, lineno):
        self.finish_glyph()
        if len(toks) != 2 or len(toks[1].text) != 1:
            col = toks[1].col if len(toks) > 1 else toks[0].col
            self.error(lineno, col, "'glyph' needs a single-character key")
            return
        char = toks[1].text
        if char in self.glyphs:
            self.error(lineno, toks[1].col, f"duplicate glyph {char!r}")
            return
        self.cur_char = char
        self.cur_line = lineno
        self.cur = {}
        self.cur_diag_mark = len(self.diags)

    def _payload_guard(self, head: _Tok, lineno: int) -> bool:
        owner = _KEYWORD_KIND[head.text]
        if owner != self.font_id:
            self.error(lineno, head.col, f"{head.text!r} lines belong to the {owner} font")
            return False
        if self.cur_char is None and head.text != "chain":
            self.error(lineno, head.col, f"{head.text!r} line outside any glyph")
            return False
        if head.text in self.cur:  # one-per-glyph keywords store under their own name
            self.error(lineno, head.col, f"glyph already has a {head.text!r} line")
            return False
        return True

    def _kw_angles(self, toks, lineno):
        if len(toks) != 6:
            self.error(lineno, toks[0].col, f"'angles' needs exactly 5 values, got {len(toks) - 1}")
            return
        vals = [self._num(t, lineno) for t in toks[1:]]
        if any(v is None for v in vals):
            return
        for t, v in zip(toks[1:], vals):
            if not 0.0 <= v <= 360.0:
                self.error(lineno, t.col, f"angle {v} outside [0, 360]")
                return
        self.cur["angles"] = tuple(vals)

    def _kw_vertex(self, toks, lineno):
        if len(toks) != 3:
            self.error(lineno, toks[0].col, "'vertex' needs x and y")
            return
        x = self._num(toks[1], lineno)
        y = self._num(toks[2], lineno)
        if x is None or y is None:
            return
        self.cur.setdefault("vertices", []).append(Point2(x, y))

    def _kw_disk(self, toks, lineno):
        if len(toks) != 3:
            self.error(lineno, toks[0].col, "'disk' needs x and y")
            return
        x = self._num(toks[1], lineno)
        y = self._num(toks[2], lineno)
        if x is None or y is None:
            return
        self.cur.setdefault("disks", []).append(Point2(x, y))

    def _kw_belt(self, toks, lineno):
        if len(toks) < 2:
            self.error(lineno, toks[0].col, "'belt' needs at least one winding entry")
            return
        winding = []
        for t in toks[1:]:
            body, sign = t.text[:-1], t.text[-1:]
            if sign not in "+-" or not body.isdecimal():
                self.error(lineno, t.col, f"belt entry must look like '3+' or '0-', got {t.text!r}")
                return
            winding.append((int(body), CCW if sign == "+" else CW))
        self.cur["belt"] = tuple(winding)

    def _kw_size(self, toks, lineno):
        if len(toks) != 3:
            self.error(lineno, toks[0].col, "'size' needs width and height")
            return
        w = self._num(toks[1], lineno, integer=True)
        h = self._num(toks[2], lineno, integer=True)
        if w is None or h is None:
            return
        self.cur["size"] = (w, h)

    def _kw_wall(self, toks, lineno):
        if len(toks) != 5:
            self.error(lineno, toks[0].col, "'wall' needs x1 y1 x2 y2")
            return
        vals = [self._num(t, lineno, integer=True) for t in toks[1:]]
        if any(v is None for v in vals):
            return
        self.cur.setdefault("walls", []).append(tuple(vals))

    def _kw_chain(self, toks, lineno):
        if self.chain is not None:
            self.error(lineno, toks[0].col, "duplicate 'chain' line")
            return
        if len(toks) < 3:
            self.error(lineno, toks[0].col,
                       "'chain' needs a piece count and at least one exit:entry pattern")
            return
        n = self._num(toks[1], lineno, integer=True)
        if n is None:
            return
        pattern = []
        for t in toks[2:]:
            parts = t.text.split(":")
            if len(parts) != 2 or any(p not in ("R", "P", "Q") for p in parts):
                self.error(lineno, t.col,
                           f"hinge pattern token must look like 'Q:P', got {t.text!r}")
                return
            pattern.append((parts[0], parts[1]))
        try:
            self.chain = HingedChain.cyclic(n, pattern)
        except ValueError as exc:
            self.error(lineno, toks[1].col, str(exc))

    def _kw_cell(self, toks, lineno):
        if len(toks) != 5:
            self.error(lineno, toks[0].col, "'cell' needs x y NE|NW first|second")
            return
        x = self._num(toks[1], lineno, integer=True)
        y = self._num(toks[2], lineno, integer=True)
        if x is None or y is None:
            return
        try:
            cell = check_cell((x, y, toks[3].text, toks[4].text))
        except FieldError as exc:
            self.error(lineno, toks[1 + Cell._fields.index(exc.field)].col, str(exc))
            return
        self.cur.setdefault("cells", []).append(cell)

    def _build(self, cls, toks, lineno, *args):
        """cls(*args) from the line's arguments in field order; a range error
        is reported at the token of the field it names, and gives None."""
        try:
            return cls(*args)
        except FieldError as exc:
            names = [f.name for f in fields(cls)]
            self.error(lineno, toks[1 + names.index(exc.field)].col, str(exc))
            return None

    def _kw_subcane(self, toks, lineno):
        if len(toks) != 5:
            self.error(lineno, toks[0].col, "'subcane' needs rho phi r color")
            return
        rho = self._num(toks[1], lineno)
        phi = self._num(toks[2], lineno)
        r = self._num(toks[3], lineno)
        if rho is None or phi is None or r is None:
            return
        color = toks[4].text
        sub = self._build(Subcane, toks, lineno,
                          rho, phi, r, color if color.startswith("strand_") else f"strand_{color}")
        if sub is not None:
            self.cur.setdefault("subcanes", []).append(sub)

    def _kw_twist(self, toks, lineno):
        if len(toks) != 3:
            self.error(lineno, toks[0].col, "'twist' needs omega and length")
            return
        omega = self._num(toks[1], lineno)
        length = self._num(toks[2], lineno)
        if omega is None or length is None:
            return
        twist = self._build(TwistParams, toks, lineno, omega, length)
        if twist is not None:
            self.cur["twist"] = twist


def parse(text: str) -> tuple[FontData | None, list[ParseDiagnostic]]:
    """Parse `.pft` text; on any error returns (None, diagnostics)."""
    return _Parser(text).parse()


# -- writer -------------------------------------------------------------------

def _num_text(v: float) -> str:
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


def write(fd: FontData) -> str:
    """Canonical serialization: glyphs sorted by character, deterministic."""
    kind = kind_of(fd.font_id)
    lines = [f"font {fd.font_id} {fd.version}"]
    if fd.chain is not None:
        hinges = fd.chain.hinges
        period = len(hinges)
        for p in range(1, len(hinges) + 1):
            if all(hinges[k] == hinges[k % p] for k in range(len(hinges))):
                period = p
                break
        toks = " ".join(f"{ex}:{en}" for ex, en in hinges[:period]) if hinges else "Q:P"
        lines.append(f"chain {fd.chain.n_pieces} {toks}")
    for char in sorted(fd.glyphs):
        lines.append(f"glyph {char}")
        lines.extend(kind.lines(fd.glyphs[char]))
    return "\n".join(lines) + "\n"


# -- validation ---------------------------------------------------------------

@dataclass
class DataReport:
    issues: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, msg: str) -> None:
        self.issues.append(msg)


def validate(fd: FontData) -> DataReport:
    """Per-module payload checks plus the cross-glyph uniqueness conditions."""
    report = DataReport()
    if fd.font_id in KINDS:
        KINDS[fd.font_id].check(fd, report)
    else:
        report.add(f"unknown font id {fd.font_id!r}")
    return report


# -- font kinds -----------------------------------------------------------------

class FontKind:
    """What the library knows about one font kind; `KINDS` holds one of each.

    keywords                    payload keywords that belong to the kind
    record(payload)             glyph record of one glyph's payload lines;
                                ValueError when the payload is incomplete
    lines(rec)                  the payload lines `write` emits for a record
    check(fd, report)           add the per-glyph and cross-glyph issues
    render(fd, text, variant, seed)
                                yield (scene, puzzle record or None) for
                                each piece `typeset` lays out
    decode(font_fd, puzzle_fd)  (text, solution scenes or None); None for
                                the kinds without a machine solver

    Kinds call domain functions through their module (`cane.render_side`), so
    rebinding a module function, as a tracer does, reaches every call.
    """

    keywords: tuple = ()
    decode = None


def linkage_font_of(fd: FontData) -> linkage.LinkageFont:
    return linkage.LinkageFont({c: r.angles for c, r in fd.glyphs.items()
                                if r.angles is not None})


def _linkage_scene(glyph: linkage.LinkageGlyph) -> VectorScene:
    scene = VectorScene()
    for a, b in linkage.spread_overlapping_bars(glyph.vertices):
        scene.add_polyline([a, b], "chain")
    for v in glyph.vertices:
        scene.add_circle(v, 0.05, "hinge", filled=True)
    return scene


class _Linkage(FontKind):
    keywords = ("angles", "vertex")

    def record(self, payload):
        angles = payload.get("angles")
        vertices = payload.get("vertices")
        if angles is None and vertices is None:
            raise ValueError("needs an 'angles' or 'vertex' payload")
        if vertices is not None and len(vertices) != 7:
            raise ValueError(f"has {len(vertices)} vertices, expected 7")
        return LinkageRecord(angles=angles, vertices=tuple(vertices) if vertices else None)

    def lines(self, rec):
        if rec.angles is not None:
            return ["angles " + " ".join(_num_text(a) for a in rec.angles)]
        return [f"vertex {_num_text(v[0])} {_num_text(v[1])}" for v in rec.vertices]

    def check(self, fd, report):
        seqs = {}
        for char, rec in sorted(fd.glyphs.items()):
            if rec.angles is not None:
                try:
                    seqs[char] = linkage.check_angle_sequence(rec.angles)
                except ValueError as exc:
                    report.add(f"glyph {char!r}: {exc}")
            else:
                for i in range(6):
                    if abs(dist(rec.vertices[i], rec.vertices[i + 1]) - 1.0) > 1e-6:
                        report.add(f"glyph {char!r}: bar {i} is not unit length")
        for l1, l2 in linkage.LinkageFont(seqs).uniqueness_failures():
            report.add(f"letters {l1!r} and {l2!r} share a sequence up to reversal")

    def render(self, fd, text, variant, seed):
        font = linkage_font_of(fd)
        for pos, ch in enumerate(text):
            if variant == "puzzle":
                glyph = font.random_puzzle_glyph(ch, seed * 1_000 + pos)
                yield _linkage_scene(glyph), LinkageRecord(vertices=glyph.vertices)
            else:
                yield _linkage_scene(font.canonical_glyph(ch)), None

    def decode(self, font_fd, puzzle_fd):
        """Measure each chain's joint angles and look the sequence up."""
        font = linkage_font_of(font_fd)
        out = []
        for key in sorted(puzzle_fd.glyphs):
            rec = puzzle_fd.glyphs[key]
            if rec.vertices is None:
                raise NoSolution(f"puzzle glyph {key!r} has no vertex chain")
            try:
                out.append(font.decode(rec.vertices))
            except NotAChain as exc:
                raise NotAChain(f"puzzle glyph {key!r}: {exc}") from exc
            except NoMatch as exc:
                raise NoSolution(f"puzzle glyph {key!r}: {exc}") from exc
            except AmbiguousMatch as exc:
                raise AmbiguousSolution(f"puzzle glyph {key!r}: {exc}") from exc
        return "".join(out), None


def _conveyer_scene(disks, belt) -> VectorScene:
    """The disks, and the belt of `belt` around them unless it is None."""
    scene = VectorScene()
    for c in disks:
        scene.add_circle(c, 1.0, "disk", filled=True)
    if belt is not None:
        for el in conveyer.compute_belt(disks, belt).elements:
            if isinstance(el, Segment):
                scene.add_polyline([el.a, el.b], "belt")
            elif arc_extent(el) > 0.0:
                scene.add_arc(el, "belt")
    return scene


class _Conveyer(FontKind):
    keywords = ("disk", "belt")

    def record(self, payload):
        disks = tuple(payload.get("disks", ()))
        if not disks:
            raise ValueError("has no disks")
        return ConveyerRecord(disks=disks, belt=payload.get("belt"))

    def lines(self, rec):
        out = [f"disk {_num_text(d[0])} {_num_text(d[1])}" for d in rec.disks]
        if rec.belt is not None:
            out.append("belt " + " ".join(f"{i}{'+' if o == CCW else '-'}" for i, o in rec.belt))
        return out

    def check(self, fd, report):
        prints = {}
        for char, rec in sorted(fd.glyphs.items()):
            try:
                disks = conveyer.check_disk_set(rec.disks)
            except ValueError as exc:
                report.add(f"glyph {char!r}: {exc}")
                continue
            prints.setdefault(conveyer.fingerprint(disks), []).append(char)
            if rec.belt is not None:
                try:
                    vr = conveyer.validate_belt(disks, rec.belt)
                except InvalidSpec as exc:
                    report.add(f"glyph {char!r}: belt does not realize: {exc}")
                    continue
                if not vr.all_ok:
                    report.add(f"glyph {char!r}: belt fails validation: {vr}")
        for chars in prints.values():
            if len(chars) > 1:
                report.add(f"glyphs {chars} share a disk configuration fingerprint")

    def render(self, fd, text, variant, seed):
        for ch in text:
            rec = fd.glyphs[ch]
            if variant == "puzzle":
                yield _conveyer_scene(rec.disks, None), ConveyerRecord(disks=rec.disks)
            else:
                yield _conveyer_scene(rec.disks, rec.belt), None

    def decode(self, font_fd, puzzle_fd):
        """Match each disk configuration's fingerprint to a letter, then search its belt.

        The search takes the first belt it finds: a letter needs only one.  A
        configuration is searched once per call, however often it repeats,
        and only after it has matched a letter.
        """
        by_print: dict = {}
        for ch, rec in font_fd.glyphs.items():
            by_print.setdefault(conveyer.fingerprint(rec.disks), []).append(ch)
        has_belt: dict = {}
        out, scenes = [], []
        for key in sorted(puzzle_fd.glyphs):
            rec = puzzle_fd.glyphs[key]
            try:
                fp = conveyer.fingerprint(rec.disks)
            except ValueError as exc:
                raise NoSolution(f"puzzle glyph {key!r}: {exc}") from exc
            letters = by_print.get(fp, [])
            if not letters:
                raise NoSolution(f"puzzle glyph {key!r}: configuration matches no letter")
            if len(letters) > 1:
                raise AmbiguousSolution(f"puzzle glyph {key!r} matches letters {letters}")
            if fp not in has_belt:
                has_belt[fp] = next(conveyer.iter_belts(rec.disks), None) is not None
            if not has_belt[fp]:
                raise NoSolution(f"puzzle glyph {key!r}: no valid belt exists")
            out.append(letters[0])
            # the letter's belt indexes the letter's own disk order
            letter = font_fd.glyphs[letters[0]]
            scenes.append(_conveyer_scene(letter.disks, letter.belt))
        return "".join(out), scenes


class _Maze(FontKind):
    keywords = ("size", "wall")

    def record(self, payload):
        if "size" not in payload:
            raise ValueError("is missing its 'size' line")
        w, h = payload["size"]
        return GridMaze.from_edges(w, h, payload.get("walls", ()))

    def lines(self, rec):
        return [f"size {rec.width} {rec.height}"] + [
            f"wall {x1} {y1} {x2} {y2}" for (x1, y1), (x2, y2) in rec.sorted_walls()]

    def check(self, fd, report):
        # GridMaze.from_edges enforced the structural invariants; the puzzle
        # variant glues crease patterns side by side, which needs one height
        heights = sorted({rec.height for rec in fd.glyphs.values()})
        if len(heights) > 1:
            report.add(f"maze glyphs have different heights {heights}")

    def render(self, fd, text, variant, seed):
        if variant == "solved":
            for ch in text:
                yield maze.render_maze_2d(fd.glyphs[ch]), None
        elif text:
            # crease patterns glue into one sheet instead of spacing apart
            sheet = maze.generate_crease_pattern(fd.glyphs[text[0]], 1)
            for ch in text[1:]:
                sheet = maze.compose(sheet, maze.generate_crease_pattern(fd.glyphs[ch], 1), "right")
            yield maze.render_crease_pattern(sheet), None


class _Hinged(FontKind):
    keywords = ("chain", "cell")

    def record(self, payload):
        cells = tuple(payload.get("cells", ()))
        if not cells:
            raise ValueError("has no cells")
        return cells

    def lines(self, rec):
        return [f"cell {c.sx} {c.sy} {c.diagonal} {c.half}" for c in rec]

    def check(self, fd, report):
        if fd.chain is None:
            report.add("hinged font is missing its 'chain' line")
        for char, rec in sorted(fd.glyphs.items()):
            pr = hinged.validate_polyabolo(rec, 32)
            if pr.cell_count != 32:
                report.add(f"glyph {char!r}: has {pr.cell_count} cells, expected 32")
            if not pr.connected:
                report.add(f"glyph {char!r}: cells are not edge-connected")
            if not pr.no_overlap:
                report.add(f"glyph {char!r}: cells overlap")
            if pr.ok and abs(pr.area - 16.0) > 1e-12:
                report.add(f"glyph {char!r}: area {pr.area} != 16")
        if fd.chain is not None and fd.chain.n_pieces != 128:
            report.add(f"chain has {fd.chain.n_pieces} pieces, expected 128")

    def render(self, fd, text, variant, seed):
        for ch in text:
            if variant == "puzzle":
                yield hinged.render_chain_strip(fd.chain), None
            else:
                yield hinged.render_polyabolo(fd.glyphs[ch]), None


class _Cane(FontKind):
    keywords = ("subcane", "twist")

    def record(self, payload):
        if "twist" not in payload:
            raise ValueError("is missing its 'twist' line")
        return CaneRecord(CaneCrossSection(tuple(payload.get("subcanes", ()))), payload["twist"])

    def lines(self, rec):
        return [f"subcane {_num_text(s.rho)} {_num_text(s.phi)} {_num_text(s.radius)} {s.color}"
                for s in rec.cross_section.subcanes] + [
            f"twist {_num_text(rec.twist.omega)} {_num_text(rec.twist.length)}"]

    def check(self, fd, report):
        designs = {}
        for char, rec in sorted(fd.glyphs.items()):
            key = tuple(sorted((round(s.rho, 9), round(s.phi, 9), round(s.radius, 9), s.color)
                               for s in rec.cross_section.subcanes))
            key = key + ((round(rec.twist.omega, 9),))
            designs.setdefault(key, []).append(char)
        for chars in designs.values():
            if len(chars) > 1:
                report.add(f"cane glyphs {chars} are indistinguishable")

    def render(self, fd, text, variant, seed):
        for ch in text:
            rec = fd.glyphs[ch]
            if variant == "puzzle":
                yield cane.render_side(rec.cross_section, rec.twist), None
            else:
                yield cane.render_top(rec.cross_section), None


KINDS = {
    "linkage": _Linkage(),
    "conveyer": _Conveyer(),
    "maze": _Maze(),
    "hinged": _Hinged(),
    "cane": _Cane(),
}
FONT_IDS = tuple(KINDS)
_KEYWORD_KIND = {kw: font_id for font_id, kind in KINDS.items() for kw in kind.keywords}


def kind_of(font_id: str) -> FontKind:
    if font_id not in KINDS:
        raise ValueError(f"unknown font id {font_id!r}")
    return KINDS[font_id]


# -- file helpers ---------------------------------------------------------------

def load_font_text(text: str) -> FontData:
    fd, diags = parse(text)
    if fd is None:
        raise ValueError("font data has errors:\n" + "\n".join(str(d) for d in diags))
    return fd


def load_font_file(path) -> FontData:
    from pathlib import Path
    p = Path(path)
    if not p.exists():
        raise MissingFontFile(f"no such font file: {p}")
    return load_font_text(p.read_text(encoding="utf-8"))


def builtin_font_dir():
    from importlib.resources import files
    return files("puzzlefonts") / "fonts"


def find_font_file(font_id: str, font_dir=None):
    """Resolve `<font_id>.pft` in font_dir, falling back to the packaged fonts."""
    from pathlib import Path
    name = f"{font_id}.pft"
    if font_dir is not None:
        cand = Path(font_dir) / name
        if cand.exists():
            return cand
    default = Path("fonts") / name
    if default.exists():
        return default
    packaged = builtin_font_dir() / name
    if packaged.is_file():
        return packaged
    raise MissingFontFile(f"cannot find {name} (searched {font_dir or './fonts'} and packaged data)")
