"""Font data model, the line-oriented `.pft` format, and the font-kind table.

One file holds one font.  The grammar is line based: `#` lines are comments,
`font <id> <version>` must come first, `glyph <char>` opens a record, and
payload lines are keyword-led.  Parsing is total: it never throws on bad
input, it collects diagnostics with exact line/column positions and returns
no FontData when any error was seen.

Every other line is a payload line, and its grammar lives in the `keywords`
table of the font kind that owns it: one `Line` per keyword gives the token
reader of each argument, how the arguments build a value, and where the value
goes.  The parser reads every payload line through that table with one
generic reader, so it knows only `font` and `glyph` itself.

`KINDS` has one entry per font id and is the one place that knows a font
kind: its payload line grammar, how its glyph records are built, written and
validated, how its glyphs render in the solved and puzzle variants, and how
one puzzle glyph reads back as a letter where a machine solver exists.  A new
font is one entry here plus its domain module.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field

from . import cane, conveyer, hinged, linkage, maze
from .cane import CaneCrossSection, Subcane, TwistParams
from .conveyer import CCW, CW
from .errors import (
    AmbiguousSolution, FieldError, InvalidSpec, MissingFontFile, NoSolution, NotAChain,
)
from .geometry import Point2, Segment, arc_extent
from .hinged import CORNERS, Cell, HingedChain, check_cell
from .maze import GridMaze
from .scene import VectorScene

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


# -- parser -------------------------------------------------------------------

class _Tok:
    __slots__ = ("text", "col")

    def __init__(self, text: str, col: int):
        self.text = text
        self.col = col


_TOKEN = re.compile(r"\S+")


def _tokenize(line: str) -> list[_Tok]:
    return [_Tok(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]


# Token readers: each turns one argument token into a value, or raises a
# ValueError whose message the parser reports at that token.

def _number(text: str, convert=float):
    try:
        value = convert(text)
    except ValueError:
        kind = "integer" if convert is int else "number"
        raise ValueError(f"expected {kind}, got {text!r}") from None
    if not math.isfinite(float(text)):  # nan, inf, and overflowing values
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _integer(text: str) -> int:
    return _number(text, int)


def _angle(text: str) -> float:
    value = _number(text)
    if not 0.0 <= value <= 360.0:
        raise ValueError(f"angle {value} outside [0, 360]")
    return value


def _belt_entry(text: str) -> tuple:
    body, sign = text[:-1], text[-1:]
    if sign not in "+-" or not body.isdecimal():
        raise ValueError(f"belt entry must look like '3+' or '0-', got {text!r}")
    return int(body), CCW if sign == "+" else CW


def _hinge(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2 or any(p not in CORNERS for p in parts):
        raise ValueError(f"hinge pattern token must look like 'Q:P', got {text!r}")
    return parts[0], parts[1]


def _strand(text: str) -> str:
    return text if text.startswith("strand_") else f"strand_{text}"


def _values(*values) -> tuple:
    return values


@dataclass(frozen=True)
class Line:
    """The grammar of one payload keyword's line.

    usage   what the arguments should be, for the arity error; `{got}` is
            replaced by the number of arguments given
    args    one token reader per argument
    key     where the built value goes: under `key` itself when it is the
            keyword (one such line per glyph), appended to the list under
            `key` otherwise, and None for the font's chain
    build   the value from the read arguments; a FieldError is reported at
            the argument of the field it names, any other ValueError at the
            first argument
    rest    token reader for one or more trailing arguments, or None
    fields  the argument names a FieldError from `build` can name
    """

    usage: str
    args: tuple
    key: str | None
    build: Callable = _values
    rest: Callable | None = None
    fields: tuple = ()


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
            if head.text == "font":
                self._kw_font(toks, lineno)
                if self.font_id is None:  # no font kind to read the later lines by
                    return None, self.diags
            elif head.text == "glyph":
                self._kw_glyph(toks, lineno)
            elif head.text in _KEYWORD_KIND:
                line = self._payload_guard(head, lineno)
                if line is not None:
                    self._payload_line(line, toks, lineno)
            else:
                self.error(lineno, head.col, f"unknown keyword {head.text!r}")
        self.finish_glyph()
        if self.font_id is None and not self.diags:
            self.error(1, 1, "file must start with a 'font <id> <version>' line")
        if any(d.severity == "error" for d in self.diags):
            return None, self.diags
        fd = FontData(self.font_id, self.version, self.glyphs, self.chain)
        return fd, self.diags

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
        self.font_id = toks[1].text
        try:
            self.version = _integer(toks[2].text)
        except ValueError as exc:
            self.error(lineno, toks[2].col, str(exc))

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

    def _payload_guard(self, head: _Tok, lineno: int) -> Line | None:
        """The keyword's Line, or None after reporting why it may not stand here."""
        owner = _KEYWORD_KIND[head.text]
        if owner != self.font_id:
            self.error(lineno, head.col, f"{head.text!r} lines belong to the {owner} font")
            return None
        line = KINDS[owner].keywords[head.text]
        if line.key is None:
            if self.chain is not None:
                self.error(lineno, head.col, f"duplicate {head.text!r} line")
                return None
        elif self.cur_char is None:
            self.error(lineno, head.col, f"{head.text!r} line outside any glyph")
            return None
        elif head.text in self.cur:  # one-per-glyph keywords store under their own name
            self.error(lineno, head.col, f"glyph already has a {head.text!r} line")
            return None
        return line

    def _payload_line(self, line: Line, toks, lineno):
        """Read, build and store one payload line; report each bad argument at its token."""
        head, args = toks[0], toks[1:]
        fixed = len(line.args)
        if len(args) <= fixed if line.rest else len(args) != fixed:
            self.error(lineno, head.col, f"{head.text!r} needs " + line.usage.format(got=len(args)))
            return
        readers = line.args + (line.rest,) * (len(args) - fixed)
        values = []
        for read, tok in zip(readers, args):
            try:
                values.append(read(tok.text))
            except ValueError as exc:
                self.error(lineno, tok.col, str(exc))
        if len(values) < len(args):
            return
        try:
            value = line.build(*values)
        except ValueError as exc:
            at = line.fields.index(exc.field) if isinstance(exc, FieldError) else 0
            self.error(lineno, args[at].col, str(exc))
            return
        if line.key is None:
            self.chain = value
        elif line.key == head.text:
            self.cur[line.key] = value
        else:
            self.cur.setdefault(line.key, []).append(value)


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

    keywords                    {keyword: Line}, the grammar of each payload
                                line the kind owns, and the payload key its
                                value is stored under
    record(payload)             glyph record of one glyph's payload values;
                                ValueError when the payload is incomplete
    lines(rec)                  the payload lines `write` emits for a record
    check(fd, report)           add the per-glyph and cross-glyph issues
    render(fd, text, variant, seed)
                                yield (scene, puzzle record or None) for
                                each piece `typeset` lays out; layout only
                                reads a scene, so one may be yielded twice,
                                and a piece that depends only on its letter
                                is built once per call (`once_per_letter`)
    reader(font_fd)             read(record) -> letter of one puzzle glyph,
                                or NoSolution, AmbiguousSolution, NotAChain;
                                None for the kinds without a machine solver

    Kinds call domain functions through their module (`cane.render_side`), so
    rebinding a module function, as a tracer does, reaches every call.
    """

    keywords: dict = {}
    reader = None

    @staticmethod
    def once_per_letter(text, build):
        """Yield build(ch) for each letter of text, built once per distinct letter.

        A repeated letter gets the same objects again, so layout boxes its
        scene once; nothing is kept after the call.
        """
        built: dict = {}
        for ch in text:
            if ch not in built:
                built[ch] = build(ch)
            yield built[ch]


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
    keywords = {
        "angles": Line("exactly 5 values, got {got}", (_angle,) * 5, "angles"),
        "vertex": Line("x and y", (_number, _number), "vertices", Point2),
    }

    def record(self, payload):
        angles = payload.get("angles")
        vertices = payload.get("vertices")
        if (angles is None) == (vertices is None):
            raise ValueError("needs an 'angles' line or 'vertex' lines, not both")
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
                try:
                    linkage.check_chain(rec.vertices)
                except NotAChain as exc:
                    report.add(f"glyph {char!r}: {exc}")
        for l1, l2 in linkage.LinkageFont(seqs).uniqueness_failures():
            report.add(f"letters {l1!r} and {l2!r} read as the same chain up to reversal")

    def render(self, fd, text, variant, seed):
        font = linkage_font_of(fd)
        if variant == "solved":
            yield from self.once_per_letter(
                text, lambda ch: (_linkage_scene(font.canonical_glyph(ch)), None))
            return
        for pos, ch in enumerate(text):  # each position draws its own random state
            glyph = font.random_puzzle_glyph(ch, seed * 1_000 + pos)
            yield _linkage_scene(glyph), LinkageRecord(vertices=glyph.vertices)

    def reader(self, font_fd):
        """Measure a chain's joint angles and look the sequence up."""
        font = linkage_font_of(font_fd)

        def read(rec):
            if rec.vertices is None:
                raise NoSolution("has no vertex chain")
            return font.decode(rec.vertices)
        return read


def _conveyer_scene(disks, belt) -> VectorScene:
    """The disks; with a belt, the belt too, and both drawn in the set's frame."""
    if belt is not None:
        disks = conveyer.check_disk_set(disks)
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


# `check_disk_set` is quadratic in the disk count and runs on every glyph in
# `check`, the solved render and the reader.  The shipped glyphs have at most
# 6 disks and the belt search runs out of budget from 10, so refuse far more.
MAX_GLYPH_DISKS = 64


class _Conveyer(FontKind):
    keywords = {
        "disk": Line("x and y", (_number, _number), "disks", Point2),
        "belt": Line("at least one winding entry", (), "belt", rest=_belt_entry),
    }

    def record(self, payload):
        disks = tuple(payload.get("disks", ()))
        if not disks:
            raise ValueError("has no disks")
        if len(disks) > MAX_GLYPH_DISKS:
            raise ValueError(f"has {len(disks)} disks, more than the {MAX_GLYPH_DISKS} allowed")
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
                fp = conveyer.fingerprint(disks)
            except ValueError as exc:
                report.add(f"glyph {char!r}: {exc}")
                continue
            prints.setdefault(fp, []).append(char)
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
        def build(ch):
            rec = fd.glyphs[ch]
            if variant == "puzzle":
                return _conveyer_scene(rec.disks, None), ConveyerRecord(disks=rec.disks)
            return _conveyer_scene(rec.disks, rec.belt), None
        return self.once_per_letter(text, build)

    def reader(self, font_fd):
        """Match a disk configuration's fingerprint to a letter, then search its belt.

        The search takes the first belt it finds: a letter needs only one.  A
        configuration is searched once per reader, however often it repeats,
        and only after it has matched a letter.  A font glyph that is not a
        valid disk set raises ValueError, naming the glyph.
        """
        by_print: dict = {}
        for ch, rec in sorted(font_fd.glyphs.items()):
            try:
                fp = conveyer.fingerprint(rec.disks)
            except ValueError as exc:
                raise ValueError(f"font glyph {ch!r}: {exc}") from exc
            by_print.setdefault(fp, []).append(ch)
        has_belt: dict = {}

        def read(rec):
            try:
                disks = conveyer.check_disk_set(rec.disks)
                fp = conveyer.fingerprint(disks)
            except ValueError as exc:
                raise NoSolution(str(exc)) from exc
            letters = by_print.get(fp, [])
            if not letters:
                raise NoSolution("configuration matches no letter")
            if len(letters) > 1:
                raise AmbiguousSolution(f"matches letters {letters}")
            if fp not in has_belt:
                has_belt[fp] = next(conveyer.iter_belts(disks), None) is not None
            if not has_belt[fp]:
                raise NoSolution("no valid belt exists")
            return letters[0]
        return read


class _Maze(FontKind):
    keywords = {
        "size": Line("width and height", (_integer, _integer), "size"),
        "wall": Line("x1 y1 x2 y2", (_integer,) * 4, "walls"),
    }

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
            yield from self.once_per_letter(
                text, lambda ch: (maze.render_maze_2d(fd.glyphs[ch]), None))
        elif text:
            # crease patterns glue into one sheet instead of spacing apart
            sheet = maze.generate_crease_pattern(fd.glyphs[text[0]], 1)
            for ch in text[1:]:
                sheet = maze.compose(sheet, maze.generate_crease_pattern(fd.glyphs[ch], 1), "right")
            yield maze.render_crease_pattern(sheet), None


# A chain's hinges are expanded as it is read, at a cost linear in its piece
# count; the font's chain has 128 (`check` reports others), so refuse far more.
MAX_CHAIN_PIECES = 1024


def _chain_length(n: int) -> int:
    if n > MAX_CHAIN_PIECES:
        raise ValueError(f"chain has {n} pieces, more than the {MAX_CHAIN_PIECES} allowed")
    return n


class _Hinged(FontKind):
    keywords = {
        "chain": Line("a piece count and at least one exit:entry pattern", (_integer,), None,
                      lambda n, *pattern: HingedChain.cyclic(_chain_length(n), pattern), rest=_hinge),
        "cell": Line("x y NE|NW first|second", (_integer, _integer, str, str), "cells",
                     lambda *cell: check_cell(cell), fields=Cell._fields),
    }

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
        if fd.chain is not None and fd.chain.n_pieces != 128:
            report.add(f"chain has {fd.chain.n_pieces} pieces, expected 128")

    def render(self, fd, text, variant, seed):
        if variant == "puzzle":
            strip = hinged.render_chain_strip(fd.chain)  # one chain for every letter
            for _ch in text:
                yield strip, None
        else:
            yield from self.once_per_letter(
                text, lambda ch: (hinged.render_polyabolo(fd.glyphs[ch]), None))


class _Cane(FontKind):
    keywords = {
        "subcane": Line("rho phi r color", (_number, _number, _number, _strand), "subcanes",
                        Subcane, fields=("rho", "phi", "radius", "color")),
        "twist": Line("omega and length", (_number, _number), "twist",
                      TwistParams, fields=("omega", "length")),
    }

    def record(self, payload):
        if "twist" not in payload:
            raise ValueError("is missing its 'twist' line")
        return CaneRecord(CaneCrossSection(tuple(payload.get("subcanes", ()))), payload["twist"])

    def lines(self, rec):
        return [f"subcane {_num_text(s.rho)} {_num_text(s.phi)} {_num_text(s.radius)} {s.color}"
                for s in rec.cross_section.subcanes] + [
            f"twist {_num_text(rec.twist.omega)} {_num_text(rec.twist.length)}"]

    def check(self, fd, report):
        # glyphs are keyed by what they draw: a phase is an angle, a strand on
        # the axis has none, and an untwisted strand shows only rho * cos(phi)
        def drawn(sub, omega):
            if omega == 0.0:
                place = (round(sub.rho * math.cos(math.radians(sub.phi)), 9),)
            elif round(sub.rho, 9) == 0.0:
                place = (0.0,)
            else:
                place = (round(sub.rho, 9), round(sub.phi % 360.0, 9) % 360.0)
            return place + (round(sub.radius, 9), sub.color)

        designs = {}
        for char, rec in sorted(fd.glyphs.items()):
            omega = round(rec.twist.omega, 9)
            key = tuple(sorted(drawn(s, omega) for s in rec.cross_section.subcanes)) + (omega,)
            designs.setdefault(key, []).append(char)
        for chars in designs.values():
            if len(chars) > 1:
                report.add(f"cane glyphs {chars} are indistinguishable")

    def render(self, fd, text, variant, seed):
        def build(ch):
            rec = fd.glyphs[ch]
            if variant == "puzzle":
                return cane.render_side(rec.cross_section, rec.twist), None
            return cane.render_top(rec.cross_section), None
        return self.once_per_letter(text, build)


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
