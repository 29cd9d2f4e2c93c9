"""Styled vector scenes and the deterministic SVG emitter.

A scene is an ordered list of primitives; order defines paint order.  Every
primitive carries one stroke class from STYLE_CLASSES, so renderers stay
decoupled from per-font styling.  Each primitive maps, bounds and writes
itself; polygons are always filled.  Placing a scene is an offset, not a
copy: `translated` keeps the primitives as they are and records the offset,
which `bounds` and `emit_svg` apply to each stored coordinate, so a laid-out
scene's primitives hold glyph-local coordinates.  Placing also keeps what
`bounds` needs of each run, so a placed run is boxed once however often it
is moved: the box of each group of polylines or polygons, taken unmoved and
moved by the offset when read, and each group of circles or arcs, which is
boxed where it is drawn.  `emit_svg` passes one
pixel frame to every primitive's `svg_element(frame, dx, dy)`; it holds two
dicts, one per axis, that live for the call, so each distinct moved
coordinate is formatted once per call.  A run placed more than once (its
kept boxes shared) and holding no arc is written once per call and dy, with
a slot for each x; each placement fills only those slots, with one `%`.
Emission is byte-deterministic:
every number is written in the one format `_COORD` (6 decimals, with -0
written 0.000000), fixed attribute order, no timestamps.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby

from .errors import EmptyScene
from .geometry import CCW, Arc, Point2, arc_contains_angle, arc_extent, point_on_circle

SCALE = 40.0          # pixels per unit
MARGIN = 0.6          # units of padding around the drawing
BACKGROUND = "#ffffff"

# class -> (stroke color, stroke width in units, dash pattern or None, fill)
_STYLE_TABLE = {
    "boundary": ("#000000", 0.060, None, "none"),
    "mountain": ("#b3202c", 0.030, None, "none"),
    "valley":   ("#2060b3", 0.030, "0.12,0.08", "none"),
    "belt":     ("#111111", 0.050, None, "none"),
    "disk":     ("#444444", 0.030, None, "#d9d9d9"),
    "wall":     ("#000000", 0.120, None, "none"),
    "chain":    ("#333333", 0.020, None, "none"),
    "piece":    ("#555555", 0.015, None, "#e8d9a0"),
    "hinge":    ("#b3202c", 0.020, None, "#b3202c"),
    "envelope": ("#666666", 0.025, None, "none"),
    "guide":    ("#bbbbbb", 0.010, "0.05,0.05", "none"),
    "strand_a": ("#1f3b8c", 0.030, None, "#1f3b8c"),
    "strand_b": ("#b3202c", 0.030, None, "#b3202c"),
    "strand_c": ("#1e7d32", 0.030, None, "#1e7d32"),
    "strand_d": ("#b37d20", 0.030, None, "#b37d20"),
    "strand_e": ("#6a1fb3", 0.030, None, "#6a1fb3"),
    "strand_f": ("#0f8c8c", 0.030, None, "#0f8c8c"),
}
STYLE_CLASSES = frozenset(_STYLE_TABLE)


_COORD = "%.6f"  # the one number format; a value that rounds to -0 is written 0.000000


def _non_finite(text: str) -> ValueError:
    """The error for a number, or the page bounds, that holds a nan or inf."""
    return ValueError(f"refusing to write a non-finite coordinate: {text!r}")


def _fmt(value: float) -> str:
    text = _COORD % value
    if "n" in text:  # a formatted finite number has no letter n
        raise _non_finite(text)
    return "0.000000" if text == "-0.000000" else text


class _Texts(dict):
    """Moved coordinate -> its page text, formatted the first time it is met.

    One per axis, living for one `emit_svg` call.  `pixel(v)` is the page
    number of the moved coordinate v = x + dx, and ((x + dx) - min_x + m) * s
    is (v - min_x + m) * s, so each text is the `_fmt` of the number a writer
    that formats in place computes.  Keys equal as floats give equal texts:
    the only equal keys that differ are 0.0 and -0.0, for which v - min_x (or
    max_y - v) differs at most in the sign of a zero, and adding the nonzero
    MARGIN maps both to the same number.  A nan or inf is never stored:
    `_fmt` refuses it at each lookup.
    """

    def __init__(self, pixel):
        self.pixel = pixel

    def __missing__(self, v: float) -> str:
        text = self[v] = _fmt(self.pixel(v))
        return text


def _paint(color: str, width: float, dash: str | None, fill: str) -> tuple[str, str]:
    """A style's (fill, stroke attributes), formatted once at import."""
    stroke = (f'stroke="{color}" stroke-width="{_fmt(width * SCALE)}" '
              f'stroke-linecap="round" stroke-linejoin="round"')
    if dash is not None:
        stroke += ' stroke-dasharray="' + ",".join(_fmt(float(d) * SCALE) for d in dash.split(",")) + '"'
    return fill, stroke


_PAINT = {style: _paint(*spec) for style, spec in _STYLE_TABLE.items()}


def check_style(style: str) -> str:
    if style not in STYLE_CLASSES:
        raise ValueError(f"unknown style class {style!r}")
    return style


def _points(points, shape: str, style: str) -> tuple:
    """The points of a polyline or polygon, which has at least one (a box needs one)."""
    points = tuple(Point2(*p) for p in points)
    if not points:
        raise ValueError(f"refusing an empty {shape} of style {style!r}")
    return points


# Each primitive is the one place that knows its shape.  `mapped(s, dx, dy)` is
# the one affine map of the library: every point p goes to (p.x * s + dx,
# p.y * s + dy) and every radius r to r * s.  For primitives moved by (dx, dy),
# `svg_element(frame, dx, dy)` writes one in the emitter's pixel frame
# (x_texts, y_texts, scale), whose `_Texts` give the text of a moved x at
# (x - min_x + margin) * scale and of a moved y at (max_y - y + margin) *
# scale, each number in the one format `_COORD`.  A group of primitives of
# one class is boxed in two steps, so that a placed run can keep the first: the class's `keep_box(prims)` gives
# what the group keeps, and `kept_box(kept, dx, dy)` the group's bounding box
# moved by (dx, dy).  Both move coordinates in the order `mapped(1.0, dx, dy)`
# does (the point or center first, then +- r or r * cos), so what they give is
# bit for bit what the mapped copies would give.


def _box(points) -> tuple:
    xs, ys = zip(*points)
    return (min(xs), min(ys), max(xs), max(ys))


def _keep(run) -> list:
    """(class, kept) for each group of one class in a run of primitives."""
    return [(kind, kind.keep_box(list(group))) for kind, group in groupby(run, type)]


class _BoxPoints:
    """Bounded by the moved points that `box_points(dx, dy)` gives."""

    @staticmethod
    def keep_box(prims) -> list:
        # (cx + dx) - r may differ from (cx - r) + dx, so these are boxed
        # where they are drawn
        return prims

    @staticmethod
    def kept_box(prims, dx: float, dy: float) -> tuple:
        return _box([p for prim in prims for p in prim.box_points(dx, dy)])


@dataclass(frozen=True)
class Polyline:
    points: tuple
    style: str

    def mapped(self, s: float, dx: float, dy: float) -> "Polyline":
        return type(self)(tuple([Point2(x * s + dx, y * s + dy) for x, y in self.points]), self.style)

    @staticmethod
    def keep_box(lines) -> tuple:
        return _box([p for line in lines for p in line.points])

    @staticmethod
    def kept_box(box, dx: float, dy: float) -> tuple:
        # rounding is monotone, so moving the extremes gives the extremes of
        # the moved points without moving every point
        min_x, min_y, max_x, max_y = box
        return (min_x + dx, min_y + dy, max_x + dx, max_y + dy)

    def _svg_points(self, frame: tuple, dx: float, dy: float) -> str:
        xs, ys, _s = frame
        return " ".join([f"{xs[x + dx]},{ys[y + dy]}" for x, y in self.points])

    def svg_element(self, frame: tuple, dx: float, dy: float) -> str:
        return (f'<polyline points="{self._svg_points(frame, dx, dy)}" fill="none" '
                f'{_PAINT[self.style][1]}/>\n')


class Polygon(Polyline):
    """A closed polyline, always filled with its style's fill."""

    def svg_element(self, frame: tuple, dx: float, dy: float) -> str:
        fill, stroke = _PAINT[self.style]
        return (f'<polygon points="{self._svg_points(frame, dx, dy)}" fill="{fill}" '
                f'fill-opacity="0.55" {stroke}/>\n')


@dataclass(frozen=True)
class Circle(_BoxPoints):
    center: Point2
    radius: float
    style: str
    filled: bool = False

    def mapped(self, s: float, dx: float, dy: float) -> "Circle":
        c = self.center
        return Circle(Point2(c.x * s + dx, c.y * s + dy), self.radius * s, self.style, self.filled)

    def box_points(self, dx: float, dy: float) -> tuple:
        cx, cy = self.center
        cx, cy, r = cx + dx, cy + dy, self.radius
        return ((cx - r, cy - r), (cx + r, cy + r))

    def svg_element(self, frame: tuple, dx: float, dy: float) -> str:
        xs, ys, s = frame
        cx, cy = self.center
        fill, stroke = _PAINT[self.style]
        return (f'<circle cx="{xs[cx + dx]}" cy="{ys[cy + dy]}" r="{_fmt(self.radius * s)}" '
                f'fill="{fill if self.filled else "none"}" {stroke}/>\n')


@dataclass(frozen=True)
class ArcShape(_BoxPoints):
    arc: Arc
    style: str

    def mapped(self, s: float, dx: float, dy: float) -> "ArcShape":
        a = self.arc
        return ArcShape(Arc(Point2(a.center.x * s + dx, a.center.y * s + dy), a.radius * s,
                            a.start_angle, a.end_angle, a.orientation), self.style)

    def box_points(self, dx: float, dy: float) -> list:
        a = self.arc
        center = (a.center.x + dx, a.center.y + dy)
        probes = [a.start_angle, a.end_angle]
        probes += [c for c in (0.0, 90.0, 180.0, 270.0) if arc_contains_angle(a, c)]
        return [point_on_circle(center, a.radius, ang) for ang in probes]

    def svg_element(self, frame: tuple, dx: float, dy: float) -> str:
        xs, ys, s = frame
        a = self.arc
        center = (a.center.x + dx, a.center.y + dy)
        p0 = point_on_circle(center, a.radius, a.start_angle)
        p1 = point_on_circle(center, a.radius, a.end_angle)
        large = 1 if arc_extent(a) > 180.0 else 0
        sweep = 0 if a.orientation == CCW else 1  # y-flip inverts handedness
        r = _fmt(a.radius * s)
        return (f'<path d="M {xs[p0.x]} {ys[p0.y]} A {r} {r} 0 {large} {sweep} '
                f'{xs[p1.x]} {ys[p1.y]}" '
                f'fill="none" {_PAINT[self.style][1]}/>\n')


@dataclass
class VectorScene:
    primitives: list = field(default_factory=list)
    # one (end, dx, dy, kept) per placed run: primitives[previous end:end] are
    # drawn moved by (dx, dy), and kept is `_keep` of them; primitives after
    # the last end are drawn where they are.  A placed run is changed only by
    # these methods, which append after it, so what it keeps stays right.
    offsets: list = field(default_factory=list, init=False)

    def add_polyline(self, points, style: str) -> None:
        self.primitives.append(Polyline(_points(points, "polyline", style), check_style(style)))

    def add_circle(self, center, radius: float, style: str, filled: bool = False) -> None:
        radius = float(radius)
        if radius < 0.0:
            raise ValueError(f"refusing a circle of style {style!r} with negative radius {radius!r}")
        self.primitives.append(Circle(Point2(*center), radius, check_style(style), filled))

    def add_arc(self, arc: Arc, style: str) -> None:
        self.primitives.append(ArcShape(arc, check_style(style)))

    def add_polygon(self, points, style: str) -> None:
        self.primitives.append(Polygon(_points(points, "polygon", style), check_style(style)))

    def extend(self, other: "VectorScene") -> None:
        """Append `other`'s primitives, each keeping its offset."""
        if other.offsets:
            base = len(self.primitives)
            self.offsets = self._placed_runs()  # the unplaced tail stays put
            self.offsets += [(base + end, dx, dy, kept) for end, dx, dy, kept in other.offsets]
        self.primitives += other.primitives

    def translated(self, dx: float, dy: float) -> "VectorScene":
        """The scene moved by (dx, dy): the same primitives, with the offset recorded
        and each run's group boxes kept (see `_keep`)."""
        out = VectorScene(list(self.primitives))
        out.offsets = [(end, run_dx + dx, run_dy + dy, kept)
                       for end, run_dx, run_dy, kept in self._placed_runs()]
        return out

    def _placed_runs(self) -> list:
        """`offsets`, with the unplaced tail (if any) as a run placed at (0, 0)."""
        start = self.offsets[-1][0] if self.offsets else 0
        if start == len(self.primitives):
            return self.offsets
        return self.offsets + [(len(self.primitives), 0.0, 0.0, _keep(self.primitives[start:]))]

    def runs(self):
        """Each run of primitives in draw order, as (dx, dy, primitives)."""
        start = 0
        for end, dx, dy, _kept in self.offsets:
            yield dx, dy, self.primitives[start:end]
            start = end
        if start < len(self.primitives):
            yield 0.0, 0.0, self.primitives[start:]

    def style_classes(self) -> set:
        return {prim.style for prim in self.primitives}

    def bounds(self) -> tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y) over all primitives, as drawn."""
        boxes = [kind.kept_box(box, dx, dy)
                 for _end, dx, dy, kept in self._placed_runs() for kind, box in kept]
        if not boxes:
            return (0.0, 0.0, 0.0, 0.0)
        min_xs, min_ys, max_xs, max_ys = zip(*boxes)
        return (min(min_xs), min(min_ys), max(max_xs), max(max_ys))


class _Slots(list):
    """An x table that records each x asked for and writes a `%s` slot for it
    (no other text the writer produces holds a `%`)."""

    def __getitem__(self, x: float) -> str:
        self.append(x)
        return "%s"


@dataclass(frozen=True)
class SvgConfig:
    allow_empty: bool = False


def emit_svg(scene: VectorScene, config: SvgConfig = SvgConfig()) -> str:
    """Serialize a scene to an SVG 1.1 document (byte-deterministic), writing
    a run placed more than once from one template per call and dy."""
    if not scene.primitives:
        if not config.allow_empty:
            raise EmptyScene("refusing to emit an empty scene")
        return ('<?xml version="1.0" encoding="UTF-8"?>\n'
                '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                'width="1" height="1" viewBox="0 0 1 1"></svg>\n')

    min_x, min_y, max_x, max_y = scene.bounds()
    m, s = MARGIN, SCALE
    width = (max_x - min_x + 2 * m) * s
    height = (max_y - min_y + 2 * m) * s
    # the numbers written lie within the page, so a coordinate that
    # overflowed shows here as an infinite page; min and max carry a nan
    # only from the scene's first point into the page, a later one is met
    # when it is written
    if math.isnan(width) or math.isnan(height):
        raise _non_finite(f"bounds {min_x!r}, {min_y!r}, {max_x!r}, {max_y!r}")
    if not (math.isfinite(width) and math.isfinite(height)):
        raise ValueError(f"the drawing is too large to write: page {width!r} x {height!r}")
    # each distinct moved coordinate is formatted once per call; y is flipped,
    # since the SVG y axis points down
    xs, ys = _Texts(lambda x: (x - min_x + m) * s), _Texts(lambda y: (max_y - y + m) * s)
    frame = (xs, ys, s)

    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n'
             f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{_fmt(width)}" height="{_fmt(height)}" '
             f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n',
             f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" '
             f'fill="{BACKGROUND}" stroke="none"/>\n']
    # runs sharing a kept object draw the same primitives, so one placed more
    # than once is written once per dy at dx = -0.0 (x + -0.0 is x bit for
    # bit), with a slot per x that each placement fills with the text of x + dx.
    # Not one with an arc: its end x (cx + dx) + r cos(a) is not (cx + r cos(a)) + dx.
    placed = Counter([id(kept) for _end, _dx, _dy, kept in scene.offsets if ArcShape not in dict(kept)])
    templates, start = {}, 0
    for end, dx, dy, kept in scene.offsets:
        run, start, key = scene.primitives[start:end], end, (id(kept), dy)
        if placed[id(kept)] < 2:
            parts += [prim.svg_element(frame, dx, dy) for prim in run]
            continue
        if key not in templates:
            slots = _Slots()
            templates[key] = "".join([prim.svg_element((slots, ys, s), -0.0, dy) for prim in run]), slots
        form, slots = templates[key]
        parts.append(form % tuple([xs[x + dx] for x in slots]))
    # the unplaced tail, which `bounds` has boxed, occurs once
    parts += [prim.svg_element(frame, 0.0, 0.0) for prim in scene.primitives[start:]]
    parts.append("</svg>\n")
    return "".join(parts)
