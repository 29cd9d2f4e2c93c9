"""Styled vector scenes and the deterministic SVG emitter.

A scene is an ordered list of primitives; order defines paint order.  Every
primitive carries one stroke class from STYLE_CLASSES, so renderers stay
decoupled from per-font styling.  Each primitive maps, bounds and writes
itself; polygons are always filled.  Emission is byte-deterministic: fixed
6-decimal coordinate formatting, fixed attribute order, no timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _fmt(value: float) -> str:
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def _paint(color: str, width: float, dash: str | None, fill: str) -> tuple[str, str]:
    """A style's (fill, stroke attributes), formatted once at import."""
    stroke = (f'stroke="{color}" stroke-width="{_fmt(width * SCALE)}" '
              f'stroke-linecap="round" stroke-linejoin="round"')
    if dash is not None:
        stroke += ' stroke-dasharray="' + ",".join(_fmt(float(d) * SCALE) for d in dash.split(",")) + '"'
    return fill, stroke


_PAINT = {style: _paint(*spec) for style, spec in _STYLE_TABLE.items()}


def _check_style(style: str) -> str:
    if style not in STYLE_CLASSES:
        raise ValueError(f"unknown style class {style!r}")
    return style


# Each primitive is the one place that knows its shape.  `mapped(s, dx, dy)` is
# the one affine map of the library: every point p goes to (p.x * s + dx,
# p.y * s + dy) and every radius r to r * s.  `box_points()` gives the points its
# bounding box must cover; `svg_element(tx, ty)` writes its element through the
# emitter's unit-to-pixel maps.

@dataclass(frozen=True)
class Polyline:
    points: tuple
    style: str

    def mapped(self, s: float, dx: float, dy: float) -> "Polyline":
        return type(self)(tuple([Point2(x * s + dx, y * s + dy) for x, y in self.points]), self.style)

    def box_points(self) -> tuple:
        return self.points

    def _svg_points(self, tx, ty) -> str:
        return " ".join(f"{_fmt(tx(p.x))},{_fmt(ty(p.y))}" for p in self.points)

    def svg_element(self, tx, ty) -> str:
        return f'<polyline points="{self._svg_points(tx, ty)}" fill="none" {_PAINT[self.style][1]}/>\n'


class Polygon(Polyline):
    """A closed polyline, always filled with its style's fill."""

    def svg_element(self, tx, ty) -> str:
        fill, stroke = _PAINT[self.style]
        return (f'<polygon points="{self._svg_points(tx, ty)}" fill="{fill}" '
                f'fill-opacity="0.55" {stroke}/>\n')


@dataclass(frozen=True)
class Circle:
    center: Point2
    radius: float
    style: str
    filled: bool = False

    def mapped(self, s: float, dx: float, dy: float) -> "Circle":
        c = self.center
        return Circle(Point2(c.x * s + dx, c.y * s + dy), self.radius * s, self.style, self.filled)

    def box_points(self) -> tuple:
        c, r = self.center, self.radius
        return (Point2(c.x - r, c.y - r), Point2(c.x + r, c.y + r))

    def svg_element(self, tx, ty) -> str:
        fill, stroke = _PAINT[self.style]
        return (f'<circle cx="{_fmt(tx(self.center.x))}" cy="{_fmt(ty(self.center.y))}" '
                f'r="{_fmt(self.radius * SCALE)}" fill="{fill if self.filled else "none"}" {stroke}/>\n')


@dataclass(frozen=True)
class ArcShape:
    arc: Arc
    style: str

    def mapped(self, s: float, dx: float, dy: float) -> "ArcShape":
        a = self.arc
        return ArcShape(Arc(Point2(a.center.x * s + dx, a.center.y * s + dy), a.radius * s,
                            a.start_angle, a.end_angle, a.orientation), self.style)

    def box_points(self) -> list:
        a = self.arc
        probes = [a.start_angle, a.end_angle]
        probes += [c for c in (0.0, 90.0, 180.0, 270.0) if arc_contains_angle(a, c)]
        return [point_on_circle(a.center, a.radius, ang) for ang in probes]

    def svg_element(self, tx, ty) -> str:
        a = self.arc
        p0 = point_on_circle(a.center, a.radius, a.start_angle)
        p1 = point_on_circle(a.center, a.radius, a.end_angle)
        large = 1 if arc_extent(a) > 180.0 else 0
        sweep = 0 if a.orientation == CCW else 1  # y-flip inverts handedness
        r = _fmt(a.radius * SCALE)
        return (f'<path d="M {_fmt(tx(p0.x))} {_fmt(ty(p0.y))} A {r} {r} 0 {large} {sweep} '
                f'{_fmt(tx(p1.x))} {_fmt(ty(p1.y))}" fill="none" {_PAINT[self.style][1]}/>\n')


@dataclass
class VectorScene:
    primitives: list = field(default_factory=list)

    def add_polyline(self, points, style: str) -> None:
        self.primitives.append(Polyline(tuple(Point2(*p) for p in points), _check_style(style)))

    def add_circle(self, center, radius: float, style: str, filled: bool = False) -> None:
        self.primitives.append(Circle(Point2(*center), float(radius), _check_style(style), filled))

    def add_arc(self, arc: Arc, style: str) -> None:
        self.primitives.append(ArcShape(arc, _check_style(style)))

    def add_polygon(self, points, style: str) -> None:
        self.primitives.append(Polygon(tuple(Point2(*p) for p in points), _check_style(style)))

    def extend(self, other: "VectorScene") -> None:
        self.primitives.extend(other.primitives)

    def translated(self, dx: float, dy: float) -> "VectorScene":
        return VectorScene([prim.mapped(1.0, dx, dy) for prim in self.primitives])

    def style_classes(self) -> set:
        return {prim.style for prim in self.primitives}

    def bounds(self) -> tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y) over all primitives."""
        points = [p for prim in self.primitives for p in prim.box_points()]
        if not points:
            return (0.0, 0.0, 0.0, 0.0)
        xs, ys = zip(*points)
        return (min(xs), min(ys), max(xs), max(ys))


@dataclass(frozen=True)
class SvgConfig:
    allow_empty: bool = False


def emit_svg(scene: VectorScene, config: SvgConfig = SvgConfig()) -> str:
    """Serialize a scene to an SVG 1.1 document (byte-deterministic)."""
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

    def tx(x: float) -> float:
        return (x - min_x + m) * s

    def ty(y: float) -> float:
        return (max_y - y + m) * s  # flip: SVG y axis points down

    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n'
             f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{_fmt(width)}" height="{_fmt(height)}" '
             f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n',
             f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" '
             f'fill="{BACKGROUND}" stroke="none"/>\n']
    parts += [prim.svg_element(tx, ty) for prim in scene.primitives]
    parts.append("</svg>\n")
    return "".join(parts)
