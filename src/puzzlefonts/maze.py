"""Origami-maze font: grid mazes and their crease patterns.

A maze is a 2D grid graph of unit wall edges.  Its crease pattern lives on a
paper rectangle scale_factor(h) times the maze bounding box.  The generator
lays every crease as a full-height pleat line inside the band of a lattice
column (vertical walls) or inside the owning cell-strip (horizontal walls,
whose row index sets the pleat spread), so crease endpoints only ever touch
the top and bottom paper edges.  That keeps the left/right boundary
interfaces empty, which is what lets any two same-height glyph patterns be
glued seamlessly, and it makes every interior vertex trivially pass the
local flat-foldability conditions the checker enforces.

The checker itself is general: it handles arbitrary axis-parallel and 45
degree crease sets, merging collinear same-assignment creases before vertex
analysis and testing Maekawa and Kawasaki at every interior vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InterfaceMismatch, Unsupported
from .geometry import point_segment_distance
from .scene import VectorScene

MOUNTAIN = "M"
VALLEY = "V"

_PTOL = 1e-7       # incidence tolerance for crease vertices, paper units
_ANG_ATOL = 1e-6   # degrees, Kawasaki sector sums


def _norm_edge(x1, y1, x2, y2) -> tuple:
    a, b = (x1, y1), (x2, y2)
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class GridMaze:
    width: int
    height: int
    walls: frozenset  # unit lattice edges ((x1,y1),(x2,y2)), endpoints sorted

    @staticmethod
    def from_edges(width: int, height: int, edges) -> "GridMaze":
        if width < 1 or height < 1:
            raise ValueError("maze dimensions must be positive")
        walls = set()
        for x1, y1, x2, y2 in edges:
            if not all(float(v).is_integer() for v in (x1, y1, x2, y2)):
                raise ValueError(f"wall endpoints must be integers: {(x1, y1, x2, y2)}")
            x1, y1, x2, y2 = int(x1), int(y1), int(x2), int(y2)
            dx, dy = abs(x2 - x1), abs(y2 - y1)
            if sorted((dx, dy)) != [0, 1]:
                raise ValueError(f"walls must be axis-aligned unit edges: {(x1, y1, x2, y2)}")
            for x, y in ((x1, y1), (x2, y2)):
                if not (0 <= x <= width and 0 <= y <= height):
                    raise ValueError(f"wall endpoint {(x, y)} outside {width}x{height} grid")
            walls.add(_norm_edge(x1, y1, x2, y2))
        return GridMaze(width, height, frozenset(walls))

    def sorted_walls(self) -> list:
        return sorted(self.walls)


def scale_factor(extrusion_height: int) -> int:
    """Per-side paper-to-footprint ratio: 1 tunnel unit plus 2h of wall."""
    h = int(extrusion_height)
    if h < 1:
        raise ValueError("extrusion height must be >= 1")
    if h > 2:
        raise Unsupported("extrusion heights above 2 are not supported")
    return 2 * h + 1


@dataclass(frozen=True)
class CreasePattern:
    paper_width: float
    paper_height: float
    creases: frozenset  # (x1, y1, x2, y2, assignment) with (x1,y1) <= (x2,y2)

    def sorted_creases(self) -> list:
        return sorted(self.creases)


def _make_crease(x1, y1, x2, y2, assignment) -> tuple:
    (a, b) = _norm_edge(float(x1), float(y1), float(x2), float(y2))
    return (a[0], a[1], b[0], b[1], assignment)


def _column_pleat_positions(col: int, width: int, h: int) -> list[float]:
    """X positions of the 2h pleat creases in a lattice column band."""
    s = 2 * h + 1
    if col == 0:
        return [Fraction(k, s) for k in range(1, 2 * h + 1)]
    if col == width:
        return [s * width - Fraction(k, s) for k in range(2 * h, 0, -1)]
    return [s * col + Fraction(2 * k - 1, 2) for k in range(-h + 1, h + 1)]


def generate_crease_pattern(maze: GridMaze, extrusion_height: int = 1) -> CreasePattern:
    """Deterministic crease pattern for a maze at the given extrusion height.

    Vertical walls contribute their column's band pleat; a horizontal wall
    contributes a pleat pair centered in its own cell strip whose spread
    encodes the wall's row.  An empty maze yields no creases.
    """
    h = int(extrusion_height)
    s = scale_factor(h)
    W = s * maze.width
    H = s * maze.height
    creases = set()

    def add_pleat_column(xs) -> None:
        for k, x in enumerate(sorted(xs)):
            assign = VALLEY if k % 2 == 0 else MOUNTAIN
            creases.add(_make_crease(float(x), 0.0, float(x), float(H), assign))

    for (x1, y1), (x2, y2) in maze.sorted_walls():
        if x1 == x2:  # vertical wall on lattice line x = x1
            add_pleat_column(_column_pleat_positions(x1, maze.width, h))
        else:         # horizontal wall from (x1, y) to (x1+1, y)
            xc = Fraction(s * (2 * x1 + 1), 2)
            u = Fraction(y1 + 1, maze.height + 2)
            xs = []
            for k in range(1, h + 1):
                off = u * Fraction(9 * k, 10 * h)
                xs.extend((xc - off, xc + off))
            add_pleat_column(xs)
    return CreasePattern(float(W), float(H), frozenset(creases))


# -- local flat-foldability -------------------------------------------------

def _merge_collinear(creases) -> list:
    """Merge abutting/overlapping collinear creases of equal assignment."""
    groups: dict = {}
    for (x1, y1, x2, y2, a) in creases:
        dx, dy = x2 - x1, y2 - y1
        norm = math.hypot(dx, dy)
        ux, uy = dx / norm, dy / norm
        if (ux, uy) < (-ux, -uy):
            ux, uy = -ux, -uy
        # group by rounded line signature; keep the exact frame for output
        off = x1 * uy - y1 * ux
        key = (round(ux, 9), round(uy, 9), round(off, 7), a)
        t1 = x1 * ux + y1 * uy
        t2 = x2 * ux + y2 * uy
        groups.setdefault(key, ((ux, uy, off, a), []))[1].append((min(t1, t2), max(t1, t2)))
    merged = []
    for (ux, uy, off, a), spans in groups.values():
        spans.sort()
        cur_lo, cur_hi = spans[0]
        runs = []
        for lo, hi in spans[1:]:
            if lo <= cur_hi + _PTOL:
                cur_hi = max(cur_hi, hi)
            else:
                runs.append((cur_lo, cur_hi))
                cur_lo, cur_hi = lo, hi
        runs.append((cur_lo, cur_hi))
        # reconstruct endpoints from the line frame: p = t*(ux,uy) + off*(uy,-ux)
        for lo, hi in runs:
            p1 = (lo * ux + off * uy, lo * uy - off * ux)
            p2 = (hi * ux + off * uy, hi * uy - off * ux)
            merged.append(_make_crease(p1[0], p1[1], p2[0], p2[1], a))
    return merged


@dataclass(frozen=True)
class VertexCheck:
    point: tuple
    degree: int
    maekawa_ok: bool
    kawasaki_ok: bool

    @property
    def ok(self) -> bool:
        return self.maekawa_ok and self.kawasaki_ok


@dataclass(frozen=True)
class FoldabilityReport:
    vertices: tuple

    @property
    def all_ok(self) -> bool:
        return all(v.ok for v in self.vertices)

    def failures(self) -> list:
        return [v for v in self.vertices if not v.ok]


def _segment_intersections(c1, c2) -> list:
    """Intersection points of two crease segments (proper or touching)."""
    x1, y1, x2, y2, _ = c1
    x3, y3, x4, y4, _ = c2
    d1x, d1y = x2 - x1, y2 - y1
    d2x, d2y = x4 - x3, y4 - y3
    denom = d1x * d2y - d1y * d2x
    if abs(denom) < 1e-12:
        return []
    t = ((x3 - x1) * d2y - (y3 - y1) * d2x) / denom
    u = ((x3 - x1) * d1y - (y3 - y1) * d1x) / denom
    if -1e-9 <= t <= 1 + 1e-9 and -1e-9 <= u <= 1 + 1e-9:
        return [(x1 + t * d1x, y1 + t * d1y)]
    return []


def check_flat_foldability_local(cp: CreasePattern) -> FoldabilityReport:
    """Maekawa and Kawasaki at every interior vertex; boundary exempt.

    A point where a single merged crease passes straight through is not a
    crease vertex and is skipped.
    """
    creases = _merge_collinear(cp.sorted_creases())
    pts: dict = {}

    def key(p) -> tuple:
        return (round(p[0] / _PTOL), round(p[1] / _PTOL))

    def note(p) -> None:
        pts.setdefault(key(p), (p[0], p[1]))

    for (x1, y1, x2, y2, _a) in creases:
        note((x1, y1))
        note((x2, y2))
    for i in range(len(creases)):
        for j in range(i + 1, len(creases)):
            for p in _segment_intersections(creases[i], creases[j]):
                note(p)

    checks = []
    for _, (px, py) in sorted(pts.items()):
        on_boundary = (abs(px) <= _PTOL or abs(px - cp.paper_width) <= _PTOL
                       or abs(py) <= _PTOL or abs(py - cp.paper_height) <= _PTOL)
        if on_boundary:
            continue
        rays = []  # (angle degrees, assignment)
        for (x1, y1, x2, y2, a) in creases:
            if point_segment_distance((px, py), (x1, y1), (x2, y2)) > _PTOL:
                continue
            # a ray toward each end of the crease that is not the point itself
            for ex, ey in ((x2, y2), (x1, y1)):
                if math.hypot(px - ex, py - ey) > _PTOL:
                    rays.append((math.degrees(math.atan2(ey - py, ex - px)) % 360.0, a))
        if not rays:
            continue
        if len(rays) == 2 and rays[0][1] == rays[1][1] and \
                abs(abs(rays[0][0] - rays[1][0]) - 180.0) <= _ANG_ATOL:
            continue  # straight pass-through of one crease: not a vertex
        n_m = sum(1 for _, a in rays if a == MOUNTAIN)
        n_v = len(rays) - n_m
        maekawa = abs(n_m - n_v) == 2
        angles = sorted(a for a, _ in rays)
        if len(angles) < 2 or len(angles) % 2 == 1:
            kawasaki = False
        else:
            sectors = [angles[(i + 1) % len(angles)] - angles[i] for i in range(len(angles))]
            sectors[-1] += 360.0
            even = sum(sectors[0::2])
            odd = sum(sectors[1::2])
            kawasaki = abs(even - 180.0) <= _ANG_ATOL and abs(odd - 180.0) <= _ANG_ATOL
        checks.append(VertexCheck((px, py), len(rays), maekawa, kawasaki))
    return FoldabilityReport(tuple(checks))


# -- composition ------------------------------------------------------------

_EDGES = {  # edge: (axis of the coordinate that is fixed on it, whether it is the far side)
    "left": (0, False), "right": (0, True), "bottom": (1, False), "top": (1, True),
}
_INTERFACE_QUANTUM = 1e-6  # paper units per step of a seam coordinate


def edge_interface(cp: CreasePattern, which: str) -> tuple:
    """Multiset of (coordinate, assignment) of crease endpoints on one edge.

    `which` is "left", "right", "top" or "bottom"; matching seam interfaces
    are the precondition for composing two patterns.
    """
    if which not in _EDGES:
        raise ValueError(f"edge must be 'left', 'right', 'top' or 'bottom', got {which!r}")
    axis, far = _EDGES[which]
    at = (cp.paper_width, cp.paper_height)[axis] if far else 0.0
    return tuple(sorted((round(p[1 - axis] / _INTERFACE_QUANTUM), a)
                        for (x1, y1, x2, y2, a) in cp.creases for p in ((x1, y1), (x2, y2))
                        if abs(p[axis] - at) <= _PTOL))


_SEAMS = {  # side: (the paper extent both patterns share, cp_a's seam edge, cp_b's)
    "right": ("height", "right", "left"), "below": ("width", "bottom", "top"),
}


def _shifted(creases, dx: float, dy: float) -> frozenset:
    return frozenset(_make_crease(x1 + dx, y1 + dy, x2 + dx, y2 + dy, a)
                     for (x1, y1, x2, y2, a) in creases)


def compose(cp_a: CreasePattern, cp_b: CreasePattern, side: str = "right") -> CreasePattern:
    """Glue cp_b onto cp_a's right (or below); boundary interfaces must match."""
    if side not in _SEAMS:
        raise ValueError(f"side must be 'right' or 'below', got {side!r}")
    extent, edge_a, edge_b = _SEAMS[side]
    size_a, size_b = getattr(cp_a, "paper_" + extent), getattr(cp_b, "paper_" + extent)
    if abs(size_a - size_b) > _PTOL:
        raise InterfaceMismatch(f"paper {extent}s differ: {size_a} vs {size_b}")
    ia = edge_interface(cp_a, edge_a)
    ib = edge_interface(cp_b, edge_b)
    if ia != ib:
        delta = sorted(set(ia).symmetric_difference(ib))
        raise InterfaceMismatch(f"seam interfaces disagree near {delta[0]}")
    if side == "right":
        w, hgt = cp_a.paper_width + cp_b.paper_width, cp_a.paper_height
        creases_a, dx = cp_a.creases, cp_a.paper_width
    else:  # lift cp_a above cp_b
        w, hgt = cp_a.paper_width, cp_a.paper_height + cp_b.paper_height
        creases_a, dx = _shifted(cp_a.creases, 0.0, cp_b.paper_height), 0.0
    return CreasePattern(float(w), float(hgt), frozenset(creases_a) | _shifted(cp_b.creases, dx, 0.0))


# -- rendering ---------------------------------------------------------------

def render_maze_2d(maze: GridMaze) -> VectorScene:
    """Walls as thick strokes over a light bounding box."""
    scene = VectorScene()
    scene.add_polyline([(0, 0), (maze.width, 0), (maze.width, maze.height),
                        (0, maze.height), (0, 0)], "guide")
    for (x1, y1), (x2, y2) in maze.sorted_walls():
        scene.add_polyline([(x1, y1), (x2, y2)], "wall")
    return scene


def render_crease_pattern(cp: CreasePattern) -> VectorScene:
    """Mountain dark, valley light, bold paper boundary (not folds)."""
    scene = VectorScene()
    scene.add_polyline([(0, 0), (cp.paper_width, 0), (cp.paper_width, cp.paper_height),
                        (0, cp.paper_height), (0, 0)], "boundary")
    for (x1, y1, x2, y2, a) in cp.sorted_creases():
        scene.add_polyline([(x1, y1), (x2, y2)], "mountain" if a == MOUNTAIN else "valley")
    return scene
