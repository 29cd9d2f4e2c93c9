"""2D geometric primitives shared by all font modules.

Coordinates are plain floats in abstract units (all shipped data stays below
magnitude 100), angles are degrees.  Every incidence predicate uses the global
tolerance TOL.  Internally angles live in the half-open range [0, 360); raw
input values such as a 360 in font data are preserved at the data layer and
folded here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateDisks, DisconnectedPath

TOL = 1e-9

# Path elements chain end-to-end within this slack (hand-authored paths may
# carry rounded coordinates; constructed belts chain exactly).
CHAIN_TOL = 1e-6

# An angle this close outside an arc's span, in degrees, still counts as on it.
ARC_SLACK_DEG = 1e-7

CCW = 1
CW = -1


class Point2(NamedTuple):
    x: float
    y: float


class Segment(NamedTuple):
    a: Point2
    b: Point2


class Arc(NamedTuple):
    center: Point2
    radius: float
    start_angle: float  # degrees
    end_angle: float    # degrees
    orientation: int    # CCW or CW


def dist(p, q) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1]


def cross(u, v) -> float:
    return u[0] * v[1] - u[1] * v[0]


def sub(p, q) -> Point2:
    return Point2(p[0] - q[0], p[1] - q[1])


def add(p, q) -> Point2:
    return Point2(p[0] + q[0], p[1] + q[1])


def normalize_angle(deg: float) -> float:
    """Fold an angle in degrees into [0, 360)."""
    a = math.fmod(deg, 360.0)
    if a < 0.0:
        a += 360.0
    return 0.0 if a == 360.0 else a


def angle_of(v) -> float:
    """Direction of a vector in degrees, in [0, 360)."""
    return normalize_angle(math.degrees(math.atan2(v[1], v[0])))


def unit_vector(deg: float) -> Point2:
    r = math.radians(deg)
    return Point2(math.cos(r), math.sin(r))


def tangent_points(c1, c2, kind: str, side: str) -> tuple[Point2, Point2]:
    """Touch points of a common tangent of two unit circles.

    `side` picks one of the two tangents of the requested kind: "left" means
    the touch point on the first circle lies strictly left of the directed
    center line c1 -> c2 (for external tangents both touch points do).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    d = dist(c1, c2)
    s = 1.0 if side == "left" else -1.0
    if kind == "external":
        if d <= 2 * TOL:
            raise DegenerateDisks(f"centers {c1} and {c2} coincide")
        nx = -(c2[1] - c1[1]) / d * s
        ny = (c2[0] - c1[0]) / d * s
        return (Point2(c1[0] + nx, c1[1] + ny), Point2(c2[0] + nx, c2[1] + ny))
    if kind == "internal":
        if d <= 2.0 + TOL:
            raise DegenerateDisks(f"centers {c1} and {c2} too close for a crossing tangent")
        # each touch point is its center plus the unit center line turned
        # by +-acos(2 / d) towards it, one rotation for both; the second
        # turns -u itself, not -(turned u), so a zero keeps its sign
        ux, uy = (c2[0] - c1[0]) / d, (c2[1] - c1[1]) / d
        r = math.radians(s * math.degrees(math.acos(2.0 / d)))
        cos_r, sin_r = math.cos(r), math.sin(r)
        vx, vy = -ux, -uy
        return (Point2(c1[0] + (cos_r * ux - sin_r * uy), c1[1] + (sin_r * ux + cos_r * uy)),
                Point2(c2[0] + (cos_r * vx - sin_r * vy), c2[1] + (sin_r * vx + cos_r * vy)))
    raise ValueError(f"kind must be 'external' or 'internal', got {kind!r}")


# -- arcs ---------------------------------------------------------------

def arc_extent(arc: Arc) -> float:
    """Swept angle of an arc in degrees, in [0, 360)."""
    if arc.orientation == CCW:
        return normalize_angle(arc.end_angle - arc.start_angle)
    return normalize_angle(arc.start_angle - arc.end_angle)


def arc_length(arc: Arc) -> float:
    return math.radians(arc_extent(arc)) * arc.radius


def point_on_circle(center, radius: float, deg: float) -> Point2:
    return Point2(center[0] + radius * math.cos(math.radians(deg)),
                  center[1] + radius * math.sin(math.radians(deg)))


def arc_start_point(arc: Arc) -> Point2:
    return point_on_circle(arc.center, arc.radius, arc.start_angle)


def arc_end_point(arc: Arc) -> Point2:
    return point_on_circle(arc.center, arc.radius, arc.end_angle)


def arc_contains_angle(arc: Arc, deg: float) -> bool:
    """Whether a polar angle lies within the arc's swept span."""
    if arc.orientation == CCW:
        off = normalize_angle(deg - arc.start_angle)
    else:
        off = normalize_angle(arc.start_angle - deg)
    ext = arc_extent(arc)
    return off <= ext + ARC_SLACK_DEG or off >= 360.0 - ARC_SLACK_DEG


def arc_tangent_dir(arc: Arc, deg: float) -> Point2:
    """Unit tangent direction of traversal at polar angle `deg`."""
    radial = unit_vector(deg)
    if arc.orientation == CCW:
        return Point2(-radial.y, radial.x)
    return Point2(radial.y, -radial.x)


# -- element plumbing ---------------------------------------------------

def element_start(el) -> Point2:
    return el.a if isinstance(el, Segment) else arc_start_point(el)


def element_end(el) -> Point2:
    return el.b if isinstance(el, Segment) else arc_end_point(el)


def element_length(el) -> float:
    return dist(el.a, el.b) if isinstance(el, Segment) else arc_length(el)


# -- distances ----------------------------------------------------------

def point_segment_distance(p, a, b) -> float:
    # dist(p, a + t (b - a)), t the projection of p - a on b - a clamped to
    # [0, 1]; dist(p, a) when b is within TOL of a
    ax, ay = a[0], a[1]
    abx, aby = b[0] - ax, b[1] - ay
    px, py = p[0] - ax, p[1] - ay
    denom = abx * abx + aby * aby
    if denom <= TOL * TOL:
        return math.hypot(px, py)
    t = min(1.0, max(0.0, (px * abx + py * aby) / denom))
    return math.hypot(p[0] - (ax + t * abx), p[1] - (ay + t * aby))


# -- pairwise intersection -----------------------------------------------

def _sign(x: float) -> int:
    if x > TOL:
        return 1
    if x < -TOL:
        return -1
    return 0


def _ccw_span(arc: Arc) -> tuple[float, float]:
    """(start angle, extent) of the arc's points, swept counterclockwise."""
    return (arc.start_angle if arc.orientation == CCW else arc.end_angle), arc_extent(arc)


def _elements_meet(e1, e2) -> bool:
    """Whether two path elements share a point; a tangential touch counts."""
    if isinstance(e1, Segment) and isinstance(e2, Segment):
        a, b = e1
        c, d = e2
        (ax, ay), (bx, by), (cx, cy), (dx, dy) = a, b, c, d
        # each end's orientation about the other segment: d1 is cross(d - c, a - c)
        dcx, dcy, bax, bay = dx - cx, dy - cy, bx - ax, by - ay
        d1 = _sign(dcx * (ay - cy) - dcy * (ax - cx))
        d2 = _sign(dcx * (by - cy) - dcy * (bx - cx))
        d3 = _sign(bax * (cy - ay) - bay * (cx - ax))
        d4 = _sign(bax * (dy - ay) - bay * (dx - ax))
        if d1 == d2 == d3 == d4 == 0:
            # collinear: project on the dominant axis
            if abs(bax) >= abs(bay):
                lo1, hi1 = sorted((ax, bx))
                lo2, hi2 = sorted((cx, dx))
            else:
                lo1, hi1 = sorted((ay, by))
                lo2, hi2 = sorted((cy, dy))
            return min(hi1, hi2) - max(lo1, lo2) >= -TOL
        if d1 != d2 and d3 != d4 and 0 not in (d1, d2, d3, d4):
            return True  # proper crossing
        # otherwise they meet only where an endpoint lies on the other segment
        return any(point_segment_distance(p, s.a, s.b) <= TOL * 10
                   for p, s in ((a, e2), (b, e2), (c, e1), (d, e1)))
    if isinstance(e2, Segment):
        e1, e2 = e2, e1
    if isinstance(e1, Segment):  # a segment e1 and an arc e2
        (ax, ay), (bx, by) = e1
        (cx, cy), radius = e2.center, e2.radius
        # the parameters t of the line a + t (b - a) on the arc's circle
        abx, aby, acx, acy = bx - ax, by - ay, ax - cx, ay - cy
        qa = abx * abx + aby * aby
        if qa <= TOL * TOL:
            return False
        qb = 2.0 * (acx * abx + acy * aby)
        qc = (acx * acx + acy * acy) - radius * radius
        disc = qb * qb - 4.0 * qa * qc
        if disc < -TOL:
            return False
        if disc < 0.0:
            disc = 0.0
        r = math.sqrt(disc)
        t_slack = (TOL * 100) / max(math.hypot(abx, aby), TOL)
        for t in ((-qb - r) / (2 * qa), (-qb + r) / (2 * qa)):
            if -t_slack <= t <= 1.0 + t_slack:
                px, py = ax + t * abx, ay + t * aby
                at = normalize_angle(math.degrees(math.atan2(py - cy, px - cx)))
                if arc_contains_angle(e2, at):
                    return True
        return False
    d = dist(e1.center, e2.center)
    if d <= TOL and abs(e1.radius - e2.radius) <= TOL:
        # one circle: the ccw spans [0, ext1] and [off, off + ext2] (mod 360)
        # meet iff the second starts inside the first or wraps back to its start
        s1, ext1 = _ccw_span(e1)
        s2, ext2 = _ccw_span(e2)
        off = normalize_angle(s2 - s1)
        return off <= ext1 + 1e-9 or off + ext2 >= 360.0 - 1e-9
    r1, r2 = e1.radius, e2.radius
    if d > r1 + r2 + TOL or d < abs(r1 - r2) - TOL:
        return False
    # circle-circle intersection points
    ax, ay = e1.center
    bx, by = e2.center
    f = (r1 * r1 - r2 * r2 + d * d) / (2 * d * d)
    px = ax + f * (bx - ax)
    py = ay + f * (by - ay)
    h2 = r1 * r1 - f * f * d * d
    h = math.sqrt(max(0.0, h2)) / d
    return any(arc_contains_angle(e1, angle_of(sub(p, e1.center)))
               and arc_contains_angle(e2, angle_of(sub(p, e2.center)))
               for p in ((px + h * (by - ay), py - h * (bx - ax)),
                         (px - h * (by - ay), py + h * (bx - ax))))


def path_is_simple(path: list) -> bool:
    """True iff no two non-adjacent path elements intersect, even at one point.

    Elements must chain end-to-end (within CHAIN_TOL), which is checked on
    every input, built belts included; a closed chain makes the first and
    last elements adjacent.  Zero-length elements (a belt grazing a disk
    leaves a zero-extent arc) carry no geometry, so adjacency is decided
    after dropping them: the elements on either side of a graze are
    consecutive on the actual curve, not a self-intersection.  One pass
    takes each element's ends and length, in the operations of
    `element_start`, `element_end` and `element_length`.
    """
    if not path:
        return True
    real = []
    for k, el in enumerate(path):
        if isinstance(el, Segment):
            (sx, sy), (ex, ey) = el
            length = math.hypot(sx - ex, sy - ey)
        else:
            (cx, cy), r = el.center, el.radius
            t = math.radians(el.start_angle)
            sx, sy = cx + r * math.cos(t), cy + r * math.sin(t)
            t = math.radians(el.end_angle)
            ex, ey = cx + r * math.cos(t), cy + r * math.sin(t)
            length = arc_length(el)
        if not k:
            first_x, first_y = sx, sy
        elif math.hypot(last_x - sx, last_y - sy) > CHAIN_TOL:
            raise DisconnectedPath(f"element {k - 1} does not chain to element {k}")
        last_x, last_y = ex, ey
        if length > TOL:
            real.append(el)
    closed = math.hypot(last_x - first_x, last_y - first_y) <= CHAIN_TOL
    n = len(real)
    for i in range(n):
        for j in range(i + 2, n):
            if closed and i == 0 and j == n - 1:
                continue
            if _elements_meet(real[i], real[j]):
                return False
    return True


# -- convex hull ----------------------------------------------------------

def convex_hull(points) -> list[Point2]:
    """Hull vertices in CCW order (Andrew's monotone chain)."""
    pts = sorted(set((float(p[0]), float(p[1])) for p in points))
    if len(pts) <= 2:
        return [Point2(*p) for p in pts]
    lower: list = []
    for p in pts:
        while len(lower) > 1 and cross(sub(lower[-1], lower[-2]), sub(p, lower[-2])) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) > 1 and cross(sub(upper[-1], upper[-2]), sub(p, upper[-2])) <= 0:
            upper.pop()
        upper.append(p)
    return [Point2(*p) for p in lower[:-1] + upper[:-1]]


def hull_perimeter(points) -> float:
    hull = convex_hull(points)
    if len(hull) < 2:
        return 0.0
    return sum(dist(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull)))
