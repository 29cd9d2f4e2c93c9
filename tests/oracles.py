"""Independent oracle implementations the tests check the library against.

Everything here is deliberately written from scratch against the definitions,
not by calling the code under test: exact rational segment intersection,
tangent touch points by rotating the center line, point-segment distance and
the segment-segment and segment-arc meeting tests composed from vector
helpers, path simplicity from each element's ends and length taken one at a
time, a belt built from all of its tangents, a naive belt-winding
enumerator, an exhaustive fold enumerator, a fold
check, a block fold search without cuts, a plain breadth-first search over
slot contacts, a check of the free cells a block search leaves from the whole
set, a layout that copies every primitive to its place, and an SVG
writer that formats every number where it is written.
"""

import math
from fractions import Fraction
from itertools import permutations, product

from puzzlefonts import scene as scene_mod
from puzzlefonts.conveyer import CCW, CW, BeltPath, canonical_spec, validate_belt
from puzzlefonts.errors import DisconnectedPath
from puzzlefonts.geometry import (
    CHAIN_TOL, TOL, Arc, Point2, Segment, _elements_meet, angle_of, arc_contains_angle,
    arc_extent, element_end, element_length, element_start, point_on_circle,
)
from puzzlefonts.scene import ArcShape, Circle, Polygon, Polyline, VectorScene


def segments_properly_interact(a, b, c, d) -> bool:
    """Exact test: do closed segments ab and cd share any point?

    Uses Fraction arithmetic, so inputs must be rationals (ints are fine).
    """
    ax, ay = map(Fraction, a)
    bx, by = map(Fraction, b)
    cx, cy = map(Fraction, c)
    dx, dy = map(Fraction, d)

    def orient(px, py, qx, qy, rx, ry):
        v = (qx - px) * (ry - py) - (qy - py) * (rx - px)
        return (v > 0) - (v < 0)

    d1 = orient(cx, cy, dx, dy, ax, ay)
    d2 = orient(cx, cy, dx, dy, bx, by)
    d3 = orient(ax, ay, bx, by, cx, cy)
    d4 = orient(ax, ay, bx, by, dx, dy)
    if d1 != d2 and d3 != d4:
        return True

    def on_segment(px, py, qx, qy, rx, ry):
        # r collinear with pq: is r within the bounding box?
        return (min(px, qx) <= rx <= max(px, qx)
                and min(py, qy) <= ry <= max(py, qy))

    if d1 == 0 and on_segment(cx, cy, dx, dy, ax, ay):
        return True
    if d2 == 0 and on_segment(cx, cy, dx, dy, bx, by):
        return True
    if d3 == 0 and on_segment(ax, ay, bx, by, cx, cy):
        return True
    if d4 == 0 and on_segment(ax, ay, bx, by, dx, dy):
        return True
    return False


def polyline_is_simple_exact(points, closed: bool = False) -> bool:
    """Brute-force simplicity of an integer-coordinate polyline."""
    n = len(points) - 1
    segs = [(points[i], points[i + 1]) for i in range(n)]
    for i in range(n):
        for j in range(i + 2, n):
            if closed and i == 0 and j == n - 1:
                continue
            if segments_properly_interact(*segs[i], *segs[j]):
                return False
    return True


def tangent_points_by_rotation(c1, c2, kind: str, side: str) -> tuple:
    """Touch points of a common tangent of two unit circles, composed from a
    rotation and a translation per point.

    External: both centers move by the unit normal of the center line, on
    `side`.  Internal (crossing): each touch point is its center plus the
    unit vector towards the other center turned by +-acos(2 / d) degrees,
    each turned by its own rotation and then added to its center.
    """
    def rotate(v, deg):
        r = math.radians(deg)
        c, s = math.cos(r), math.sin(r)
        return (c * v[0] - s * v[1], s * v[0] + c * v[1])

    def add(p, q):
        return (p[0] + q[0], p[1] + q[1])

    d = math.hypot(c1[0] - c2[0], c1[1] - c2[1])
    s = 1.0 if side == "left" else -1.0
    if kind == "external":
        n = (-(c2[1] - c1[1]) / d * s, (c2[0] - c1[0]) / d * s)
        return add(c1, n), add(c2, n)
    u = ((c2[0] - c1[0]) / d, (c2[1] - c1[1]) / d)
    phi = math.degrees(math.acos(2.0 / d))
    return add(c1, rotate(u, s * phi)), add(c2, rotate((-u[0], -u[1]), s * phi))


def _vsub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _vdot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def _vcross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _vdist(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def point_segment_distance_by_vectors(p, a, b) -> float:
    """Distance from p to segment ab: the projection of p - a on b - a,
    clamped to [0, 1], then the distance to that point of the segment (to a
    when b is within TOL of it)."""
    ab = _vsub(b, a)
    denom = _vdot(ab, ab)
    if denom <= TOL * TOL:
        return _vdist(p, a)
    t = min(1.0, max(0.0, _vdot(_vsub(p, a), ab) / denom))
    return _vdist(p, (a[0] + t * ab[0], a[1] + t * ab[1]))


def segments_meet_by_vectors(a, b, c, d) -> bool:
    """Whether segments ab and cd share a point, in floats with tolerance TOL.

    The four orientations of each segment's ends about the other's line,
    each zero within TOL.  All zero: collinear, and the segments meet when
    their spans on the dominant axis of ab overlap within TOL.  Otherwise
    they cross properly when each pair of ends lies strictly on both sides,
    and else meet only where an end lies within 10 TOL of the other segment.
    """
    def sign(x):
        return 1 if x > TOL else -1 if x < -TOL else 0

    d1 = sign(_vcross(_vsub(d, c), _vsub(a, c)))
    d2 = sign(_vcross(_vsub(d, c), _vsub(b, c)))
    d3 = sign(_vcross(_vsub(b, a), _vsub(c, a)))
    d4 = sign(_vcross(_vsub(b, a), _vsub(d, a)))
    if d1 == d2 == d3 == d4 == 0:
        axis = 0 if abs(b[0] - a[0]) >= abs(b[1] - a[1]) else 1
        lo1, hi1 = sorted((a[axis], b[axis]))
        lo2, hi2 = sorted((c[axis], d[axis]))
        return min(hi1, hi2) - max(lo1, lo2) >= -TOL
    if d1 != d2 and d3 != d4 and 0 not in (d1, d2, d3, d4):
        return True
    return any(point_segment_distance_by_vectors(p, q, r) <= TOL * 10
               for p, q, r in ((a, c, d), (b, c, d), (c, a, b), (d, a, b)))


def _line_circle_params(a, b, center, radius: float) -> list:
    """Parameters t of the intersections of the line a + t(b - a) with a
    circle: none when ab is within TOL of a point or the discriminant is
    below -TOL, a double root when it is within TOL of zero."""
    ab = _vsub(b, a)
    ac = _vsub(a, center)
    qa = _vdot(ab, ab)
    if qa <= TOL * TOL:
        return []
    qb = 2.0 * _vdot(ac, ab)
    qc = _vdot(ac, ac) - radius * radius
    disc = qb * qb - 4.0 * qa * qc
    if disc < -TOL:
        return []
    if disc < 0.0:
        disc = 0.0
    r = math.sqrt(disc)
    return [(-qb - r) / (2 * qa), (-qb + r) / (2 * qa)]


def segment_meets_arc_by_vectors(seg, arc) -> bool:
    """Whether a segment and an arc share a point: a point of the segment's
    line on the arc's circle, within 100 TOL (in length) of the segment, whose
    direction from the center lies on the arc's span."""
    t_slack = (TOL * 100) / max(_vdist(seg.a, seg.b), TOL)
    for t in _line_circle_params(seg.a, seg.b, arc.center, arc.radius):
        if -t_slack <= t <= 1.0 + t_slack:
            p = (seg.a[0] + t * (seg.b[0] - seg.a[0]), seg.a[1] + t * (seg.b[1] - seg.a[1]))
            if arc_contains_angle(arc, angle_of(_vsub(p, arc.center))):
                return True
    return False


def elements_meet_by_vectors(e1, e2) -> bool:
    """The pair test of `path_is_simple_by_elements`: the vector-helper forms
    above for segment pairs and segment-arc pairs, the library's own
    circle-circle test for two arcs."""
    if isinstance(e1, Segment) and isinstance(e2, Segment):
        return segments_meet_by_vectors(e1.a, e1.b, e2.a, e2.b)
    if isinstance(e1, Segment):
        return segment_meets_arc_by_vectors(e1, e2)
    if isinstance(e2, Segment):
        return segment_meets_arc_by_vectors(e2, e1)
    return _elements_meet(e1, e2)


def path_is_simple_by_elements(path) -> bool:
    """Path simplicity, each element's ends and length taken one at a time.

    First every consecutive pair must chain within CHAIN_TOL (else
    DisconnectedPath names the first that does not); the path is closed
    when its last element ends within CHAIN_TOL of the first one's start.
    Elements of length TOL or less are dropped, then no two elements that
    are not next to each other (the first and last are, on a closed path)
    may meet.
    """
    if not path:
        return True
    for i in range(len(path) - 1):
        if _vdist(element_end(path[i]), element_start(path[i + 1])) > CHAIN_TOL:
            raise DisconnectedPath(f"element {i} does not chain to element {i + 1}")
    closed = _vdist(element_end(path[-1]), element_start(path[0])) <= CHAIN_TOL
    real = [el for el in path if element_length(el) > TOL]
    n = len(real)
    for i in range(n):
        for j in range(i + 2, n):
            if closed and i == 0 and j == n - 1:
                continue
            if elements_meet_by_vectors(real[i], real[j]):
                return False
    return True


def belt_by_tangents(centers, winding) -> BeltPath:
    """A winding's belt built from all of its tangents, in winding order.

    Each consecutive pair of entries takes the tangent that
    `tangent_points_by_rotation` gives: external for equal orientations,
    crossing for opposite ones, on the right when the first disk is wrapped
    CCW.  Each disk then gets the arc from its incoming tangent's end to its
    outgoing tangent's start, each angle the direction of the touch point
    from the center in degrees, folded into [0, 360).
    """
    def angle(p, c):
        a = math.fmod(math.degrees(math.atan2(p[1] - c[1], p[0] - c[0])), 360.0)
        if a < 0.0:
            a += 360.0
        return 0.0 if a == 360.0 else a

    pts = [Point2(float(x), float(y)) for x, y in centers]
    w = [(int(i), int(o)) for i, o in winding]
    segs = []
    for (i, oi), (j, oj) in zip(w, w[1:] + w[:1]):
        a, b = tangent_points_by_rotation(pts[i], pts[j], "external" if oi == oj else "internal",
                                          "right" if oi == CCW else "left")
        segs.append(Segment(Point2(*a), Point2(*b)))
    elements = []
    for k, (i, oi) in enumerate(w):
        elements += [Arc(pts[i], 1.0, angle(segs[k - 1].b, pts[i]), angle(segs[k].a, pts[i]), oi),
                     segs[k]]
    return BeltPath(tuple(elements), tuple(i for i, _ in w))


def naive_belt_solutions(centers) -> list:
    """Every valid winding, found the dumb way: all n! * 2^n candidates."""
    n = len(centers)
    if n < 2:
        return []
    seen = set()
    out = set()
    for perm in permutations(range(n)):
        for orients in product((CCW, CW), repeat=n):
            winding = list(zip(perm, orients))
            canon = canonical_spec(winding)
            if canon in seen:
                continue
            seen.add(canon)
            if validate_belt(centers, winding).all_ok:
                out.add(canon)
    return sorted(out)


def exhaustive_fold_exists(chain, slots_points) -> bool:
    """Plain depth-first enumeration over slot sequences, no pruning tricks.

    `slots_points` is the list of (right, acute1, acute2) corner triples.
    Mirrors the hinge semantics directly from the definitions.
    """
    n = len(slots_points)
    if n != chain.n_pieces:
        return False
    corner_order = ("R", "P", "Q")

    def poses(slot):
        r, a1, a2 = slot
        return ((r, a1, a2), (r, a2, a1))

    def corner_pos(corners, label):
        return corners[corner_order.index(label)]

    def rec(k, used, entry_point):
        if k == n:
            return True
        if k == 0:
            cands = [(i, p) for i in range(n) for p in poses(slots_points[i])]
        else:
            label = chain.hinges[k - 1][1]
            cands = []
            for i in range(n):
                if i in used:
                    continue
                for p in poses(slots_points[i]):
                    if corner_pos(p, label) == entry_point:
                        cands.append((i, p))
        for i, p in cands:
            nxt = None
            if k < n - 1:
                nxt = corner_pos(p, chain.hinges[k][0])
            if rec(k + 1, used | {i}, nxt):
                return True
        return False

    return rec(0, set(), None)


def fold_is_valid(chain, slots_points, pieces) -> bool:
    """Check a fold against the definitions: one piece per slot, each piece
    congruent to its slot, and each hinge's two corners at one point.

    `slots_points` is the list of (right, acute1, acute2) corner triples and
    `pieces` one (slot index, (R, P, Q) corners) per chain piece, in chain
    order.  A piece is congruent to its slot when its right-angle corner is
    the slot's and its acute corners are the slot's two, in either order.
    """
    n = len(slots_points)
    if n != chain.n_pieces or len(pieces) != n:
        return False
    if sorted(i for i, _ in pieces) != list(range(n)):
        return False
    for i, (r, p, q) in pieces:
        right, acute1, acute2 = slots_points[i]
        if r != right or {p, q} != {acute1, acute2}:
            return False
    corner_order = ("R", "P", "Q")
    for k, (ex, en) in enumerate(chain.hinges):
        if pieces[k][1][corner_order.index(ex)] != pieces[k + 1][1][corner_order.index(en)]:
            return False
    return True


def cell_vertices(cell) -> tuple:
    """(right-angle vertex, diagonal start, diagonal end) of an (sx, sy, diagonal, half) cell."""
    x, y, diagonal, half = cell
    if diagonal == "NE":
        return ((x, y + 1) if half == "first" else (x + 1, y)), (x, y), (x + 1, y + 1)
    return ((x + 1, y + 1) if half == "first" else (x, y)), (x + 1, y), (x, y + 1)


def cell_placements(cell, slots_points) -> list:
    """The cell's placements in search order, as (slot index, (R, P, Q) corners).

    The cell's slots run from the one at its right-angle vertex, the ones at
    its diagonal's start and end, to the middle one, each with its acute
    corners in slot order, then swapped.  `slots_points` are the glyph's
    (right, acute1, acute2) corner triples.
    """
    vs = [(float(x), float(y)) for x, y in cell_vertices(cell)]
    points = set(vs) | {((p[0] + q[0]) / 2, (p[1] + q[1]) / 2) for p in vs for q in vs}
    mine = [i for i, s in enumerate(slots_points) if set(s) <= points]
    mine.sort(key=lambda i: next((t for t, v in enumerate(vs) if v in slots_points[i]), 3))
    return [(i, p) for i in mine for p in (slots_points[i], (
        slots_points[i][0], slots_points[i][2], slots_points[i][1]))]


def block_folds(chain, j, own, entry_point) -> list:
    """[(exit point, placements)] of block j (pieces 8j .. 8j+7) into `own`, first per exit.

    `own` lists the placements the block may use, as `cell_placements` gives
    them; the folds are listed in depth-first order over it, and only the
    first one to reach each exit point counts.  The block's first piece
    enters at `entry_point` (anywhere for the first block); the chain's last
    piece has the exit point None.
    """
    n = chain.n_pieces
    corner_order = ("R", "P", "Q")
    exits = [corner_order.index(ex) for ex, _ in chain.hinges]  # piece k's, k < n - 1
    entries = [None] + [corner_order.index(en) for _, en in chain.hinges]  # piece k's, k > 0
    found = {}

    def rec(path, used, point):  # point: where the next piece must enter
        k = 8 * j + len(path)
        if len(path) == 8:
            found.setdefault(point, tuple(path))
            return
        for i, corners in own:
            if i not in used and (point is None or corners[entries[k]] == point):
                rec(path + [(i, corners)], used | {i},
                    corners[exits[k]] if k < n - 1 else None)

    rec([], set(), entry_point)
    return list(found.items())


def plain_block_fold(chain, cells, slots_points):
    """The first fold of the chain by 8-piece blocks, or None: no cuts, no memo.

    Block j (pieces 8j .. 8j+7) fills the 4 slots of each of two cells and
    enters at the previous block's exit point.  Level 1 pairs cells that
    share an edge; level 2 also pairs cells that share only a vertex, edge
    pairs first, each group in cell order.  A pair's placements run over its
    first cell, then its second, each in `cell_placements` order.  Per pair
    and entry point the block's folds are listed in that order, and only the
    first one to reach each exit point is tried (`block_folds`).  Returns the
    fold as (slot index, (R, P, Q) corners) per piece.  `cells` are
    (sx, sy, diagonal, half) tuples and `slots_points` the glyph's
    (right, acute1, acute2) corner triples.
    """
    n = chain.n_pieces
    if n % 8 or n != len(slots_points):
        return None
    cell_list = sorted(set(tuple(c) for c in cells))
    placements = [cell_placements(cell, slots_points) for cell in cell_list]
    pairs = {1: [], 2: []}
    for a in range(len(cell_list)):
        for b in range(a + 1, len(cell_list)):
            shared = len(set(cell_vertices(cell_list[a])) & set(cell_vertices(cell_list[b])))
            if shared:
                pairs[shared].append((a, b))

    def search(level, j, used, entry_point):
        if 8 * j == n:
            return ()
        for a, b in level:
            if a in used or b in used:
                continue
            for exit_point, block in block_folds(chain, j, placements[a] + placements[b],
                                                 entry_point):
                rest = search(level, j + 1, used | {a, b}, exit_point)
                if rest is not None:
                    return block + rest
        return None

    for level in (pairs[2], pairs[2] + pairs[1]):
        fold = search(level, 0, frozenset(), None)
        if fold is not None:
            return fold
    return None


def slots_connected(slots_points, members) -> bool:
    """Plain breadth-first search: do the member slots form one contact component?

    Two slots touch when they share a corner point; `members` is a set of
    indices into `slots_points`, the (right, acute1, acute2) corner triples.
    No members count as connected.
    """
    members = set(members)
    at_point: dict = {}
    for i in members:
        for point in slots_points[i]:
            at_point.setdefault(point, []).append(i)
    if not members:
        return True
    start = min(members)
    seen = {start}
    queue = [start]
    while queue:
        i = queue.pop(0)
        for point in slots_points[i]:
            for j in at_point[point]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
    return seen == members


def fillable_from_scratch(meets, partners, free) -> bool:
    """Whether later blocks could still fill the `free` cells, from the whole set.

    `meets` and `partners` hold one bitmask of neighbour cells per cell and
    `free` is a bitmask of cells.  Every component of the free cells under
    `partners` must hold an even number of cells, and the free cells must be
    one component under `meets` (no free cells count as one).
    """
    members = {i for i in range(len(meets)) if free >> i & 1}

    def components(adjacent):
        left, found = set(members), []
        while left:
            seen, queue = set(), [min(left)]
            while queue:
                i = queue.pop()
                if i not in seen:
                    seen.add(i)
                    queue += [j for j in left if adjacent[i] >> j & 1]
            found.append(seen)
            left -= seen
        return found

    return (all(len(part) % 2 == 0 for part in components(partners))
            and len(components(meets)) <= 1)


def copied_layout(scenes, spacing: float, scale: float = 1.0) -> VectorScene:
    """Glyph scenes laid left to right by mapping a copy of every primitive.

    The reference for placing by offset: the same rule as `typeset` (each
    glyph's lowest point on y = 0, the next one after `spacing` times its
    width, at least 0.5, then every point times `scale`), but every placed
    primitive is a `mapped` copy, so the scene holds no offsets.
    """
    placed = []
    cursor = 0.0
    for scene in scenes:
        min_x, min_y, max_x, _max_y = scene.bounds()
        placed += [prim.mapped(1.0, cursor - min_x, -min_y) for prim in scene.primitives]
        cursor += max(max_x - min_x, 0.5) * (1.0 + spacing)
    if scale != 1.0:
        placed = [prim.mapped(scale, 0.0, 0.0) for prim in placed]
    return VectorScene(placed)


def svg_by_primitive(scene: VectorScene) -> str:
    """`emit_svg`'s document for a non-empty scene, every number formatted where it is written.

    The reference for the writer's per-call texts: a polyline or polygon
    formats all its points with one `%` on a joined `_COORD` template, tests
    the whole text for a letter n (only a nan or inf formats with one) and
    rewrites each number that rounds to -0; the page, circles and arcs format
    each number alone.  It reads `_COORD`, `MARGIN` and `SCALE` when called,
    so a test that patches them patches both writers, and takes the page from
    the scene's own `bounds()`.
    """
    coord, m, s = scene_mod._COORD, scene_mod.MARGIN, scene_mod.SCALE

    def non_finite(text):
        return ValueError(f"refusing to write a non-finite coordinate: {text!r}")

    def fmt(value):
        text = coord % value
        if "n" in text:
            raise non_finite(text)
        return "0.000000" if text == "-0.000000" else text

    def page(x, y):
        return fmt((x - min_x + m) * s), fmt((max_y - y + m) * s)

    def points(prim, dx, dy):
        coords = []
        for x, y in prim.points:
            coords += (((x + dx) - min_x + m) * s, (max_y - (y + dy) + m) * s)
        text = " ".join([coord + "," + coord] * len(prim.points)) % tuple(coords)
        if "n" in text:
            raise non_finite(text)
        return text.replace("-0.000000", "0.000000")

    def element(prim, dx, dy):
        fill, stroke = scene_mod._PAINT[prim.style]
        if isinstance(prim, Polygon):
            return (f'<polygon points="{points(prim, dx, dy)}" fill="{fill}" '
                    f'fill-opacity="0.55" {stroke}/>\n')
        if isinstance(prim, Polyline):
            return f'<polyline points="{points(prim, dx, dy)}" fill="none" {stroke}/>\n'
        if isinstance(prim, Circle):
            cx, cy = page(prim.center.x + dx, prim.center.y + dy)
            return (f'<circle cx="{cx}" cy="{cy}" r="{fmt(prim.radius * s)}" '
                    f'fill="{fill if prim.filled else "none"}" {stroke}/>\n')
        assert isinstance(prim, ArcShape)
        a = prim.arc
        center = (a.center.x + dx, a.center.y + dy)
        x0, y0 = page(*point_on_circle(center, a.radius, a.start_angle))
        x1, y1 = page(*point_on_circle(center, a.radius, a.end_angle))
        large = 1 if arc_extent(a) > 180.0 else 0
        sweep = 0 if a.orientation == CCW else 1
        r = fmt(a.radius * s)
        return (f'<path d="M {x0} {y0} A {r} {r} 0 {large} {sweep} {x1} {y1}" '
                f'fill="none" {stroke}/>\n')

    min_x, min_y, max_x, max_y = scene.bounds()
    width = (max_x - min_x + 2 * m) * s
    height = (max_y - min_y + 2 * m) * s
    if math.isnan(width) or math.isnan(height):
        raise non_finite(f"bounds {min_x!r}, {min_y!r}, {max_x!r}, {max_y!r}")
    if not (math.isfinite(width) and math.isfinite(height)):
        raise ValueError(f"the drawing is too large to write: page {width!r} x {height!r}")
    w, h = fmt(width), fmt(height)
    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n'
             f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n',
             f'<rect x="0" y="0" width="{w}" height="{h}" fill="{scene_mod.BACKGROUND}" '
             f'stroke="none"/>\n']
    parts += [element(prim, dx, dy) for dx, dy, run in scene.runs() for prim in run]
    parts.append("</svg>\n")
    return "".join(parts)
