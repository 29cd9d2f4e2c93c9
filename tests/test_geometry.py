import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puzzlefonts.errors import DegenerateDisks, DisconnectedPath
from puzzlefonts.geometry import (
    CCW, CHAIN_TOL, CW, TOL, Arc, Point2, Segment, _elements_meet, arc_contains_angle,
    arc_extent, arc_length, arc_start_point, arc_end_point, convex_hull, dist,
    dot, hull_perimeter, normalize_angle, path_is_simple,
    point_segment_distance, sub, tangent_points,
)
from oracles import (
    path_is_simple_by_elements, point_segment_distance_by_vectors, polyline_is_simple_exact,
    segment_meets_arc_by_vectors, segments_meet_by_vectors, tangent_points_by_rotation,
)

SQRT3_2 = math.sqrt(3.0) / 2.0


def tangency_residuals(c, p, q):
    """Independent check: |p - c| vs 1 and radius-segment perpendicularity."""
    radial = sub(p, c)
    along = sub(q, p)
    return abs(dist(p, c) - 1.0), abs(dot(radial, along)) / dist(p, q)


class TestTangentPoints:
    def test_external_left(self):
        assert tangent_points((0, 0), (4, 0), "external", "left") == ((0, 1), (4, 1))

    def test_external_right_mirror(self):
        assert tangent_points((0, 0), (4, 0), "external", "right") == ((0, -1), (4, -1))

    def test_internal_left_derived(self):
        # analytic solution: touch angle acos(2/d) = 60 degrees for d = 4
        p1, p2 = tangent_points((0, 0), (4, 0), "internal", "left")
        assert p1 == pytest.approx((0.5, SQRT3_2), abs=1e-12)
        assert p2 == pytest.approx((3.5, -SQRT3_2), abs=1e-12)
        for c, a, b in (((0, 0), p1, p2), ((4, 0), p2, p1)):
            dr, dperp = tangency_residuals(c, a, b)
            assert dr < 1e-9 and dperp < 1e-9

    def test_degenerate(self):
        with pytest.raises(DegenerateDisks):
            tangent_points((0, 0), (0, 0), "external", "left")
        with pytest.raises(DegenerateDisks):
            tangent_points((0, 0), (1.5, 0), "internal", "left")

    @given(st.floats(2.001, 50), st.floats(0, 360),
           st.sampled_from(["external", "internal"]), st.sampled_from(["left", "right"]))
    @settings(max_examples=200)
    def test_tangency_property(self, d, ang, kind, side):
        c1 = Point2(0.0, 0.0)
        c2 = Point2(d * math.cos(math.radians(ang)), d * math.sin(math.radians(ang)))
        p1, p2 = tangent_points(c1, c2, kind, side)
        for c, a, b in ((c1, p1, p2), (c2, p2, p1)):
            dr, dperp = tangency_residuals(c, a, b)
            assert dr <= 1e-9
            assert dperp <= 1e-9

    def test_matches_rotation_oracle_bit_for_bit(self):
        # repr shows every bit, and the sign of a zero
        rng = random.Random(27)
        pairs = []
        for _ in range(1_000):  # anywhere, at any angle
            c1 = (rng.uniform(-50, 50), rng.uniform(-50, 50))
            d, a = rng.uniform(2.0, 30.0), rng.uniform(0.0, 2 * math.pi)
            pairs.append((c1, (c1[0] + d * math.cos(a), c1[1] + d * math.sin(a))))
        for _ in range(600):  # axis-aligned, from centers with signed zeros
            c1 = (rng.choice([0.0, -0.0, float(rng.randint(-9, 9))]),
                  rng.choice([0.0, -0.0, float(rng.randint(-9, 9))]))
            d = rng.choice([float(rng.randint(3, 12)), rng.uniform(2.0, 12.0)])
            dx, dy = rng.choice([(d, 0.0), (-d, 0.0), (0.0, d), (0.0, -d), (d, -0.0)])
            pairs.append((c1, (c1[0] + dx, c1[1] + dy)))
        for _ in range(600):  # within 1e-6 of the closest a crossing tangent allows
            c1 = (rng.uniform(-9, 9), rng.uniform(-9, 9))
            d, a = 2.0 + TOL + rng.uniform(0.0, 1e-6), rng.uniform(0.0, 2 * math.pi)
            pairs.append((c1, (c1[0] + d * math.cos(a), c1[1] + d * math.sin(a))))
        for _ in range(60):  # crossing touch points level with or plumb above a center at -0.0
            d = rng.uniform(2.5, 10.0)
            turn = rng.choice([-1, 1]) * math.acos(2.0 / d)
            th = rng.choice([0.0, 0.5, 1.0, 1.5]) * math.pi - turn
            dx, dy = d * math.cos(th), d * math.sin(th)
            # some float neighbours of this center line turn to an exact zero component
            pairs += [((-(dx + k * math.ulp(dx)), -dy), (-0.0, -0.0)) for k in range(-10, 11)]
        pairs = [(c1, c2) for c1, c2 in pairs if dist(c1, c2) > 2.0 + TOL]
        assert len(pairs) >= 2_000
        for c1, c2 in pairs:
            for kind in ("external", "internal"):
                for side in ("left", "right"):
                    assert (repr(tuple(map(tuple, tangent_points(c1, c2, kind, side))))
                            == repr(tangent_points_by_rotation(c1, c2, kind, side))), (c1, c2)

    def test_side_convention(self):
        # "left" means left of the directed center line
        p1, _ = tangent_points((0, 0), (10, 0), "external", "left")
        assert p1.y > 0
        p1, _ = tangent_points((10, 0), (0, 0), "external", "left")
        assert p1.y < 0


def _poly(points):
    return [Segment(Point2(*points[i]), Point2(*points[i + 1])) for i in range(len(points) - 1)]


class TestPathIsSimple:
    def test_square(self):
        assert path_is_simple(_poly([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]))

    def test_figure_eight(self):
        assert not path_is_simple(_poly([(0, 0), (2, 2), (2, 0), (0, 2), (0, 0)]))

    def test_collinear_doubling_policy(self):
        doubled = _poly([(0, 0), (1, 0), (0, 0), (-1, 0)])
        assert not path_is_simple(doubled)
        overlap = _poly([(0, 0), (2, 0), (1, 1), (1, 0), (3, 0)])
        assert not path_is_simple(overlap)

    def test_disconnected(self):
        with pytest.raises(DisconnectedPath):
            path_is_simple([Segment(Point2(0, 0), Point2(1, 0)),
                            Segment(Point2(5, 5), Point2(6, 5))])

    def test_segment_arc_crossing(self):
        arc = Arc(Point2(0, 0), 1.0, 90.0, 270.0, CCW)
        # a chord through the left half-circle crosses the arc twice
        crossing = Segment(Point2(-2, 0.5), Point2(2, 0.5))
        assert _elements_meet(crossing, arc)
        # a tangent touching the arc meets it; one fully right of the circle does not
        assert _elements_meet(Segment(Point2(-1, -2), Point2(-1, 2)), arc)
        assert not _elements_meet(Segment(Point2(2, -1), Point2(2, 1)), arc)

    def test_arc_arc_same_circle_overlap(self):
        a1 = Arc(Point2(0, 0), 1.0, 0.0, 180.0, CCW)
        a2 = Arc(Point2(0, 0), 1.0, 90.0, 270.0, CCW)
        assert _elements_meet(a1, a2)

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                    min_size=3, max_size=21))
    @settings(max_examples=300)
    def test_matches_exact_oracle(self, pts):
        # drop repeated consecutive points (zero-length bars)
        cleaned = [pts[0]]
        for p in pts[1:]:
            if p != cleaned[-1]:
                cleaned.append(p)
        if len(cleaned) < 3:
            return
        path = _poly(cleaned)
        try:
            got = path_is_simple(path)
        except DisconnectedPath:
            return
        closed = cleaned[0] == cleaned[-1]
        assert got == polyline_is_simple_exact(cleaned, closed=closed)


_STEP = 15.0  # arc angles below are whole steps, so every comparison is exact
_GRID_POINTS = st.builds(Point2, st.integers(-2, 2).map(float), st.integers(-2, 2).map(float))
_SEGMENTS = st.builds(Segment, _GRID_POINTS, _GRID_POINTS).filter(lambda s: s.a != s.b)
_ANGLES = st.integers(0, 24).map(lambda k: k * _STEP)


def _arcs(centers=st.sampled_from([Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0)]),
          radii=st.sampled_from([1.0, 2.0])):
    return st.builds(Arc, centers, radii, _ANGLES, _ANGLES, st.sampled_from([CCW, CW]))


def _step_meet(a1, a2):
    """Whether two arcs on one circle share a whole step point."""
    def points(arc):
        start = round((arc.start_angle if arc.orientation == CCW else arc.end_angle) / _STEP)
        return {(start + k) % 24 for k in range(round(arc_extent(arc) / _STEP) + 1)}
    return bool(points(a1) & points(a2))


class TestElementClassSymmetry:
    def test_short_arc_inside_long_arc(self):
        long_arc = Arc(Point2(0, 0), 1.0, 0.0, 350.0, CCW)
        short_arc = Arc(Point2(0, 0), 1.0, 100.0, 110.0, CCW)
        assert _elements_meet(long_arc, short_arc)
        assert _elements_meet(short_arc, long_arc)

    @given(st.one_of(_SEGMENTS, _arcs()), st.one_of(_SEGMENTS, _arcs()))
    @settings(max_examples=500)
    def test_symmetric(self, e1, e2):
        assert _elements_meet(e1, e2) == _elements_meet(e2, e1)

    @given(_arcs(st.just(Point2(0.0, 0.0)), st.just(1.0)),
           _arcs(st.just(Point2(0.0, 0.0)), st.just(1.0)))
    @settings(max_examples=300)
    def test_same_circle_matches_steps(self, a1, a2):
        assert _elements_meet(a1, a2) == _step_meet(a1, a2)


def _seeded_segment_cases(rng):
    """(p, a, b) triples and (a, b, c, d) segment pairs about the edge cases of
    the distance and meeting tests: anywhere, on a signed-zero integer grid,
    zero-length and shorter than TOL, collinear, sharing an end, with a point
    within 1e-9 of a distance tolerance (1 - 1e-9 and 10 TOL), and nearly
    collinear with an orientation within ulps of TOL."""
    def point():
        return (rng.uniform(-9, 9), rng.uniform(-9, 9))

    def grid():
        return (rng.choice([0.0, -0.0, float(rng.randint(-4, 4))]),
                rng.choice([0.0, -0.0, float(rng.randint(-4, 4))]))

    def off(a, b, t, gap):
        # the point at t along ab, moved `gap` off its line
        dx, dy = b[0] - a[0], b[1] - a[1]
        norm = math.hypot(dx, dy) or 1.0
        return (a[0] + t * dx - gap * dy / norm, a[1] + t * dy + gap * dx / norm)

    triples, pairs = [], []
    for _ in range(400):
        a = point()
        tiny = rng.choice([0.0, rng.uniform(0.0, 1e-9), rng.uniform(1e-9, 2e-9)])
        b = rng.choice([point(), a, (a[0] + tiny, a[1] - tiny)])
        p = rng.choice([point(), grid(), a, b, off(a, b, rng.uniform(-0.5, 1.5),
                        rng.choice([1.0, 10 * TOL]) + rng.uniform(-1e-9, 1e-9))])
        triples.append((p, a, b))
        triples.append((grid(), grid(), grid()))
        # int tuples, as hand-made paths give them
        triples.append(tuple((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)))
    for _ in range(400):
        a, b = rng.choice([(point(), point()), (grid(), grid())])
        kind = rng.randrange(6)
        if kind == 0:  # anywhere
            c, d = point(), point()
        elif kind == 1:  # collinear with ab
            c, d = off(a, b, rng.uniform(-1, 2), 0.0), off(a, b, rng.randint(-3, 3) / 2, 0.0)
        elif kind == 2:  # sharing an end, or an end on the other segment
            c, d = rng.choice([a, b, off(a, b, rng.uniform(0, 1), 0.0)]), point()
        elif kind == 3:  # zero-length
            c = point()
            d = rng.choice([c, (c[0] + 1e-10, c[1]), a])
        elif kind == 4:  # an end within 1e-9 of 10 TOL from ab
            c = off(a, b, rng.uniform(-0.1, 1.1),
                    rng.choice([-1, 1]) * (10 * TOL + rng.uniform(-1e-9, 1e-9)))
            d = rng.choice([point(), off(a, b, rng.uniform(0, 1), rng.uniform(-1e-9, 1e-9))])
        else:  # on the signed-zero grid
            c, d = grid(), grid()
        pairs.append((a, b, c, d))
        pairs.append((c, d, a, b))
    for _ in range(40):
        # cd continues ab after a gap between TOL and 10 TOL, and d leaves the
        # line so that its orientation about ab runs ulp by ulp across TOL:
        # all four tests zero, the segments are collinear and apart; one
        # above TOL, b lies within 10 TOL of cd
        a, b = point(), point()
        length = math.dist(a, b)
        c = off(a, b, 1.0 + 5e-9 / length, 0.0)
        d0 = off(a, b, 2.0, TOL / length)
        for k in range(-12, 13):
            d = (d0[0], d0[1] + k * math.ulp(d0[1]))
            pairs.append((a, b, c, d))
    return triples, pairs


class TestVectorFreeForms:
    """point_segment_distance and the segment-segment branch of _elements_meet
    compute in plain floats; the vector-helper forms are the reference."""

    def test_point_segment_distance_bit_for_bit(self):
        triples, _ = _seeded_segment_cases(random.Random(28))
        assert len(triples) >= 1_200
        for p, a, b in triples:
            assert (repr(point_segment_distance(p, a, b))
                    == repr(point_segment_distance_by_vectors(p, a, b))), (p, a, b)

    def test_segments_meet_as_reference(self):
        _, pairs = _seeded_segment_cases(random.Random(29))
        met = 0
        for a, b, c, d in pairs:
            got = _elements_meet(Segment(Point2(*a), Point2(*b)), Segment(Point2(*c), Point2(*d)))
            assert got == segments_meet_by_vectors(a, b, c, d), (a, b, c, d)
            met += got
        assert 0 < met < len(pairs)

    def test_segments_meet_on_int_points(self):
        # _poly's int coordinates go through the same arithmetic
        rng = random.Random(30)
        for _ in range(500):
            a, b, c, d = (tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(4))
            assert _elements_meet(Segment(a, b), Segment(c, d)) == \
                segments_meet_by_vectors(a, b, c, d), (a, b, c, d)


def _seeded_segment_arc_cases(rng):
    """(segment, arc) pairs about the edge cases of the segment-arc test:
    lines tangent to the circle within 1e-9, circle points at t within a
    millionth of -t_slack and of 1 + t_slack, zero-length and sub-TOL
    segments, zero-extent (grazing) arcs, and signed zeros."""
    def center():
        return Point2(rng.choice([0.0, -0.0, rng.uniform(-5, 5)]),
                      rng.choice([0.0, -0.0, rng.uniform(-5, 5)]))

    cases = []
    for k in range(3_000):
        c, r = center(), rng.choice([1.0, 1.0, rng.uniform(0.5, 3.0)])
        theta = rng.uniform(0.0, 2 * math.pi)
        ux, uy = math.cos(theta), math.sin(theta)
        on = (c.x + r * ux, c.y + r * uy)
        kind = k % 6
        if kind == 0:  # tangent within 1e-9, touching inside the segment or past an end
            s1, s2 = rng.uniform(-3.0, 1.0), rng.uniform(-1.0, 3.0)
            # or with the discriminant 4 |ab|^2 (r^2 - off^2) about -TOL or in (-TOL, 0)
            f = rng.choice([1 - 1e-3, 1 + 1e-3, rng.uniform(0.0, 1.0)])
            off = rng.choice([r + rng.uniform(-1e-9, 1e-9),
                              math.sqrt(r * r + TOL * f / (4 * (s2 - s1) ** 2))])
            p = (c.x + off * ux, c.y + off * uy)
            a, b = (p[0] - uy * s1, p[1] + ux * s1), (p[0] - uy * s2, p[1] + ux * s2)
        elif kind in (1, 2):  # the circle point at t just past -t_slack or 1 + t_slack
            length = rng.uniform(0.1, 4.0)
            phi = rng.uniform(0.0, 2 * math.pi)
            dx, dy = length * math.cos(phi), length * math.sin(phi)
            t = (TOL * 100) / length * rng.choice([1 - 1e-6, 1.0, 1 + 1e-6])
            t = -t if kind == 1 else 1.0 + t
            a = (on[0] - t * dx, on[1] - t * dy)
            b = (a[0] + dx, a[1] + dy)
        elif kind == 3:  # zero-length or within TOL of it
            a = on
            b = rng.choice([a, (a[0] + 1e-10, a[1]), (a[0], a[1] - 2e-9), (a[0] + 1e-9, a[1])])
        elif kind == 4:  # anywhere
            a, b = ((rng.uniform(-6, 6), rng.uniform(-6, 6)) for _ in range(2))
        else:  # signed-zero grid about a unit circle on the origin
            c, r = Point2(rng.choice([0.0, -0.0]), rng.choice([0.0, -0.0])), 1.0
            a, b = ((rng.choice([0.0, -0.0, float(rng.randint(-2, 2))]),
                     rng.choice([0.0, -0.0, float(rng.randint(-2, 2))])) for _ in range(2))
        at = math.degrees(math.atan2(on[1] - c.y, on[0] - c.x)) % 360.0
        start = rng.choice([at, at - 10.0, at + 1e-7, rng.uniform(0.0, 360.0), 0.0, -0.0]) % 360.0
        end = rng.choice([start, at, at + 10.0, rng.uniform(0.0, 360.0)]) % 360.0
        cases.append((Segment(Point2(*a), Point2(*b)),
                      Arc(c, r, start, end, rng.choice([CCW, CW]))))
    return cases


def _verdict(check, path):
    try:
        return repr(check(path))
    except DisconnectedPath as exc:
        return f"DisconnectedPath: {exc}"


def _seeded_paths(rng):
    """Closed belts on seeded disk sets, collinear ones with grazing arcs
    among them, each also with one element's end moved by a gap a millionth
    either side of CHAIN_TOL; and closed polylines on a signed-zero grid,
    some with such gaps."""
    from puzzlefonts.conveyer import compute_belt
    paths = []
    for k in range(60):
        n = 3 + k % 3
        if k % 4 == 0:  # collinear: the hull belt grazes the middle disks
            disks = [(4.0 * i, 0.0) for i in range(n)]
        else:
            disks = []
            while len(disks) < n:
                cand = (rng.uniform(0, 9), rng.uniform(0, 9))
                if all(math.dist(cand, p) > 2.05 for p in disks):
                    disks.append(cand)
        order = [0] + rng.sample(range(1, n), n - 1)
        belt = list(compute_belt(disks, [(i, rng.choice([CCW, CW])) for i in order]).elements)
        paths.append(belt)
        for _ in range(4):
            at = rng.randrange(len(belt))
            el = belt[at]
            gap = CHAIN_TOL * rng.choice([1 - 1e-6, 1 + 1e-6, 0.5, 2.0])
            if isinstance(el, Segment):
                moved = Segment(el.a, Point2(el.b.x + gap, el.b.y))
            else:  # a unit arc: its end moves by a chord of about gap
                moved = el._replace(end_angle=el.end_angle + math.degrees(gap))
            paths.append(belt[:at] + [moved] + belt[at + 1:])
    for k in range(600):
        pts = [(rng.choice([0.0, -0.0, float(rng.randint(-3, 3)), rng.uniform(-3, 3)]),
                rng.choice([0.0, -0.0, float(rng.randint(-3, 3)), rng.uniform(-3, 3)]))
               for _ in range(rng.randint(2, 8))]
        pts.append(pts[0])
        path = [Segment(Point2(*a), Point2(*b)) for a, b in zip(pts, pts[1:])]
        if k % 3 == 0:
            at = rng.randrange(len(path))
            gap = CHAIN_TOL * rng.choice([1 - 1e-6, 1 + 1e-6])
            path[at] = Segment(Point2(path[at].a.x + gap, path[at].a.y), path[at].b)
        paths.append(path)
    return paths


class TestSegmentArcAndPathForms:
    """The segment-arc branch of _elements_meet and path_is_simple compute in
    plain floats, one pass over the elements; the forms built on vector
    helpers and on element_start, element_end and element_length are the
    reference."""

    def test_segment_arc_as_reference(self):
        met = 0
        for seg, arc in _seeded_segment_arc_cases(random.Random(29)):
            expected = segment_meets_arc_by_vectors(seg, arc)
            assert _elements_meet(seg, arc) == expected, (seg, arc)
            assert _elements_meet(arc, seg) == expected, (seg, arc)
            met += expected
        assert 500 < met < 2_500

    def test_path_is_simple_as_reference(self):
        verdicts = {}
        for path in _seeded_paths(random.Random(30)):
            expected = _verdict(path_is_simple_by_elements, path)
            assert _verdict(path_is_simple, path) == expected, path
            verdicts[expected.split(":")[0]] = verdicts.get(expected.split(":")[0], 0) + 1
        assert set(verdicts) == {"True", "False", "DisconnectedPath"}, verdicts

    def test_every_winding_of_the_letters_as_reference(self, shipped):
        # L and Z moved to (1e10, 1e10) are judged in their own frame, so
        # their belts chain there and get the verdicts they get at the origin
        from puzzlefonts.conveyer import compute_belt
        glyphs = shipped["conveyer"].glyphs
        sets = {ch: rec.disks for ch, rec in sorted(glyphs.items())}
        sets.update({"far " + ch: [(x + 1e10, y + 1e10) for x, y in glyphs[ch].disks]
                     for ch in "LZ"})
        verdicts = {}
        for name, disks in sets.items():
            n = len(disks)
            verdicts[name] = []
            for perm in itertools.permutations(range(1, n)):
                for orients in itertools.product((CCW, CW), repeat=n):
                    path = compute_belt(disks, list(zip((0,) + perm, orients))).elements
                    expected = _verdict(path_is_simple_by_elements, path)
                    assert _verdict(path_is_simple, path) == expected, (disks, perm, orients)
                    verdicts[name].append(expected)
        for ch in "LZ":
            assert verdicts["far " + ch] == verdicts[ch]
            assert not any(v.startswith("DisconnectedPath") for v in verdicts["far " + ch])


class TestArcs:
    def test_extent_and_length(self):
        a = Arc(Point2(0, 0), 1.0, 90.0, 270.0, CCW)
        assert arc_extent(a) == pytest.approx(180.0)
        assert arc_length(a) == pytest.approx(math.pi)
        b = Arc(Point2(0, 0), 1.0, 90.0, 270.0, CW)
        assert arc_extent(b) == pytest.approx(180.0)
        z = Arc(Point2(0, 0), 1.0, 45.0, 45.0, CCW)
        assert arc_extent(z) == 0.0

    def test_membership(self):
        a = Arc(Point2(0, 0), 1.0, 350.0, 10.0, CCW)  # spans the wraparound
        assert arc_contains_angle(a, 0.0)
        assert arc_contains_angle(a, 355.0)
        assert not arc_contains_angle(a, 180.0)

    def test_endpoints(self):
        a = Arc(Point2(1, 1), 1.0, 0.0, 90.0, CCW)
        assert arc_start_point(a) == pytest.approx((2.0, 1.0))
        assert arc_end_point(a) == pytest.approx((1.0, 2.0))


class TestHull:
    def test_triangle_perimeter(self):
        assert hull_perimeter([(0, 0), (4, 0), (0, 3)]) == pytest.approx(12.0)

    def test_interior_point_ignored(self):
        hull = convex_hull([(0, 0), (4, 0), (0, 3), (1, 1)])
        assert (1.0, 1.0) not in hull

    def test_point_segment_distance(self):
        assert point_segment_distance((0, 2), (-1, 0), (1, 0)) == pytest.approx(2.0)
        assert point_segment_distance((5, 0), (-1, 0), (1, 0)) == pytest.approx(4.0)


@pytest.mark.parametrize("raw,expected", [
    (0.0, 0.0), (360.0, 0.0), (725.0, 5.0), (-90.0, 270.0), (359.5, 359.5),
])
def test_normalize_angle(raw, expected):
    assert normalize_angle(raw) == pytest.approx(expected)
