import math
import random
import re
import xml.etree.ElementTree as ET
from collections import Counter

import pytest

from oracles import svg_by_primitive
from puzzlefonts import fontdata, scene
from puzzlefonts.errors import EmptyScene
from puzzlefonts.geometry import CCW, CW, Arc, Point2
from puzzlefonts.scene import SvgConfig, VectorScene, emit_svg
from puzzlefonts.typeset import typeset


def scene_with_bits():
    s = VectorScene()
    s.add_circle((0, 0), 1.0, "disk", filled=True)
    s.add_polyline([(0, 0), (2, 0), (2, 2)], "belt")
    s.add_arc(Arc(Point2(0, 0), 1.0, 0.0, 180.0, CCW), "belt")
    s.add_polygon([(0, 0), (1, 0), (0, 1)], "piece")
    return s


def test_empty_scene_raises_by_default():
    with pytest.raises(EmptyScene):
        emit_svg(VectorScene())


def test_empty_scene_allowed_by_flag():
    svg = emit_svg(VectorScene(), SvgConfig(allow_empty=True))
    ET.fromstring(svg)


def test_single_circle_element():
    s = VectorScene()
    s.add_circle((0, 0), 1.0, "disk")
    svg = emit_svg(s)
    root = ET.fromstring(svg)
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    assert len(circles) == 1


def test_byte_determinism():
    a = emit_svg(scene_with_bits())
    b = emit_svg(scene_with_bits())
    assert a.encode() == b.encode()


def test_well_formed_and_six_decimals():
    svg = emit_svg(scene_with_bits())
    ET.fromstring(svg)
    root = ET.fromstring(svg)
    cx = [e for e in root.iter() if e.tag.endswith("circle")][0].get("cx")
    assert len(cx.split(".")[1]) == 6


def test_unknown_style_rejected():
    s = VectorScene()
    with pytest.raises(ValueError):
        s.add_circle((0, 0), 1.0, "plaid")


@pytest.mark.parametrize("add", [VectorScene.add_polyline, VectorScene.add_polygon],
                         ids=["polyline", "polygon"])
@pytest.mark.parametrize("points", [[], iter(())], ids=["list", "iterator"])
def test_empty_point_list_is_refused(add, points):
    # a polyline or polygon with no points has no box
    s = VectorScene()
    s.add_circle((0, 0), 1.0, "disk")
    with pytest.raises(ValueError, match=r"^refusing an empty poly\w+ of style 'boundary'$"):
        add(s, points, "boundary")
    assert len(s.primitives) == 1
    emit_svg(s)


@pytest.mark.parametrize("radius", [-1.0, -1e-300, float("-inf")])
def test_negative_radius_is_refused(radius):
    # SVG has no circle of negative radius; a zero one of either sign is drawn
    s = VectorScene()
    with pytest.raises(ValueError, match=r"^refusing a circle of style 'disk' with negative radius "):
        s.add_circle((0, 0), radius, "disk")
    assert s.primitives == []
    s.add_circle((0, 0), 0.0, "disk")
    s.add_circle((1, 0), -0.0, "disk")
    assert [c.radius for c in s.primitives] == [0.0, -0.0]
    assert emit_svg(s).count(' r="0.000000"') == 2


_NOT_FINITE = "^refusing to write a non-finite coordinate: "


def test_nan_point_is_refused_not_written():
    # min and max skip a nan after the first point, so the page stays finite
    s = VectorScene()
    s.add_polyline([(0, 0), (float("nan"), 1)], "chain")
    assert not any(map(math.isnan, s.bounds()))
    with pytest.raises(ValueError, match=_NOT_FINITE):
        emit_svg(s)


def test_nan_in_the_first_point_is_refused_as_a_coordinate():
    # min and max carry a nan in the first point into the page size, which
    # is then nan, not infinite: the drawing is not too large
    s = VectorScene()
    s.add_polyline([(float("nan"), 0), (0, 1)], "chain")
    with pytest.raises(ValueError, match=_NOT_FINITE):
        emit_svg(s)


def place_again_at_nan(s):
    # a run without arcs placed twice, then at dx = nan: the page stays
    # finite (min and max skip a nan after the first box), and the last
    # placement fills its template's x slots with nan
    glyph = VectorScene()
    glyph.add_polygon([(0, 0), (1, 0), (0.5, 1)], "piece")
    glyph.add_circle((0.5, 0.5), 0.25, "disk")
    glyph = glyph.translated(0.0, 0.0)
    for dx in (0.0, 2.0, math.nan):
        s.extend(glyph.translated(dx, 0.0))
    assert all(map(math.isfinite, s.bounds()))


@pytest.mark.parametrize("add, message", [
    # an inf widens the page to infinity, which is refused before any
    # coordinate is written
    (lambda s: s.add_polygon([(0, 0), (1, 0), (1, float("inf"))], "piece"),
     "^the drawing is too large to write: "),
    (lambda s: s.add_polygon([(1, 0), (float("nan"), 1)], "piece"), _NOT_FINITE),
    (lambda s: s.add_polyline([(2, 2), (0, float("nan"))], "chain"), _NOT_FINITE),
    (lambda s: s.add_circle((float("nan"), 0), 1.0, "disk"), _NOT_FINITE),
    (lambda s: s.add_circle((0, 0), float("nan"), "disk"), _NOT_FINITE),
    (lambda s: s.add_arc(Arc(Point2(float("nan"), 0), 1.0, 0.0, 90.0, CCW), "belt"), _NOT_FINITE),
    (place_again_at_nan, _NOT_FINITE),
], ids=["inf polygon point", "nan x polygon", "nan y polyline", "nan circle center",
        "nan radius", "nan arc center", "repeated run at nan dx"])
def test_non_finite_primitive_after_finite_ones_is_refused(add, message):
    # every other coordinate of the last primitive was written before it;
    # the message is that of the mapped copy, which holds no offsets
    s = scene_with_bits()
    add(s)
    copied = VectorScene([p.mapped(1.0, dx, dy) for dx, dy, run in s.runs() for p in run])
    with pytest.raises(ValueError, match=message) as placed:
        emit_svg(s)
    with pytest.raises(ValueError, match=message) as mapped:
        emit_svg(copied)
    assert str(placed.value) == str(mapped.value)
    with pytest.raises(ValueError, match=message):
        svg_by_primitive(s)


def test_bounds_cover_arc_extremes():
    s = VectorScene()
    s.add_arc(Arc(Point2(0, 0), 2.0, 0.0, 180.0, CCW), "belt")
    min_x, min_y, max_x, max_y = s.bounds()
    assert min_x == pytest.approx(-2.0)
    assert max_x == pytest.approx(2.0)
    assert max_y == pytest.approx(2.0)
    assert min_y == pytest.approx(0.0, abs=1e-6)


def test_translated_scene_preserves_structure():
    s = scene_with_bits()
    t = s.translated(5.0, -1.0)
    assert len(t.primitives) == len(s.primitives)
    assert t.style_classes() == s.style_classes()


@pytest.mark.parametrize("dx, dy", [(0.1, 1e-7), (1e-7, 0.1), (-3.3, 0.7)])
def test_placed_scene_writes_its_mapped_copy(dx, dy, full_precision):
    glyph = scene_with_bits()
    glyph.add_arc(Arc(Point2(1, 2), 2.0, 30.0, 300.0, CW), "belt")  # CW across 0 degrees
    glyph.add_circle((0.3, 0.1), 0.4, "envelope")
    glyph.add_polyline([(1 / 3, 0.1), (0.7, 2 / 3)], "guide")  # more than 6 decimals

    def around(middle):
        s = VectorScene()
        s.add_circle((0, 0), 0.5, "guide")
        s.extend(middle)
        s.add_polyline([(0, 0), (0.7, -0.2)], "chain")
        return s

    placed = around(glyph.translated(dx, dy))
    copied = around(VectorScene([prim.mapped(1.0, dx, dy) for prim in glyph.primitives]))
    assert placed.bounds() == copied.bounds()
    svg = emit_svg(placed)
    assert svg == emit_svg(copied)
    assert any(len(decimals) > 6 for decimals in full_precision(svg))


_STROKE = 'stroke-linecap="round" stroke-linejoin="round"'


@pytest.mark.parametrize("build, element", [
    (lambda s: s.add_polyline([(0, 0), (1, 0.5), (2, 0)], "valley"),
     '<polyline points="24.000000,44.000000 64.000000,24.000000 104.000000,44.000000" '
     f'fill="none" stroke="#2060b3" stroke-width="1.200000" {_STROKE} '
     'stroke-dasharray="4.800000,3.200000"/>'),
    (lambda s: s.add_circle((0.5, -0.25), 1.25, "envelope"),
     '<circle cx="74.000000" cy="74.000000" r="50.000000" fill="none" '
     f'stroke="#666666" stroke-width="1.000000" {_STROKE}/>'),
    (lambda s: s.add_circle((0.5, -0.25), 1.25, "disk", filled=True),
     '<circle cx="74.000000" cy="74.000000" r="50.000000" fill="#d9d9d9" '
     f'stroke="#444444" stroke-width="1.200000" {_STROKE}/>'),
    (lambda s: s.add_arc(Arc(Point2(0, 0), 1.5, 30.0, 300.0, CCW), "belt"),
     '<path d="M 135.961524 54.000000 A 60.000000 60.000000 0 1 0 114.000000 135.961524" '
     f'fill="none" stroke="#111111" stroke-width="2.000000" {_STROKE}/>'),
    (lambda s: s.add_arc(Arc(Point2(1, 1), 0.75, 45.0, 315.0, CW), "belt"),
     '<path d="M 24.000000 24.000000 A 30.000000 30.000000 0 0 1 24.000000 66.426407" '
     f'fill="none" stroke="#111111" stroke-width="2.000000" {_STROKE}/>'),
    (lambda s: s.add_polygon([(0, 0), (1, 0), (0.5, 1)], "piece"),
     '<polygon points="24.000000,64.000000 64.000000,64.000000 44.000000,24.000000" '
     f'fill="#e8d9a0" fill-opacity="0.55" stroke="#555555" stroke-width="0.600000" {_STROKE}/>'),
], ids=["dashed-polyline", "unfilled-circle", "filled-circle", "ccw-large-arc", "cw-arc",
        "polygon"])
def test_primitive_element_bytes(build, element):
    s = VectorScene()
    build(s)
    assert emit_svg(s).splitlines()[3:] == [element, "</svg>"]


# With a margin of -20 and a scale of 1, a point (x, y) of a scene spanning
# [0, 30] x [0, 30] is written at (x - 20, 10 - y); with the shipped positive
# margin no coordinate is ever negative.  19.9999996 and 10.0000004 land at
# about -4e-7, which rounds to -0.000000 and must be written 0.000000, while
# -0.000001 and -10.000000 keep their sign.
_SIGNED = [(0, 30), (19.9999996, 10.0000004), (19.999999, 10.000001), (10, 20), (30, 0)]
_SIGNED_POINTS = ('points="-20.000000,-20.000000 0.000000,0.000000 -0.000001,-0.000001 '
                  '-10.000000,-10.000000 10.000000,10.000000"')
_FRAME = [(0, 30), (30, 0)]


@pytest.mark.parametrize("build, element", [
    (lambda s: s.add_polyline(_SIGNED, "chain"),
     f'<polyline {_SIGNED_POINTS} fill="none" stroke="#333333" stroke-width="0.800000" {_STROKE}/>'),
    (lambda s: s.add_polygon(_SIGNED, "chain"),
     f'<polygon {_SIGNED_POINTS} fill="none" fill-opacity="0.55" stroke="#333333" '
     f'stroke-width="0.800000" {_STROKE}/>'),
    (lambda s: s.add_circle((19.9999996, 10.0000004), 1.0, "disk"),
     '<circle cx="0.000000" cy="0.000000" r="1.000000" fill="none" '
     f'stroke="#444444" stroke-width="1.200000" {_STROKE}/>'),
    (lambda s: s.add_circle((19.999999, 20), 1.0, "disk"),
     '<circle cx="-0.000001" cy="-10.000000" r="1.000000" fill="none" '
     f'stroke="#444444" stroke-width="1.200000" {_STROKE}/>'),
    (lambda s: s.add_arc(Arc(Point2(10, 10.0000004), 9.9999996, 0.0, 90.0, CCW), "belt"),
     '<path d="M 0.000000 0.000000 A 10.000000 10.000000 0 0 0 -10.000000 -10.000000" '
     f'fill="none" stroke="#111111" stroke-width="2.000000" {_STROKE}/>'),
    (lambda s: s.add_arc(Arc(Point2(10, 10.000001), 9.999999, 0.0, 90.0, CCW), "belt"),
     '<path d="M -0.000001 -0.000001 A 9.999999 9.999999 0 0 0 -10.000000 -10.000000" '
     f'fill="none" stroke="#111111" stroke-width="2.000000" {_STROKE}/>'),
], ids=["polyline", "polygon", "circle-zero", "circle-signed", "arc-zero", "arc-signed"])
def test_negative_zero_written_unsigned(build, element, monkeypatch):
    assert "%.6f" % (19.9999996 - 20.0) == "-0.000000"
    assert "%.6f" % (30.0 - 10.0000004 - 20.0) == "-0.000000"
    monkeypatch.setattr(scene, "MARGIN", -20.0)
    monkeypatch.setattr(scene, "SCALE", 1.0)
    s = VectorScene()
    s.add_polyline(_FRAME, "guide")
    build(s)
    assert emit_svg(s).splitlines()[4:] == [element, "</svg>"]


def test_bounds_cover_cw_arc_across_zero():
    s = VectorScene()
    s.add_arc(Arc(Point2(1, 2), 2.0, 30.0, 300.0, CW), "belt")
    min_x, min_y, max_x, max_y = s.bounds()
    assert max_x == pytest.approx(3.0)              # the 0 degree point
    assert min_x == pytest.approx(2.0)              # the 300 degree end
    assert max_y == pytest.approx(3.0)              # the 30 degree start
    assert min_y == pytest.approx(2.0 - 3 ** 0.5)   # the 300 degree end


# The writer formats each distinct moved coordinate once per `emit_svg` call.
# `svg_by_primitive` formats every number where it is written; the two must
# agree byte for byte, at 6 decimals and at full precision ("%r").
_PRECISIONS = pytest.mark.parametrize("coord", ["%.6f", "%r"], ids=["6-decimals", "repr"])


def assert_writes_oracle(s):
    svg = emit_svg(s)
    assert svg == svg_by_primitive(s)
    return svg


def written_numbers(svg: str) -> list:
    """Every number of the points and circle centers written, in order."""
    return [v for text in re.findall(r'(?:points|cx|cy)="([^"]*)"', svg) for v in re.split("[ ,]", text)]


@pytest.mark.parametrize("variant", ["solved", "puzzle"])
@pytest.mark.parametrize("font", fontdata.FONT_IDS)
def test_typeset_scenes_write_the_oracle(shipped, font, variant):
    rng = random.Random(f"writer:{font}:{variant}")
    lengths = iter([1, 16, rng.randint(2, 15), rng.randint(2, 15)])
    for spacing in (-0.5, 0.0, 0.5, 2.0):
        scale = rng.choice((0.5, 1.0, 2.0))
        text = "".join(rng.choice("FILNOTUZ") for _ in range(next(lengths)))
        result = typeset(shipped[font], text, variant, rng.randrange(2 ** 31), spacing, scale)
        assert emit_svg(result.scene) == svg_by_primitive(result.scene), (text, spacing, scale)


@pytest.fixture
def element_calls(monkeypatch):
    """Calls of `Polygon.svg_element` and `Circle.svg_element`, by class."""
    calls = Counter()
    for kind in (scene.Polygon, scene.Circle):
        def counted(prim, *args, _kind=kind, _write=kind.svg_element):
            calls[_kind] += 1
            return _write(prim, *args)
        monkeypatch.setattr(kind, "svg_element", counted)
    return calls


def drawn(s, *kinds):
    return Counter(type(prim) for prim in s.primitives if type(prim) in kinds)


@pytest.mark.parametrize("font, text, once", [
    # each of 8 letters twice: each distinct side view is written once
    ("cane", "FILNOTUZ" "ZUTONLIF", "FILNOTUZ"),
    # one chain strip for every letter
    ("hinged", "F", "F"), ("hinged", "FILNOTUZ", "F"), ("hinged", "ZZZZZZZZZZZZZZZZ", "F"),
    # seeded per position, so no run is placed twice
    ("linkage", "FIFIZZ", None),
], ids=["cane-puzzle", "hinged-puzzle-1", "hinged-puzzle-8", "hinged-puzzle-16",
        "linkage-puzzle"])
def test_a_run_placed_again_is_written_once_per_call(shipped, element_calls, font, text, once):
    s = typeset(shipped[font], text, "puzzle").scene
    svg = emit_svg(s)
    calls = dict(element_calls)
    assert svg == svg_by_primitive(s)
    kinds = (scene.Polygon, scene.Circle)
    want = drawn(s if once is None else typeset(shipped[font], once, "puzzle").scene, *kinds)
    assert calls == want and sum(want.values()) > 0
    if font == "hinged":
        assert calls == {scene.Polygon: 128, scene.Circle: 127}


@_PRECISIONS
def test_signed_zeros_at_signed_zero_offsets(coord, monkeypatch):
    monkeypatch.setattr(scene, "_COORD", coord)
    g = VectorScene()
    g.add_polyline([(0.0, -0.0), (-0.0, 0.0), (1.0, -0.0), (-0.0, 1.0)], "chain")
    g.add_polygon([(-0.0, -0.0), (0.5, 0.0), (0.0, 0.5)], "piece")
    g.add_arc(Arc(Point2(0.0, -0.0), 0.5, 0.0, 90.0, CCW), "belt")
    for circled in (False, True):  # a page corner at a signed zero, then not
        if circled:
            g.add_circle((-0.0, 0.0), 0.25, "disk")
        s = VectorScene()
        for dx, dy in [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]:
            s.extend(g.translated(dx, dy))
        s.extend(g)  # and an unplaced tail
        # and a run without arcs placed at each signed zero, x + -0.0 being
        # x, so that each placement is written from one template
        flat = VectorScene(g.primitives[:2]).translated(-0.0, -0.0)
        for dx, dy in [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]:
            s.extend(flat.translated(dx, dy))
        assert (s.bounds()[:2] == (0.0, 0.0)) is not circled
        assert "-0.0" not in assert_writes_oracle(s)


def test_pixels_just_below_zero_are_written_unsigned(monkeypatch):
    # as in test_negative_zero_written_unsigned: margin -20 and scale 1 put x
    # at x - 20 and y at 10 - y on a [0, 30] x [0, 30] page
    monkeypatch.setattr(scene, "MARGIN", -20.0)
    monkeypatch.setattr(scene, "SCALE", 1.0)
    below = [20.0 - 4.999e-7, 20.0 - 4e-7, 20.0 - 1e-9, math.nextafter(20.0, 0.0)]
    s = VectorScene()
    s.add_polyline(_FRAME, "guide")
    s.add_polyline([(x, 30.0 - x) for x in below], "chain")
    s.add_polygon([(x, 30.0 - x) for x in reversed(below)], "piece")
    s.add_circle((below[1], 30.0 - below[1]), 1.0, "disk")
    pixels = [(x - 0.0 - 20.0) * 1.0 for x in below]
    assert all(-5e-7 < v < 0 for v in pixels)
    svg = assert_writes_oracle(s)
    assert written_numbers(svg)[4:] == ["0.000000"] * (4 * len(below) + 2)


@_PRECISIONS
def test_one_coordinate_from_different_offsets(coord, monkeypatch):
    monkeypatch.setattr(scene, "_COORD", coord)
    assert 0.1 + 0.2 == 0.30000000000000004

    def line(*points):
        g = VectorScene()
        g.add_polyline(points, "chain")
        return g

    s = line((0.0, 0.0), (2.0, 2.0))
    # each run reaches the moved point (0.75, 0.30000000000000004)
    s.extend(line((0.5, 0.1)).translated(0.25, 0.2))
    s.extend(line((0.25, 0.2)).translated(0.5, 0.1))
    s.extend(line((1.0, 0.30000000000000004)).translated(-0.25, 0.0))
    s.add_polyline([(0.75, 0.1 + 0.2)], "chain")
    numbers = written_numbers(assert_writes_oracle(s))
    assert numbers[4:] == numbers[4:6] * 4


@_PRECISIONS
def test_values_one_ulp_apart(coord, monkeypatch):
    monkeypatch.setattr(scene, "_COORD", coord)
    up = math.nextafter(1.0, 2.0)
    s = VectorScene()
    # 1.0 is the page's corner, so up - min_x is exact and the page keeps
    # 1.0 and up apart
    s.add_polyline([(1.0, 1.0), (up, up), (1.0, up), (up, 1.0), (2.0, 2.0)], "chain")
    s.extend(s.translated(up - 1.0, 0.0))
    numbers = written_numbers(assert_writes_oracle(s))
    if coord == "%r":
        assert numbers[0] != numbers[2] and numbers[1] != numbers[3]


@_PRECISIONS
def test_one_scene_placed_in_several_runs(coord, monkeypatch):
    monkeypatch.setattr(scene, "_COORD", coord)
    glyph = scene_with_bits()
    glyph.add_arc(Arc(Point2(1, 2), 2.0, 30.0, 300.0, CW), "belt")
    s = VectorScene()
    for dx, dy in [(0.0, 0.0), (3.0, 0.0), (-2.5, 1e-7), (1 / 3, -2 / 3), (3.0, 0.0)]:
        s.extend(glyph.translated(dx, dy))
    assert_writes_oracle(s)


@_PRECISIONS
@pytest.mark.parametrize("arcs", [False, True], ids=["without-arcs", "with-arcs"])
def test_a_placed_glyph_placed_again_at_several_offsets(coord, arcs, element_calls, monkeypatch):
    # a glyph placed first keeps one group box object for all its runs, so
    # without arcs it is written once per dy (here two), and with an arc
    # primitive by primitive
    monkeypatch.setattr(scene, "_COORD", coord)
    glyph = scene_with_bits()
    glyph.add_polyline([(1 / 3, 0.1), (0.7, 2 / 3)], "guide")
    if not arcs:
        glyph = VectorScene([p for p in glyph.primitives if not isinstance(p, scene.ArcShape)])
    glyph = glyph.translated(0.1, 0.0)
    s = VectorScene()
    offsets = [(0.0, 0.0), (3.0, 0.0), (-2.5, 1e-7), (1 / 3, 1e-7), (3.0, 0.0), (0.7, 1e-7), (-1e-9, 0.0)]
    for dx, dy in offsets:
        s.extend(glyph.translated(dx, dy))
    svg = emit_svg(s)
    assert dict(element_calls) == {scene.Polygon: 7 if arcs else 2, scene.Circle: 7 if arcs else 2}
    assert svg == svg_by_primitive(s)


def test_a_coordinate_text_is_formatted_only_if_finite():
    # an inf coordinate widens the page to infinity, which is refused before
    # any coordinate is written, so the texts meet one only directly
    texts = scene._Texts(lambda v: v * 2.0)
    assert texts[1.0] == "2.000000"
    for bad in (math.inf, -math.inf, math.nan):
        for _ in range(2):
            with pytest.raises(ValueError, match=_NOT_FINITE):
                texts[bad]
    assert texts == {1.0: "2.000000"}


def test_calls_in_a_row_do_not_share_texts():
    # the same moved coordinate lies elsewhere on each page
    a = VectorScene()
    a.add_polyline([(0, 0), (1, 1)], "chain")
    a.add_circle((1, 1), 0.5, "disk")
    b = VectorScene()
    b.add_polyline([(-1, -2), (0, 0), (1, 1)], "chain")
    b.add_arc(Arc(Point2(0, 0), 1.0, 0.0, 90.0, CCW), "belt")
    # and a scene placed twice, then again on a taller page: a template
    # written for one call would bake the first page's y texts
    twice, at_origin = VectorScene(), a.translated(0.0, 0.0)
    for dx in (0.0, 2.0):
        twice.extend(at_origin.translated(dx, 0.0))
    taller = VectorScene()
    taller.extend(twice)
    taller.add_polyline([(0, 0), (0, 3)], "guide")
    for s in (a, b, a.translated(0.5, 0.0), twice, taller, a, twice):
        assert_writes_oracle(s)
