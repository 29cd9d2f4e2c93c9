import math

import pytest

from puzzlefonts.cane import (
    MAX_LENGTH, CaneCrossSection, Subcane, TwistParams, render_side, render_top,
    side_view_samples, strand_x,
)
from puzzlefonts.errors import FieldError
from puzzlefonts.scene import Circle, Polygon


def cs(*rows):
    return CaneCrossSection(tuple(Subcane(float(r), float(p), float(rr), c)
                                  for r, p, rr, c in rows))


class TestInvariants:
    def test_containment_enforced(self):
        with pytest.raises(ValueError):
            Subcane(0.9, 0.0, 0.2, "strand_a")
        with pytest.raises(ValueError):
            Subcane(1.0, 0.0, 0.1, "strand_a")
        with pytest.raises(ValueError):
            Subcane(0.5, 0.0, -0.1, "strand_a")
        for bad in (math.nan, math.inf, -math.inf):
            for field, fields in [("rho", (bad, 0.0, 0.1)), ("phi", (0.5, bad, 0.1)),
                                  ("radius", (0.5, 0.0, bad))]:
                with pytest.raises(FieldError, match="must be finite") as err:
                    Subcane(*fields, "strand_a")
                assert err.value.field == field

    def test_twist_params(self):
        with pytest.raises(ValueError):
            TwistParams(-0.1, 4.0)
        with pytest.raises(ValueError):
            TwistParams(0.5, 0.0)
        TwistParams(0.5, MAX_LENGTH)
        with pytest.raises(ValueError, match="at most"):
            TwistParams(0.5, MAX_LENGTH * 1.01)
        for bad in (math.nan, math.inf, -math.inf):
            for field, fields in [("omega", (bad, 2.0)), ("length", (0.5, bad))]:
                with pytest.raises(FieldError, match="must be finite") as err:
                    TwistParams(*fields)
                assert err.value.field == field


class TestTopView:
    def test_empty_cross_section_envelope_only(self):
        scene = render_top(cs())
        circles = [p for p in scene.primitives if isinstance(p, Circle)]
        assert len(circles) == 1 and circles[0].style == "envelope"

    def test_centered_subcane_concentric(self):
        scene = render_top(cs((0.0, 0.0, 0.2, "strand_a")))
        circles = [p for p in scene.primitives if isinstance(p, Circle)]
        assert len(circles) == 2
        assert circles[1].center == pytest.approx((0.0, 0.0))

    def test_ring_design_counts(self):
        rows = [(0.62, 60.0 * k, 0.18, "strand_c") for k in range(6)]
        scene = render_top(cs(*rows))
        circles = [p for p in scene.primitives if isinstance(p, Circle)]
        assert len(circles) == 7  # envelope + n


class TestSideView:
    def test_zero_twist_straight(self):
        section = cs((0.5, 30.0, 0.1, "strand_a"))
        rows = side_view_samples(section, TwistParams(0.0, 4.0))[0]
        xs = {round(x, 12) for _, x, _ in rows}
        assert len(xs) == 1

    def test_axis_strand_straight_under_twist(self):
        section = cs((0.0, 0.0, 0.15, "strand_b"))
        rows = side_view_samples(section, TwistParams(1.0, 4.0))[0]
        assert all(abs(x) < 1e-12 for _, x, _ in rows)

    def test_periodicity(self):
        omega = 0.5
        section = cs((0.6, 40.0, 0.12, "strand_a"))
        period = 1.0 / omega
        for t in (0.0, 0.13, 0.77, 1.5):
            a = strand_x(section.subcanes[0], omega, t)
            b = strand_x(section.subcanes[0], omega, t + period)
            assert a == pytest.approx(b, abs=1e-12)

    def test_two_full_periods(self):
        # omega = 0.5, L = 4: exactly two repeats of the sampled curve
        section = cs((0.6, 0.0, 0.12, "strand_a"))
        rows = side_view_samples(section, TwistParams(0.5, 4.0))[0]
        half = len(rows) // 2
        first = [x for _, x, _ in rows[:half]]
        second = [x for _, x, _ in rows[half:2 * half]]
        assert first == pytest.approx(second, abs=1e-9)

    def test_silhouette_bounds(self):
        section = cs((0.7, 10.0, 0.3, "strand_a"), (0.4, 200.0, 0.2, "strand_b"))
        scene = render_side(section, TwistParams(1.0, 3.0))
        for prim in scene.primitives:
            if isinstance(prim, Polygon):
                for p in prim.points:
                    assert -1.0 - 1e-9 <= p.x <= 1.0 + 1e-9

    def test_top_side_consistency_at_base(self):
        rows_spec = [(0.5, 0.0, 0.1, "strand_a"), (0.6, 135.0, 0.1, "strand_b")]
        section = cs(*rows_spec)
        sampled = side_view_samples(section, TwistParams(0.5, 2.0))
        for sub, rows in zip(section.subcanes, sampled):
            t0, x0, _ = rows[0]
            assert t0 == 0.0
            assert x0 == pytest.approx(sub.rho * math.cos(math.radians(sub.phi)), abs=1e-12)

    def test_depth_sorting_far_drawn_first(self):
        # strand at depth -rho (phi=270) must be painted before depth +rho (phi=90)
        section = cs((0.5, 270.0, 0.1, "strand_a"), (0.5, 90.0, 0.1, "strand_b"))
        scene = render_side(section, TwistParams(0.0, 1.0))
        polys = [p for p in scene.primitives if isinstance(p, Polygon)]
        first_b = min(i for i, p in enumerate(polys) if p.style == "strand_b")
        last_a = max(i for i, p in enumerate(polys) if p.style == "strand_a")
        assert last_a < first_b
