"""Glass-cane font: cross-section top views and twisted side views.

A cane is a unit-radius envelope holding colored subcanes, each given by a
polar offset rho, a phase phi (degrees), a radius, and a color class.
Twisting at omega turns per unit length turns each off-axis strand into a
helix; the side view projects strand centerlines to x(t) = rho*cos(2*pi*
omega*t + phi) and draws each silhouette as the band x(t) +- r, depth-sorted
per sample so nearer strands occlude farther ones.  The silhouette width is
kept constant at r (the foreshortening of a tilted tube is not modeled).
There is no decoder; the font validator tells glyphs apart by what they draw:
each strand's offset, phase (an angle, so taken mod 360, and absent for a
strand on the axis), radius and color, and the twist rate.  An untwisted
strand draws only its offset rho*cos(phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FieldError
from .geometry import Point2
from .scene import Polygon, VectorScene, check_style

STRAND_STYLES = ("strand_a", "strand_b", "strand_c", "strand_d", "strand_e", "strand_f")
MAX_LENGTH = 64.0  # side views take length * samples_per_unit samples per strand


def _finite(record, *names) -> None:
    """Refuse a nan or inf field; a range check compares false against a nan."""
    for name in names:
        if not math.isfinite(getattr(record, name)):
            raise FieldError(name, f"{name} must be finite, got {getattr(record, name)!r}")


@dataclass(frozen=True)
class Subcane:
    rho: float     # radial offset of the strand center, in [0, 1)
    phi: float     # phase angle, degrees
    radius: float  # strand radius, > 0
    color: str     # one of STRAND_STYLES

    def __post_init__(self):
        _finite(self, "rho", "phi", "radius")
        if not 0.0 <= self.rho < 1.0:
            raise FieldError("rho", f"rho must be in [0, 1), got {self.rho}")
        if self.radius <= 0.0:
            raise FieldError("radius", f"subcane radius must be positive, got {self.radius}")
        if self.rho + self.radius > 1.0 + 1e-12:
            raise FieldError("radius", f"subcane at rho={self.rho} r={self.radius} leaves the envelope")
        if self.color not in STRAND_STYLES:
            raise FieldError("color", f"color must be one of {STRAND_STYLES}, got {self.color!r}")


@dataclass(frozen=True)
class CaneCrossSection:
    subcanes: tuple

    @staticmethod
    def of(rows) -> "CaneCrossSection":
        return CaneCrossSection(tuple(Subcane(float(r), float(p), float(rr), c)
                                      for r, p, rr, c in rows))


@dataclass(frozen=True)
class TwistParams:
    omega: float   # turns per unit length, >= 0
    length: float  # cane length, > 0

    def __post_init__(self):
        _finite(self, "omega", "length")
        if self.omega < 0.0:
            raise FieldError("omega", "twist rate must be >= 0")
        if self.length <= 0.0:
            raise FieldError("length", "cane length must be positive")
        if self.length > MAX_LENGTH:
            raise FieldError("length", f"cane length must be at most {MAX_LENGTH:g}, got {self.length:g}")


def strand_x(sub: Subcane, omega: float, t: float) -> float:
    """Projected x of the strand centerline at height t."""
    return sub.rho * math.cos(2.0 * math.pi * omega * t + math.radians(sub.phi))


def render_top(cs: CaneCrossSection) -> VectorScene:
    """Envelope circle plus one circle per subcane at its polar position."""
    scene = VectorScene()
    scene.add_circle((0.0, 0.0), 1.0, "envelope")
    for sub in cs.subcanes:
        cx = sub.rho * math.cos(math.radians(sub.phi))
        cy = sub.rho * math.sin(math.radians(sub.phi))
        scene.add_circle((cx, cy), sub.radius, sub.color, filled=True)
    return scene


def side_view_samples(cs: CaneCrossSection, twist: TwistParams,
                      samples_per_unit: int = 64) -> list:
    """Sampled strand data: per strand, a list of (t, x, depth)."""
    if samples_per_unit < 8:
        raise ValueError("samples_per_unit must be at least 8")
    length = twist.length
    n = max(1, int(round(length * samples_per_unit)))
    turn = 2.0 * math.pi * twist.omega
    out = []
    for sub in cs.subcanes:
        rho, phase = sub.rho, math.radians(sub.phi)
        rows = []
        for k in range(n + 1):
            t = length * k / n
            angle = turn * t + phase  # the angle of strand_x
            rows.append((t, rho * math.cos(angle), rho * math.sin(angle)))
        out.append(rows)
    return out


def render_side(cs: CaneCrossSection, twist: TwistParams,
                samples_per_unit: int = 64) -> VectorScene:
    """Orthographic side view: silhouettes x(t) +- r, painter-sorted per segment.

    The vertical axis of the scene is the cane length; the envelope is the
    pair of lines x = -1 and x = +1.
    """
    sampled = side_view_samples(cs, twist, samples_per_unit)
    scene = VectorScene()
    scene.add_polyline([(-1.0, 0.0), (-1.0, twist.length)], "envelope")
    scene.add_polyline([(1.0, 0.0), (1.0, twist.length)], "envelope")
    # gather per-segment quads across all strands, sort far-to-near; the
    # (depth, strand, segment) prefix is unique, so the quads are never compared.
    # The two quads that meet at a sample share its left and right corners.
    segments = []
    for idx, rows in enumerate(sampled):
        sub = cs.subcanes[idx]
        r, style = sub.radius, check_style(sub.color)
        lefts = [Point2(x - r, t) for t, x, _d in rows]
        rights = [Point2(x + r, t) for t, x, _d in rows]
        depths = [d for _t, _x, d in rows]
        segments += [(0.5 * (d0 + d1), idx, k, Polygon((l0, r0, r1, l1), style))
                     for k, (l0, r0, r1, l1, d0, d1)
                     in enumerate(zip(lefts, rights, rights[1:], lefts[1:], depths, depths[1:]))]
    segments.sort()
    scene.primitives += [quad for _depth, _idx, _k, quad in segments]
    return scene
