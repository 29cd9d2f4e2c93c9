"""Fixed-angle linkage font: six unit bars, five joint angles per letter.

A letter is a sequence of five interior angles in degrees (180 = straight,
0 = doubled back).  Realizing a sequence places seven vertices in the plane;
at each joint the convex side of the angle goes left or right, giving up to
2^5 = 32 flat states per letter.  Chains are undirected, so comparison and
decoding also consider the reversed chain.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import AmbiguousSolution, NoSolution, NotAChain, UnknownLetter
from .geometry import Point2, add, angle_of, dist, dot, sub, unit_vector

ANGLE_ATOL = 1e-6  # degrees; realization round-trips are far tighter

LEFT = "L"
RIGHT = "R"


@dataclass(frozen=True)
class LinkageGlyph:
    vertices: tuple


def check_angle_sequence(angles) -> tuple:
    seq = tuple(float(a) for a in angles)
    if len(seq) != 5:
        raise ValueError(f"angle sequence must have exactly 5 entries, got {len(seq)}")
    for a in seq:
        if not (0.0 <= a <= 360.0) or math.isnan(a):
            raise ValueError(f"angle {a} outside [0, 360]")
    return seq


def check_chain(vertices) -> tuple:
    """The vertices as points, if they form a chain of 6 unit bars; else NotAChain."""
    verts = tuple(Point2(*p) for p in vertices)
    if len(verts) != 7:
        raise NotAChain(f"expected 7 vertices, got {len(verts)}")
    for i in range(6):
        if abs(dist(verts[i], verts[i + 1]) - 1.0) > 1e-6:
            raise NotAChain(f"bar {i} is not unit length")
    return verts


def check_choices(choices) -> tuple:
    ch = tuple(choices)
    if len(ch) != 5 or any(c not in (LEFT, RIGHT) for c in ch):
        raise ValueError(f"choices must be 5 entries of 'L'/'R', got {choices!r}")
    return ch


def realize(seq, choices, origin=(0.0, 0.0), heading: float = 0.0) -> LinkageGlyph:
    """Place the chain: first bar starts at `origin` along `heading`.

    At joint i the interior angle equals seq[i]; choice 'L' puts the convex
    side on the left of the walking direction (a clockwise turn would put it
    right).  Zero and 360 degree joints flip the direction either way, so the
    choice there has no geometric effect.
    """
    seq = check_angle_sequence(seq)
    ch = check_choices(choices)
    verts = [Point2(*origin)]
    h = float(heading)
    verts.append(add(verts[0], unit_vector(h)))
    for theta, c in zip(seq, ch):
        turn = 180.0 - theta
        h = h + (turn if c == LEFT else -turn)
        verts.append(add(verts[-1], unit_vector(h)))
    return LinkageGlyph(tuple(verts))


def interior_angles(vertices) -> list[float]:
    """Unsigned interior angle at each joint, in [0, 180] degrees.

    atan2 of (|cross|, dot) stays well-conditioned at straight and
    doubled-back joints, where acos of the normalized dot product loses
    several digits.
    """
    out = []
    for i in range(1, len(vertices) - 1):
        u = sub(vertices[i - 1], vertices[i])
        v = sub(vertices[i + 1], vertices[i])
        cr = u.x * v.y - u.y * v.x
        out.append(math.degrees(math.atan2(abs(cr), dot(u, v))))
    return out


def _fold(angle: float) -> float:
    """Fold a stored angle to the unsigned measurement range [0, 180]."""
    return min(angle, 360.0 - angle)


def _reads_as(measured, seq) -> bool:
    """Measured angles read as the letter `seq`: its folded angles within
    ANGLE_ATOL, forward or reversed.  Decoding and the validator share it."""
    folded = [_fold(a) for a in seq]
    return any(all(abs(m - a) <= ANGLE_ATOL for m, a in zip(measured, cand))
               for cand in (folded, folded[::-1]))


def _canonical_vertices(vertices) -> tuple:
    """Translate the first vertex to the origin, rotate bar 1 onto +x."""
    v0 = vertices[0]
    moved = [sub(p, v0) for p in vertices]
    ang = angle_of(moved[1])
    r = math.radians(-ang)
    c, s = math.cos(r), math.sin(r)
    return tuple(Point2(c * p.x - s * p.y, s * p.x + c * p.y) for p in moved)


def _quantize(vertices, q: float = 1e-7) -> tuple:
    return tuple((round(p.x / q), round(p.y / q)) for p in vertices)


def glyph_signature(glyph: LinkageGlyph) -> tuple:
    """Pose- and direction-independent key for geometric deduplication."""
    fwd = _quantize(_canonical_vertices(glyph.vertices))
    rev = _quantize(_canonical_vertices(tuple(reversed(glyph.vertices))))
    return min(fwd, rev)


def all_choices():
    for mask in range(32):
        yield tuple(LEFT if mask & (1 << i) else RIGHT for i in range(5))


def enumerate_glyphs(seq) -> list[LinkageGlyph]:
    """All geometrically distinct flat states of a sequence, canonical pose.

    Realizes the 32 side-choice combinations at the origin heading +x and
    dedupes by vertex geometry, treating a chain and its reversal as the
    same glyph.  Representative choices are the first hit in mask order.
    """
    seq = check_angle_sequence(seq)
    seen = {}
    for ch in all_choices():
        g = realize(seq, ch)
        key = glyph_signature(g)
        if key not in seen:
            seen[key] = g
    return list(seen.values())


class LinkageFont:
    """Letter -> angle-sequence table with encode/decode operations."""

    def __init__(self, sequences: dict):
        self.sequences = {k: check_angle_sequence(v) for k, v in sequences.items()}

    def letters(self) -> list[str]:
        return sorted(self.sequences)

    def encode(self, letter: str) -> tuple:
        try:
            return self.sequences[letter]
        except KeyError:
            raise UnknownLetter(f"letter {letter!r} not in linkage font") from None

    def decode(self, glyph) -> str:
        """Identify the letter of a realized chain, trying both directions."""
        verts = check_chain(glyph.vertices if isinstance(glyph, LinkageGlyph) else glyph)
        measured = interior_angles(verts)
        matches = [letter for letter, seq in sorted(self.sequences.items())
                   if _reads_as(measured, seq)]
        if not matches:
            raise NoSolution(f"measured angles {measured} match no letter")
        if len(matches) > 1:
            raise AmbiguousSolution(f"angles match several letters: {matches}")
        return matches[0]

    def random_puzzle_glyph(self, letter: str, seed: int) -> LinkageGlyph:
        """Seeded random flat state; the same (letter, seed) repeats exactly."""
        seq = self.encode(letter)
        rng = random.Random(f"linkage:{letter}:{seed}")
        ch = tuple(LEFT if rng.random() < 0.5 else RIGHT for _ in range(5))
        return realize(seq, ch)

    def canonical_glyph(self, letter: str) -> LinkageGlyph:
        """The readable reference state (all convex sides left)."""
        return realize(self.encode(letter), (LEFT,) * 5)

    def uniqueness_failures(self) -> list[tuple[str, str]]:
        """Letter pairs that `decode` cannot tell apart (`_reads_as`)."""
        bad = []
        letters = self.letters()
        for i, l1 in enumerate(letters):
            measured = [_fold(a) for a in self.sequences[l1]]
            for l2 in letters[i + 1:]:
                if _reads_as(measured, self.sequences[l2]):
                    bad.append((l1, l2))
        return bad


def spread_overlapping_bars(vertices, offset: float = 0.06) -> list[tuple]:
    """Nudge exactly-overlapping collinear bars apart for display only.

    Geometry stays coincident in the glyph itself; rendering shifts the k-th
    bar occupying the same span sideways by k * offset.
    """
    seen: dict = {}
    bars = []
    for i in range(len(vertices) - 1):
        a, b = vertices[i], vertices[i + 1]
        key = tuple(sorted((_quantize([a])[0], _quantize([b])[0])))
        k = seen.get(key, 0)
        seen[key] = k + 1
        if k == 0:
            bars.append((a, b))
        else:
            d = sub(b, a)
            length = math.hypot(*d) or 1.0
            nx, ny = -d.y / length * offset * k, d.x / length * offset * k
            bars.append((Point2(a.x + nx, a.y + ny), Point2(b.x + nx, b.y + ny)))
    return bars
