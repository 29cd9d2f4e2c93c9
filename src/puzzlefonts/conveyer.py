"""Conveyer-belt font: taut belts wrapping disjoint unit disks.

A glyph is a set of unit disks plus a winding: a cyclic list of
(disk index, wrap orientation) entries.  The belt realizing a winding
alternates tangent segments and circular arcs; a disk wrapped CCW has its
center on the left of the belt's travel direction, which fixes the tangent
choice between any two consecutive disks.  Reading the disks alone back into
a letter means finding a winding again: `iter_belts` walks every candidate
winding and yields the valid ones, `solve_belt` collects all of them, and a
decode stops at the first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import BudgetExceeded, InvalidSpec
from .geometry import (
    CCW, CW, TOL, Arc, Point2, Segment, arc_tangent_dir, cross, dist, dot,
    element_end, element_length, element_start, hull_perimeter, normalize_angle,
    path_is_simple, point_segment_distance, sub, tangent_points,
)

# Most candidate windings one belt search builds.  An n-disk set has
# (n-1)! * 2^(n-1): 3,840 at 6 disks, 645,120 at 8 and 10.3M at 9, which is
# ten minutes or more of work.
DEFAULT_BUDGET = 12_000_000

FINGERPRINT_QUANTUM = 1e-6  # coordinate step of a configuration fingerprint
# The belt checks' tolerances: absolute distances for unit disks, in the set's frame.
CLEARANCE_TOL = 1e-9     # how far a tangent segment may reach into a disk
JUNCTION_GAP_TOL = 1e-7  # how far one element's end may be from the next one's start
TURN_TOL = 1e-9          # how far from 0 the cross product of a junction's headings may be


class _Checked(tuple):
    """Disk centers that `check_disk_set` has checked: a tuple of points.

    `legs` holds the oriented tangents built on them so far, keyed by
    (i, oi, j, oj): the tangent from disk i wrapped oi to disk j wrapped oj,
    as (its Segment, the angle of its start about disk i, the angle of its
    end about disk j).
    """


class _Winding(tuple):
    """A winding that `iter_belts` made: disk 0 first, then a permutation of
    the other indices, each entry an (index, CCW or CW) pair of ints."""
    __slots__ = ()


def check_disk_set(centers) -> tuple:
    """The centers in the set's frame, if finite, more than 2 + TOL apart and
    no pair so far apart that its distance overflows (every belt would be nan).

    The frame is the set moved to its min corner, (min x, min y) subtracted
    once; every belt check judges it, the gap here included, so no belt
    depends on where its set sits.  The strict gap is also the crossing
    tangent's precondition, so every winding over a checked set realizes.
    The points come back as a tuple that this function returns unchanged
    when given it again, so a set is checked once however many belts are
    built on it; any other input, a plain tuple of the same points included,
    is checked in full.  The tuple starts with no legs: each is built by the
    first belt that runs along it and kept as long as the tuple lives (at
    most 4n(n-1) of them).
    """
    if type(centers) is _Checked:
        return centers
    given = [(float(x), float(y)) for x, y in centers]
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in given):
        raise ValueError("disk center coordinates must be finite")
    min_x, min_y = map(min, zip(*given)) if given else (0.0, 0.0)
    pts = _Checked(Point2(x - min_x, y - min_y) for x, y in given)
    pts.legs = {}
    for i, (x, y) in enumerate(pts):
        for j in range(i + 1, len(pts)):
            d = math.hypot(x - pts[j].x, y - pts[j].y)
            if d <= 2.0 + TOL:
                raise ValueError(f"disks {i} and {j} are not disjoint")
            if d == math.inf:
                raise ValueError(f"disks {i} and {j} are too far apart: their distance overflows")
    return pts


def _integer(what: str, value) -> int:
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidSpec(f"{what} must be an integer, got {value!r}")


def _entries(winding) -> tuple:
    """The winding's (disk index, orientation) entries, each an integer."""
    return tuple((i if type(i) is int else _integer("disk index", i),
                  o if type(o) is int else _integer("orientation", o)) for i, o in winding)


def check_spec(winding, n_disks: int) -> tuple:
    """The winding as a tuple of (disk index, orientation) int pairs.

    Raises InvalidSpec unless it is non-empty, every entry is integral with
    its index in range(n_disks) and its orientation CCW or CW, and no disk
    comes twice in a row, cyclically.  A search's own candidate (a
    `_Winding`, made valid for its disk set) is returned unchanged; every
    other input is checked in full, a list or plain tuple of the same
    entries included.
    """
    if type(winding) is _Winding:
        return winding
    w = _entries(winding)
    if not w:
        raise InvalidSpec("winding is empty")
    for i, o in w:
        if not 0 <= i < n_disks:
            raise InvalidSpec(f"disk index {i} out of range")
        if o not in (CCW, CW):
            raise InvalidSpec(f"orientation must be +-1, got {o}")
    for k in range(len(w)):
        if w[k][0] == w[(k + 1) % len(w)][0]:
            raise InvalidSpec(f"disk {w[k][0]} appears twice in a row (cyclically)")
    return w


@dataclass(frozen=True)
class BeltPath:
    """A built belt: its elements and each arc's disk; `total_length` sums the elements."""
    elements: tuple          # alternating Arc / Segment, chained and closed
    disk_of_arc: tuple       # disk index per arc, in element order

    @property
    def total_length(self) -> float:
        total = 0.0  # left to right: sum() rounds floats differently from Python 3.12 on
        for el in self.elements:
            total += element_length(el)
        return total


def compute_belt(centers, winding) -> BeltPath:
    """Realize a winding as the alternating arc/tangent belt path.

    Equal consecutive orientations take the external tangent, opposite ones
    the crossing tangent, on the right of the center line when the first
    disk is wrapped CCW and on the left when CW.  Each disk contributes one
    arc from its incoming to its outgoing tangent point, swept in its own
    orientation, followed by its outgoing tangent.  The path holds those
    elements, in the set's frame (see `check_disk_set`), and the winding's
    disk indices as `disk_of_arc`.  A set that `check_disk_set` returned is
    not checked again, nor is a winding that `iter_belts` made; any other
    set or winding is.  Each tangent with its two arc angles is taken from
    the set's `legs`, built there the first time a belt needs it.
    """
    disks = check_disk_set(centers)
    w = check_spec(winding, len(disks))
    legs = disks.legs
    route = []
    for (i, oi), (j, oj) in zip(w, w[1:] + w[:1]):
        leg = legs.get((i, oi, j, oj))
        if leg is None:
            leg = legs[i, oi, j, oj] = _leg(disks[i], disks[j], oi, oj)
        route.append(leg)
    elements = []
    arrive = route[-1][2]
    for (i, oi), (seg, start, end) in zip(w, route):
        elements += (Arc(disks[i], 1.0, arrive, start, oi), seg)
        arrive = end
    return BeltPath(tuple(elements), tuple([i for i, _ in w]))


def _leg(c, e, oc: int, oe: int) -> tuple:
    """The tangent leaving disk c wrapped oc for disk e wrapped oe, with the
    angles of its start about c and of its end about e."""
    seg = Segment(*tangent_points(c, e, "external" if oc == oe else "internal",
                                  "right" if oc == CCW else "left"))
    (ax, ay), (bx, by) = seg
    # angle_of(sub(p, center)), in the same float operations
    return (seg, normalize_angle(math.degrees(math.atan2(ay - c.y, ax - c.x))),
            normalize_angle(math.degrees(math.atan2(by - e.y, bx - e.x))))


@dataclass(frozen=True)
class ValidationReport:
    simple: bool
    avoids_interiors: bool
    visits_all: bool
    taut: bool

    @property
    def all_ok(self) -> bool:
        return self.simple and self.avoids_interiors and self.visits_all and self.taut


def _heading(el, at_end: bool) -> Point2:
    """The unit direction of travel at an element's end or start."""
    if isinstance(el, Segment):
        d = sub(el.b, el.a)
        norm = math.hypot(*d) or 1.0
        return Point2(d.x / norm, d.y / norm)
    return arc_tangent_dir(el, el.end_angle if at_end else el.start_angle)


def _junctions_c1(elements) -> bool:
    for e1, e2 in zip(elements, elements[1:] + elements[:1]):
        if dist(element_end(e1), element_start(e2)) > JUNCTION_GAP_TOL:
            return False
        d1, d2 = _heading(e1, True), _heading(e2, False)
        if abs(cross(d1, d2)) > TURN_TOL or dot(d1, d2) <= 0.0:
            return False
    return True


def _clears(disks, seg) -> bool:
    """The segment enters no disk; tangency contacts do not count."""
    return all(point_segment_distance(c, seg.a, seg.b) >= 1.0 - CLEARANCE_TOL for c in disks)


def _avoids_interiors(disks, elements) -> bool:
    """No tangent segment of a built belt enters a disk.

    Its arcs cannot: each rides its own disk's unit circle, and
    check_disk_set keeps every other center more than 2 + TOL away.
    """
    return all(_clears(disks, seg) for seg in elements[1::2])


def validate_belt(centers, winding) -> ValidationReport:
    """Build the winding's belt and check the four belt clauses; tangency
    contacts do not count as entering."""
    disks = check_disk_set(centers)
    path = compute_belt(disks, winding)
    return ValidationReport(path_is_simple(path.elements),
                            _avoids_interiors(disks, path.elements),
                            set(path.disk_of_arc) == set(range(len(disks))),
                            _junctions_c1(path.elements))


def canonical_spec(winding) -> tuple:
    """Canonical form of a cyclic winding, identifying reversed traversals.

    Minimal rotation of the (index, orientation) tuple, also minimized over
    the reversed list with all orientations flipped (the same belt walked
    backwards).
    """
    w = _entries(winding)
    rev = tuple((i, -o) for i, o in reversed(w))
    return min((cand[r:] + cand[:r] for cand in (w, rev) for r in range(len(w))), default=None)


def iter_belts(centers, budget: int = DEFAULT_BUDGET):
    """Yield the canonical winding of every valid belt for a disk set.

    Walks the cyclic visit orders up to rotation and reflection (first entry
    pinned to disk 0 wrapped CCW) times the orientation assignments of the
    remaining disks, builds each candidate's belt, and yields those that
    avoid every disk interior and do not cross themselves.  Each class is
    one candidate, so nothing is yielded twice.  The tangent segment between
    two consecutive entries is the same in every candidate, so whether it
    clears the disks is checked once per call, and the disk set once: the
    candidates' builds take the checked set, do not check it again, and
    share its legs, so each oriented tangent is built once per call; each
    candidate winding is made valid here and not checked again by its build.
    Raises BudgetExceeded when more than `budget` candidates would be built.
    """
    disks = check_disk_set(centers)
    n = len(disks)
    if n < 2:
        return
    clears: dict = {}
    nodes = 0
    for perm in itertools.permutations(range(1, n)):
        for orient_mask in range(2 ** (n - 1)):
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"solver exceeded {budget} candidates")
            winding = [(0, CCW)]
            for b, idx in enumerate(perm):
                winding.append((idx, CCW if orient_mask & (1 << b) else CW))
            winding = _Winding(winding)
            # validate_belt's other two clauses cannot fail here: every order
            # visits all disks, and compute_belt's tangent choice makes every
            # junction C1 (tests/test_conveyer.py pins that invariant).
            elements = compute_belt(disks, winding).elements
            for k in range(n):
                pair = (winding[k], winding[(k + 1) % n])
                ok = clears.get(pair)
                if ok is None:
                    ok = clears[pair] = _clears(disks, elements[2 * k + 1])
                if not ok:
                    break
            else:
                if path_is_simple(elements):
                    yield canonical_spec(winding)


def solve_belt(centers, budget: int = DEFAULT_BUDGET) -> list[tuple]:
    """All valid belts for a disk set, as canonical windings, sorted.

    The sorted set of what `iter_belts` yields.  When the budget runs out,
    the BudgetExceeded carries the windings found so far, sorted, as
    `partial`.
    """
    found: set = set()
    try:
        for spec in iter_belts(centers, budget):
            found.add(spec)
    except BudgetExceeded as err:
        err.partial = sorted(found)
        raise
    return sorted(found)


def fingerprint(centers) -> tuple:
    """Sorted, quantized key of a disk configuration: its frame's points.

    Raises ValueError when a quantized coordinate overflows the float range,
    as for disks more than about 1e302 apart.
    """
    key = []
    for p in check_disk_set(centers):
        qx, qy = p.x / FINGERPRINT_QUANTUM, p.y / FINGERPRINT_QUANTUM
        if not (math.isfinite(qx) and math.isfinite(qy)):
            raise ValueError("disk centers are too far apart to fingerprint")
        key.append((round(qx), round(qy)))
    return tuple(sorted(key))


def belt_length_lower_bound(centers) -> float:
    """Any valid belt is at least as long as the hull perimeter of centers."""
    return hull_perimeter(centers)
