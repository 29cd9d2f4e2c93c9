import dataclasses
import itertools
import math
import random

import pytest

from puzzlefonts import conveyer, fontdata
from puzzlefonts.conveyer import (
    CCW, CW, _junctions_c1, belt_length_lower_bound, canonical_spec, check_disk_set,
    check_spec, compute_belt, fingerprint, iter_belts, solve_belt, validate_belt,
)
from puzzlefonts.errors import BudgetExceeded, InvalidSpec
from puzzlefonts.geometry import TOL, Arc, Point2, arc_extent
from oracles import belt_by_tangents, naive_belt_solutions

STADIUM = [(0.0, 0.0), (4.0, 0.0)]
TRIANGLE = [(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)]  # 3-4-5 centers, perimeter 12


class TestComputeBelt:
    def test_stadium_length(self):
        path = compute_belt(STADIUM, [(0, CCW), (1, CCW)])
        assert abs(path.total_length - (8 + 2 * math.pi)) < 1e-9

    def test_hull_triangle_length(self):
        path = compute_belt(TRIANGLE, [(0, CCW), (1, CCW), (2, CCW)])
        assert abs(path.total_length - (12 + 2 * math.pi)) < 1e-9
        assert validate_belt(TRIANGLE, [(0, CCW), (1, CCW), (2, CCW)]).all_ok

    def test_opposite_orientations_figure_eight(self):
        disks = [(0.0, 0.0), (3.0, 0.0)]
        path = compute_belt(disks, [(0, CCW), (1, CW)])
        arcs = [el for el in path.elements if isinstance(el, Arc)]
        assert {a.orientation for a in arcs} == {CCW, CW}
        rep = validate_belt(disks, [(0, CCW), (1, CW)])
        assert rep.taut  # C1 residual below 1e-9 at all four junctions
        assert not rep.simple  # the two crossing tangents intersect

    def test_structure_alternates(self):
        path = compute_belt(STADIUM, [(0, CCW), (1, CCW)])
        kinds = [type(el).__name__ for el in path.elements]
        assert kinds == ["Arc", "Segment", "Arc", "Segment"]

    def test_minimal_gap_crossing_tangent_computes(self):
        # disjointness (> 2 + tol) already implies the crossing tangent's
        # precondition, so a barely-legal pair must still realize
        disks = [(0.0, 0.0), (2.00001, 0.0)]
        assert validate_belt(disks, [(0, CCW), (1, CW)]).taut

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            compute_belt(STADIUM, [(0, CCW), (0, CCW)])
        with pytest.raises(InvalidSpec):
            compute_belt(STADIUM, [(0, CCW)])
        with pytest.raises(InvalidSpec):
            compute_belt(STADIUM, [(0, CCW), (7, CCW)])
        # an index or orientation that is not an integer is refused, not truncated
        for winding in ([(0, 1.9), (1, -1)], [(0, 1), (0.7, 1)], [(0, 1), ("1", 1)],
                        [(0, 1), (1, None)], [(0, 1), (float("nan"), 1)],
                        [(0, 1), (float("inf"), 1)]):
            with pytest.raises(InvalidSpec):
                check_spec(winding, 2)
            with pytest.raises(InvalidSpec):
                validate_belt(STADIUM, winding)
        assert check_spec([(0, 1.0), (True, -1)], 2) == ((0, CCW), (1, CW))

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            check_disk_set([(0, 0), (1.0, 0)])
        # too close for a crossing tangent, so not disjoint either
        with pytest.raises(ValueError):
            check_disk_set([(0, 0), (2.0 + TOL, 0)])

    @pytest.mark.parametrize("build", [
        check_disk_set,
        lambda disks: compute_belt(disks, [(0, CCW), (1, CW)]),
        lambda disks: validate_belt(disks, [(0, CCW), (1, CCW)]),
        solve_belt,
    ], ids=["check_disk_set", "compute_belt", "validate_belt", "solve_belt"])
    def test_distance_past_the_float_range_refused(self, build):
        # each center is finite, but their distance is not: every belt would be nan
        with pytest.raises(ValueError, match="^disks 0 and 1 are too far apart: their distance overflows$"):
            build([(1e308, 0), (-1e308, 0)])

    def test_every_winding_taut_and_arcs_its_disks(self):
        # solve_belt skips validate_belt's visits_all and taut clauses, and
        # _avoids_interiors skips the arcs (each rides its own unit circle),
        # on the strength of this invariant
        rng = random.Random(20261018)
        for trial in range(16):
            n = 2 + trial % 4
            disks = _near_touching_disks(rng, n, span=90.0 if trial % 2 else 9.0)
            centers = check_disk_set(disks)
            for perm in itertools.permutations(range(1, n)):
                for orients in itertools.product((CCW, CW), repeat=n):
                    winding = list(zip((0,) + perm, orients))
                    path = compute_belt(disks, winding)
                    assert path.disk_of_arc == (0,) + perm
                    arcs = path.elements[::2]
                    assert [(a.center, a.radius, a.orientation) for a in arcs] == \
                        [(centers[i], 1.0, o) for i, o in winding]
                    assert _junctions_c1(path.elements), (disks, winding)


class TestSearchWindings:
    def test_search_winding_passes_through(self):
        w = conveyer._Winding([(0, CCW), (2, CW), (1, CCW)])
        assert check_spec(w, 3) is w
        assert repr(compute_belt(TRIANGLE, w)) == repr(compute_belt(TRIANGLE, list(w)))

    @pytest.mark.parametrize("winding", [
        [], [(0, CCW)], [(0, CCW), (0, CW)], [(0, CCW), (1, CW), (0, CCW)], [(0, CCW), (3, CW)],
        [(0, CCW), (-1, CW)], [(0, 2), (1, CW)], [(0, 0), (1, CW)], [(0, 1.5), (1, CW)],
        [(0, CCW), ("1", CW)], [(0, CCW), (None, CW)],
    ])
    def test_other_windings_are_checked_in_full(self, winding):
        with pytest.raises(InvalidSpec) as expected:
            check_spec(winding, 3)
        for form in (list(winding), tuple(winding)):
            with pytest.raises(InvalidSpec) as err:
                compute_belt(TRIANGLE, form)
            assert str(err.value) == str(expected.value)

    def test_search_checks_no_winding_again(self, shipped, monkeypatch):
        disks = shipped["conveyer"].glyphs["L"].disks
        expected = solve_belt(disks)
        entries, built = [], []
        real_entries, real_build = conveyer._entries, conveyer.compute_belt
        monkeypatch.setattr(conveyer, "_entries",
                            lambda w: entries.append(w) or real_entries(w))
        monkeypatch.setattr(conveyer, "compute_belt",
                            lambda *args: built.append(args) or real_build(*args))
        assert solve_belt(disks) == expected
        assert len(built) == 48  # every candidate is still built
        assert len(entries) == len(expected) == 2  # canonical_spec, once per belt found
        for _disks, w in built:  # each candidate is one check_spec would pass
            assert type(w) is conveyer._Winding
            assert check_spec(list(w), len(disks)) == w


class TestLegs:
    @pytest.mark.parametrize("letter", "LZ")
    def test_each_leg_built_once_per_search(self, shipped, monkeypatch, letter):
        disks = shipped["conveyer"].glyphs[letter].disks
        n = len(disks)
        expected = solve_belt(disks)
        tangents, built = [], []
        real_tangent, real_build = conveyer.tangent_points, conveyer.compute_belt
        monkeypatch.setattr(conveyer, "tangent_points",
                            lambda *args: tangents.append(args) or real_tangent(*args))
        monkeypatch.setattr(conveyer, "compute_belt",
                            lambda *args: built.append(args) or real_build(*args))
        assert solve_belt(disks) == expected
        assert len(built) == math.factorial(n - 1) * 2 ** (n - 1)  # every candidate still built
        assert len(tangents) <= 4 * n * (n - 1)
        assert len(set(tangents)) == len(tangents)  # distinct legs call with distinct arguments
        # a checked set keeps its legs: searching it again builds none
        before = len(tangents)
        checked = check_disk_set(disks)
        assert solve_belt(checked) == expected
        assert len(tangents) - before == len(checked.legs)
        made = len(tangents)
        assert solve_belt(checked) == expected
        assert len(tangents) == made

    def test_matches_tangent_oracle_bit_for_bit(self, shipped):
        # every winding up to rotation (first entry on disk 0, either way
        # round) of the shipped letters, of sets on signed zeros and of
        # seeded sets, half of their disks within 1e-6 of touching; repr
        # shows every bit, and the sign of a zero.  The oracle is given the
        # set's frame; the second signed-zero set keeps x = -0.0 there
        rng = random.Random(28)
        sets = [rec.disks for _ch, rec in sorted(shipped["conveyer"].glyphs.items())]
        sets += [[(-0.0, -0.0), (4.0, -0.0), (-0.0, 3.0)],
                 [(0.0, -0.0), (-0.0, 5.0), (3.0, -0.0), (3.0, 5.0)]]
        assert repr(check_disk_set(sets[-1])[1].x) == "-0.0"
        sets += [_near_touching_disks(rng, 2 + k % 4, 90.0 if k % 3 == 0 else 9.0)
                 for k in range(24)]
        belts = 0
        for disks in sets:
            n = len(disks)
            windings = [list(zip((0,) + perm, orients))
                        for perm in itertools.permutations(range(1, n))
                        for orients in itertools.product((CCW, CW), repeat=n)]
            # one checked set per order; plain tuples build their legs anew
            forward, backward = check_disk_set(disks), check_disk_set(disks)
            frame = tuple(forward)
            expected = [repr(belt_by_tangents(frame, w)) for w in windings]
            assert [repr(compute_belt(forward, w)) for w in windings] == expected, disks
            assert [repr(compute_belt(backward, w)) for w in reversed(windings)] \
                == expected[::-1], disks
            assert forward.legs == backward.legs and len(forward.legs) == 4 * n * (n - 1)
            for w in windings[::max(1, len(windings) // 16)]:
                assert repr(compute_belt(tuple(disks), w)) == repr(belt_by_tangents(frame, w))
            belts += len(windings)
        assert belts >= 10_000


class TestCheckedSets:
    def test_checked_set_passes_through(self):
        checked = check_disk_set(TRIANGLE)
        assert check_disk_set(checked) is checked
        assert checked == tuple(Point2(float(x), float(y)) for x, y in TRIANGLE)

    def test_other_inputs_are_checked_again(self):
        checked = check_disk_set(TRIANGLE)
        for same in (tuple(checked), list(checked)):
            again = check_disk_set(same)
            assert again == checked and again is not same
        # points made by hand, as a parsed glyph's disks are, may still touch
        close = (Point2(0.0, 0.0), Point2(2.0 + TOL / 2, 0.0))
        for raw in (close, list(close)):
            with pytest.raises(ValueError, match="disks 0 and 1 are not disjoint"):
                check_disk_set(raw)
            for call in (lambda d: compute_belt(d, [(0, CCW), (1, CW)]),
                         lambda d: validate_belt(d, [(0, CCW), (1, CW)]),
                         fingerprint, lambda d: next(iter_belts(d))):
                with pytest.raises(ValueError, match="not disjoint"):
                    call(raw)

    def test_raw_and_checked_sets_give_the_same(self, shipped):
        for ch, rec in sorted(shipped["conveyer"].glyphs.items()):
            checked = check_disk_set(rec.disks)
            assert (repr(compute_belt(checked, rec.belt))
                    == repr(compute_belt(rec.disks, rec.belt))), ch
            assert validate_belt(checked, rec.belt) == validate_belt(rec.disks, rec.belt), ch
            assert fingerprint(checked) == fingerprint(rec.disks), ch
            assert solve_belt(checked) == solve_belt(rec.disks), ch

    def test_font_check_reports_the_same(self, shipped):
        fd = shipped["conveyer"]
        assert fontdata.validate(fd).issues == []
        rec = fd.glyphs["F"]
        (x, y), *rest = rec.disks
        overlapping = dataclasses.replace(rec, disks=(Point2(x, y), Point2(x + 1.5, y), *rest[1:]))
        bad = dataclasses.replace(fd, glyphs={**fd.glyphs, "F": overlapping})
        assert fontdata.validate(bad).issues == ["glyph 'F': disks 0 and 1 are not disjoint"]

    def test_font_check_reports_an_unfingerprintable_glyph(self, shipped):
        fd = shipped["conveyer"]
        far = fontdata.ConveyerRecord(disks=(Point2(1e308, 0.0), Point2(-1e307, 0.0)))
        bad = dataclasses.replace(fd, glyphs={**fd.glyphs, "F": far})
        assert fontdata.validate(bad).issues == [
            "glyph 'F': disk centers are too far apart to fingerprint"]


class TestValidateBelt:
    def test_stadium_all_flags(self):
        rep = validate_belt(STADIUM, [(0, CCW), (1, CCW)])
        assert (rep.simple, rep.avoids_interiors, rep.visits_all, rep.taut) == (True,) * 4

    def test_unvisited_disk(self):
        disks = [(0.0, 0.0), (4.0, 0.0), (2.0, 5.0)]
        rep = validate_belt(disks, [(0, CCW), (1, CCW)])
        assert not rep.visits_all
        assert rep.simple

    def test_clearance_cases(self):
        # stadium belt's lower segment runs along y = -1
        ok = [(0.0, 0.0), (4.0, 0.0), (2.0, -3.0)]
        rep = validate_belt(ok, [(0, CCW), (1, CCW)])
        assert rep.avoids_interiors
        grazed = [(0.0, 0.0), (4.0, 0.0), (2.0, -1.5)]
        rep = validate_belt(grazed, [(0, CCW), (1, CCW)])
        assert not rep.avoids_interiors
        with pytest.raises(ValueError):
            validate_belt([(0.0, 0.0), (4.0, 0.0), (1.0, 0.0)], [(0, CCW), (1, CCW)])

    def test_tangency_points_on_circles(self):
        path = compute_belt(TRIANGLE, [(0, CCW), (1, CCW), (2, CCW)])
        disks = check_disk_set(TRIANGLE)
        for el in path.elements:
            if isinstance(el, Arc):
                continue
            near_start = min(math.dist(el.a, c) for c in disks)
            near_end = min(math.dist(el.b, c) for c in disks)
            assert abs(near_start - 1.0) < 1e-9
            assert abs(near_end - 1.0) < 1e-9


class TestSolver:
    def test_two_disks_single_solution(self):
        sols = solve_belt(STADIUM)
        assert sols == [canonical_spec([(0, CCW), (1, CCW)])]

    def test_mirror_counted_once(self):
        assert canonical_spec([(0, CCW), (1, CCW)]) == canonical_spec([(0, CW), (1, CW)])

    def test_three_disk_hull_winding_found(self):
        sols = solve_belt(TRIANGLE)
        assert canonical_spec([(0, CCW), (1, CCW), (2, CCW)]) in sols

    def test_solutions_validate(self):
        for spec in solve_belt(TRIANGLE):
            rep = validate_belt(TRIANGLE, spec)
            assert rep.all_ok

    def test_single_disk_no_solutions(self):
        assert solve_belt([(0.0, 0.0)]) == []

    def test_grazing_belt_is_valid(self):
        # three collinear disks: the hull belt grazes the middle one with a
        # zero-extent arc, which still counts as visiting and stays simple
        disks = [(0.0, 0.0), (4.0, 0.0), (8.0, 0.0)]
        path = compute_belt(disks, [(0, CCW), (1, CCW), (2, CCW)])
        zero_arcs = [el for el in path.elements
                     if isinstance(el, Arc) and arc_extent(el) == 0.0]
        assert len(zero_arcs) == 1  # the middle disk is visited by a graze
        rep = validate_belt(disks, [(0, CCW), (1, CCW), (2, CCW)])
        assert rep.all_ok, rep
        assert canonical_spec([(0, CCW), (1, CCW), (2, CCW)]) in solve_belt(disks)

    def test_budget_exceeded_flags_partial(self):
        with pytest.raises(BudgetExceeded) as err:
            solve_belt([(0, 0), (3, 0), (6, 0), (0, 3), (6, 3)], budget=3)
        assert isinstance(err.value.partial, list)

    def test_length_lower_bound(self):
        for spec in solve_belt(TRIANGLE):
            path = compute_belt(TRIANGLE, spec)
            assert path.total_length >= belt_length_lower_bound(TRIANGLE) - 1e-9

    def test_matches_naive_oracle_on_random_sets(self):
        rng = random.Random(20240811)
        for _ in range(8):
            disks = _random_disjoint_disks(rng, rng.randint(2, 4))
            assert solve_belt(disks) == naive_belt_solutions(disks)


class TestIterBelts:
    def test_matches_naive_oracle(self, shipped):
        # the shipped letters (Z has 6 disks), then 0 and 1 disks (no belt),
        # then 200 seeded sets of 2-6 disks, every other one with disks
        # placed within 1e-6 of touching
        rng = random.Random(20261019)
        sets = [rec.disks for _ch, rec in sorted(shipped["conveyer"].glyphs.items())]
        sets += [[], [(0.0, 0.0)]]
        sizes = [(2, 3, 4, 5, 4, 3)[(i // 2) % 6] for i in range(199)] + [6]
        for i, n in enumerate(sizes):
            sets.append(_near_touching_disks(rng, n, 9.0) if i % 2
                        else _random_disjoint_disks(rng, n))
        beltless = 0
        for disks in sets:
            expected = naive_belt_solutions(disks)
            found = list(iter_belts(disks))
            assert sorted(set(found)) == expected, disks
            for winding in found:
                assert validate_belt(disks, winding).all_ok, (disks, winding)
            first = next(iter_belts(disks), None)
            assert (first is None) == (not expected), disks
            beltless += first is None
            n = len(disks)
            if n < 2:
                continue
            budget = rng.randrange(math.factorial(n - 1) * 2 ** (n - 1))
            with pytest.raises(BudgetExceeded) as err:
                solve_belt(disks, budget=budget)
            partial = err.value.partial
            assert partial == sorted(partial) and set(partial) <= set(expected)
        # no set of two or more unit disks here lacks a belt
        assert beltless == 2

    def test_first_belt_stops_the_search(self, monkeypatch):
        from puzzlefonts import conveyer
        built = []
        real = conveyer.compute_belt
        monkeypatch.setattr(conveyer, "compute_belt",
                            lambda *args: built.append(args) or real(*args))
        assert next(iter_belts(TRIANGLE)) == canonical_spec([(0, CCW), (1, CCW), (2, CCW)])
        assert len(built) == 4  # the three candidates before the hull belt cross themselves


def _random_disjoint_disks(rng, n, span=9.0):
    pts = []
    while len(pts) < n:
        cand = (round(rng.uniform(0, span), 3), round(rng.uniform(0, span), 3))
        if all(math.dist(cand, p) >= 2.05 for p in pts):
            pts.append(cand)
    return pts


def _near_touching_disks(rng, n, span):
    """Disjoint disks about a span-wide square; about half of them are placed
    within 1e-6 of touching an earlier one."""
    pts = [(rng.uniform(0, span), rng.uniform(0, span))]
    while len(pts) < n:
        if rng.random() < 0.5:
            x, y = rng.choice(pts)
            a = rng.uniform(0, 2 * math.pi)
            d = 2.0 + TOL + rng.uniform(0, 1e-6)
            cand = (x + d * math.cos(a), y + d * math.sin(a))
        else:
            cand = (rng.uniform(0, span), rng.uniform(0, span))
        try:
            check_disk_set(pts + [cand])
        except ValueError:
            continue
        pts.append(cand)
    return pts


class TestCanonicalization:
    def test_rotation_invariance(self):
        w = [(0, CCW), (2, CW), (1, CCW)]
        assert canonical_spec(w) == canonical_spec(w[1:] + w[:1])

    def test_reversal_with_flip_invariance(self):
        w = [(0, CCW), (2, CW), (1, CCW)]
        rev = [(i, -o) for i, o in reversed(w)]
        assert canonical_spec(w) == canonical_spec(rev)

    @pytest.mark.parametrize("winding", [
        [(0, 1.9), (1, -1)], [(0, 1.9), (1.5, -1)], [(0.5, CCW), (1, CW)],
        [("x", CCW), (1, CW)], [(0, None), (1, CW)], [(0, math.nan), (1, CW)], [(math.inf, CCW), (1, CW)],
    ])
    def test_non_integer_entries_refused(self, winding):
        # read as check_spec reads them, so a fractional entry is not truncated
        with pytest.raises(InvalidSpec, match="must be an integer"):
            canonical_spec(winding)

    def test_integral_entries_accepted(self):
        assert canonical_spec([(0, 1.0), (True, -1)]) == canonical_spec([(0, CCW), (1, CW)])

    def test_distinct_orientations_distinct(self):
        a = canonical_spec([(0, CCW), (1, CCW), (2, CCW)])
        b = canonical_spec([(0, CCW), (1, CW), (2, CCW)])
        assert a != b


_FAR = [sign * d for d in (1e6, 1e8, 1e10, 1e12) for sign in (1, -1)]


def _moved(disks, d):
    return [(x + d, y + d) for x, y in disks]


def _belts_or_refusal(disks):
    try:
        return solve_belt(disks)
    except ValueError as exc:  # only check_disk_set's refusal
        assert str(exc).endswith("are not disjoint"), exc
        return str(exc)


class TestFrame:
    """A set is judged in its frame, so its belts do not depend on where it sits."""

    @pytest.mark.parametrize("d", _FAR)
    def test_letters_moved_far_keep_their_belts(self, shipped, d):
        for ch, rec in sorted(shipped["conveyer"].glyphs.items()):
            moved = _moved(rec.disks, d)
            assert solve_belt(moved) == solve_belt(rec.disks), ch
            assert validate_belt(moved, rec.belt).all_ok, ch

    def test_seeded_sets_moved_far_match_themselves_moved_back(self):
        # each set is compared with itself moved back to its min corner, so
        # rounding in the move does not count; a near-touching set that the
        # move rounds into touching is refused on both sides alike
        rng = random.Random(33)
        searched = 0
        for i, d in enumerate(_FAR):
            for j, n in enumerate((2, 3, 4, 5) * 3 + (6, 2)):
                near = (i + j) % 2 == 0
                disks = _near_touching_disks(rng, n, 9.0) if near else _random_disjoint_disks(rng, n)
                moved = _moved(disks, d)
                min_x, min_y = min(x for x, _ in moved), min(y for _, y in moved)
                got = _belts_or_refusal(moved)
                assert got == _belts_or_refusal([(x - min_x, y - min_y) for x, y in moved]), moved
                if isinstance(got, str):
                    assert near and abs(d) >= 1e8, (moved, got)
                else:
                    searched += 1
        assert searched >= 100


class TestFingerprint:
    def test_translation_invariant(self):
        d = [(0.0, 0.0), (3.0, 0.5)]
        moved = [(x + 5, y + 7) for x, y in d]
        assert fingerprint(d) == fingerprint(moved)

    def test_perturbation_changes_key(self):
        assert fingerprint([(0, 0), (3, 0)]) != fingerprint([(0, 0), (3.5, 0)])

    def test_order_independent(self):
        assert fingerprint([(0, 0), (3, 1)]) == fingerprint([(3, 1), (0, 0)])

    @pytest.mark.parametrize("disks", [[(1e308, 0), (-1e307, 0)], [(1e303, 0), (0, 0)],
                                       [(0, 0), (0, -1e303)]])
    def test_offsets_past_the_float_range_refused(self, disks):
        check_disk_set(disks)  # finite and disjoint
        with pytest.raises(ValueError, match="too far apart to fingerprint"):
            fingerprint(disks)
        with pytest.raises(ValueError, match="too far apart to fingerprint"):
            fingerprint(check_disk_set(disks))


class TestShippedFont:
    def test_marked_belts_validate(self, shipped):
        for ch, rec in sorted(shipped["conveyer"].glyphs.items()):
            rep = validate_belt(rec.disks, rec.belt)
            assert rep.all_ok, (ch, rep)

    def test_fingerprints_distinct(self, shipped):
        prints = [fingerprint(rec.disks) for rec in shipped["conveyer"].glyphs.values()]
        assert len(set(prints)) == len(prints)
