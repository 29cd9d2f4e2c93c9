import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import puzzlefonts
from puzzlefonts.errors import InterfaceMismatch
from puzzlefonts.maze import (
    MOUNTAIN, PAPER_SCALE, VALLEY, CreasePattern, GridMaze, check_flat_foldability_local,
    compose, generate_crease_pattern, render_crease_pattern, render_maze_2d,
)

C = lambda x1, y1, x2, y2, a: (float(x1), float(y1), float(x2), float(y2), a)


class TestScaleFactor:
    def test_paper_value(self):
        assert PAPER_SCALE == 3


def random_maze(rng, w, h):
    edges = []
    for x in range(w + 1):
        for y in range(h + 1):
            if x < w and rng.random() < 0.3:
                edges.append((x, y, x + 1, y))
            if y < h and rng.random() < 0.3:
                edges.append((x, y, x, y + 1))
    return GridMaze.from_edges(w, h, edges)


class TestGenerate:
    def test_empty_maze_no_creases(self):
        cp = generate_crease_pattern(GridMaze.from_edges(2, 2, []))
        assert cp.paper_width == 6 and cp.paper_height == 6
        assert len(cp.creases) == 0

    def test_single_wall_1x1(self):
        m = GridMaze.from_edges(1, 1, [(0, 0, 0, 1)])
        cp = generate_crease_pattern(m)
        assert (cp.paper_width, cp.paper_height) == (3.0, 3.0)
        assert len(cp.creases) > 0
        assert check_flat_foldability_local(cp).all_ok

    def test_dimension_law(self):
        rng = random.Random(7)
        for _ in range(20):
            w, h = rng.randint(1, 5), rng.randint(1, 5)
            cp = generate_crease_pattern(random_maze(rng, w, h))
            assert (cp.paper_width, cp.paper_height) == (3 * w, 3 * h)

    def test_deterministic(self):
        rng = random.Random(3)
        m = random_maze(rng, 3, 3)
        assert generate_crease_pattern(m) == generate_crease_pattern(m)

    def test_monotone_in_walls(self):
        rng = random.Random(11)
        for _ in range(10):
            m = random_maze(rng, 3, 3)
            all_edges = sorted(m.walls)
            counts = []
            for k in range(len(all_edges) + 1):
                sub = GridMaze(3, 3, frozenset(all_edges[:k]))
                counts.append(len(generate_crease_pattern(sub).creases))
            assert counts == sorted(counts)

    def test_local_checks_pass_for_random_mazes(self):
        rng = random.Random(23)
        for _ in range(10):
            cp = generate_crease_pattern(random_maze(rng, 4, 3))
            assert check_flat_foldability_local(cp).all_ok

    def test_side_edges_stay_clean(self):
        rng = random.Random(5)
        m = random_maze(rng, 3, 4)
        cp = generate_crease_pattern(m)
        for (x1, y1, x2, y2, _a) in cp.creases:
            for x in (x1, x2):
                assert 0.0 < x < cp.paper_width


class TestMazeValidation:
    def test_rejects_diagonals_and_long_edges(self):
        with pytest.raises(ValueError):
            GridMaze.from_edges(2, 2, [(0, 0, 1, 1)])
        with pytest.raises(ValueError):
            GridMaze.from_edges(2, 2, [(0, 0, 2, 0)])

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            GridMaze.from_edges(2, 2, [(2, 2, 2, 3)])


class TestChecker:
    """Hand-built vertex cases exercising Maekawa and Kawasaki directly."""

    def test_symmetric_cross_mmv(self):
        cp = CreasePattern(2.0, 2.0, frozenset({
            C(0, 1, 1, 1, MOUNTAIN), C(1, 1, 2, 1, MOUNTAIN),
            C(1, 0, 1, 1, MOUNTAIN), C(1, 1, 1, 2, VALLEY)}))
        rep = check_flat_foldability_local(cp)
        assert len(rep.vertices) == 1
        assert rep.vertices[0].maekawa_ok and rep.vertices[0].kawasaki_ok

    def test_all_mountain_cross_fails_maekawa(self):
        cp = CreasePattern(2.0, 2.0, frozenset({
            C(0, 1, 1, 1, MOUNTAIN), C(1, 1, 2, 1, MOUNTAIN),
            C(1, 0, 1, 1, MOUNTAIN), C(1, 1, 1, 2, MOUNTAIN)}))
        rep = check_flat_foldability_local(cp)
        assert not rep.vertices[0].maekawa_ok
        assert rep.vertices[0].kawasaki_ok
        assert rep.failures()

    def test_bent_degree_two_fails_kawasaki(self):
        cp = CreasePattern(2.0, 2.0, frozenset({
            C(0, 1, 1, 1, MOUNTAIN), C(1, 1, 1, 2, MOUNTAIN)}))
        rep = check_flat_foldability_local(cp)
        assert len(rep.vertices) == 1
        assert not rep.vertices[0].kawasaki_ok

    def test_straight_pleat_passthrough_is_not_a_vertex(self):
        cp = CreasePattern(2.0, 2.0, frozenset({
            C(0, 1, 1, 1, MOUNTAIN), C(1, 1, 2, 1, MOUNTAIN)}))
        rep = check_flat_foldability_local(cp)
        assert len(rep.vertices) == 0

    def test_assignment_switch_is_a_failing_vertex(self):
        cp = CreasePattern(2.0, 2.0, frozenset({
            C(0, 1, 1, 1, MOUNTAIN), C(1, 1, 2, 1, VALLEY)}))
        rep = check_flat_foldability_local(cp)
        assert len(rep.vertices) == 1
        assert not rep.vertices[0].ok

    def test_boundary_vertices_exempt(self):
        cp = CreasePattern(2.0, 2.0, frozenset({C(1, 0, 1, 2, MOUNTAIN)}))
        assert len(check_flat_foldability_local(cp).vertices) == 0

    def test_diagonal_bird_foot_passes(self):
        # degree-4 vertex: horizontal through, diagonals up-left/down-left
        cp = CreasePattern(4.0, 4.0, frozenset({
            C(0, 2, 2, 2, MOUNTAIN), C(2, 2, 4, 2, MOUNTAIN),
            C(2, 2, 0, 4, MOUNTAIN), C(2, 2, 0, 0, VALLEY)}))
        rep = check_flat_foldability_local(cp)
        inner = [v for v in rep.vertices if v.point == pytest.approx((2.0, 2.0))]
        assert len(inner) == 1
        assert inner[0].maekawa_ok and inner[0].kawasaki_ok

    def test_45_crossing_axis_fails_kawasaki(self):
        cp = CreasePattern(4.0, 4.0, frozenset({
            C(0, 2, 4, 2, MOUNTAIN), C(0, 0, 4, 4, VALLEY)}))
        rep = check_flat_foldability_local(cp)
        inner = [v for v in rep.vertices if v.point == pytest.approx((2.0, 2.0))]
        assert len(inner) == 1
        assert not inner[0].kawasaki_ok

    def test_collinear_merge_before_analysis(self):
        # two abutting mountain halves plus a perpendicular pair: degree 4
        cp = CreasePattern(2.0, 2.0, frozenset({
            C(0, 1, 0.5, 1, MOUNTAIN), C(0.5, 1, 2, 1, MOUNTAIN),
            C(1, 0, 1, 1, MOUNTAIN), C(1, 1, 1, 2, VALLEY)}))
        rep = check_flat_foldability_local(cp)
        assert len(rep.vertices) == 1  # only the true cross at (1, 1)
        assert rep.vertices[0].ok

    def test_report_does_not_depend_on_the_hash_seed(self):
        # crossing creases on thirds, whose intersection points come out a few
        # ulps apart depending on which crease the checker meets first
        program = (
            "import random\n"
            "from puzzlefonts.maze import CreasePattern, MOUNTAIN, VALLEY, check_flat_foldability_local\n"
            "rng = random.Random(1)\n"
            "for _ in range(40):\n"
            "    creases = set()\n"
            "    for _ in range(rng.randint(2, 6)):\n"
            "        x1, y1, x2, y2 = (rng.randint(0, 3) / rng.choice((1, 3)) for _ in range(4))\n"
            "        if (x1, y1) != (x2, y2):\n"
            "            a, b = sorted([(x1, y1), (x2, y2)])\n"
            "            creases.add((*a, *b, rng.choice((MOUNTAIN, VALLEY))))\n"
            "    print(repr(check_flat_foldability_local(CreasePattern(3.0, 3.0, frozenset(creases)))))\n"
        )
        src = str(Path(puzzlefonts.__file__).resolve().parents[1])
        reports = [subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                                  check=True, env={**os.environ, "PYTHONHASHSEED": seed,
                                                   "PYTHONPATH": src}).stdout
                   for seed in ("0", "1")]
        assert "VertexCheck" in reports[0]
        assert reports[0] == reports[1]


class TestCompose:
    def make(self, letter, shipped):
        return generate_crease_pattern(shipped["maze"].glyphs[letter])

    def test_compose_with_empty(self, shipped):
        x = self.make("F", shipped)
        empty = generate_crease_pattern(GridMaze.from_edges(2, 4, []))
        out = compose(x, empty)
        assert out.paper_width == x.paper_width + empty.paper_width
        assert len(out.creases) == len(x.creases)
        assert check_flat_foldability_local(out).all_ok
        out2 = compose(empty, x)
        assert len(out2.creases) == len(x.creases)

    def test_all_ordered_pairs_compose(self, shipped):
        letters = sorted(shipped["maze"].glyphs)
        pats = {ch: self.make(ch, shipped) for ch in letters}
        for a in letters:
            for b in letters:
                out = compose(pats[a], pats[b])
                assert check_flat_foldability_local(out).all_ok

    def test_three_way_chain(self, shipped):
        out = compose(compose(self.make("F", shipped), self.make("U", shipped)),
                      self.make("N", shipped))
        assert out.paper_width == sum(self.make(c, shipped).paper_width for c in "FUN")
        assert check_flat_foldability_local(out).all_ok

    def test_height_mismatch(self, shipped):
        taller = generate_crease_pattern(GridMaze.from_edges(2, 5, [(0, 0, 0, 1)]))
        with pytest.raises(InterfaceMismatch):
            compose(self.make("F", shipped), taller)

    def test_right_seam_interface_mismatch(self):
        a = CreasePattern(2.0, 2.0, frozenset({(0.0, 1.0, 2.0, 1.0, MOUNTAIN)}))
        b = CreasePattern(2.0, 2.0, frozenset())
        with pytest.raises(InterfaceMismatch, match=r"seam interfaces disagree near \(1000000, 'M'\)"):
            compose(a, b)


def test_edge_interface_rejects_unknown_edge():
    from puzzlefonts.maze import edge_interface
    cp = generate_crease_pattern(GridMaze.from_edges(2, 2, [(1, 0, 1, 1)]))
    with pytest.raises(ValueError, match="'middle'"):
        edge_interface(cp, "middle")


def test_edge_interface_reports_boundary_endpoints():
    from puzzlefonts.maze import edge_interface
    m = GridMaze.from_edges(2, 2, [(1, 0, 1, 1)])
    cp = generate_crease_pattern(m)
    # the column pleat's two creases run the full height, between the side edges
    assert sorted((y1, y2, a) for (_x1, y1, _x2, y2, a) in cp.creases) == \
        [(0.0, cp.paper_height, MOUNTAIN), (0.0, cp.paper_height, VALLEY)]
    assert edge_interface(cp, "left") == ()
    assert edge_interface(cp, "right") == ()


class TestRendering:
    def test_single_wall_2d(self):
        scene = render_maze_2d(GridMaze.from_edges(2, 2, [(0, 0, 0, 1)]))
        assert "wall" in scene.style_classes()

    def test_crease_view_classes(self, shipped):
        cp = generate_crease_pattern(shipped["maze"].glyphs["F"])
        classes = render_crease_pattern(cp).style_classes()
        has_m = any(a == MOUNTAIN for *_xy, a in cp.creases)
        has_v = any(a == VALLEY for *_xy, a in cp.creases)
        assert ("mountain" in classes) == has_m
        assert ("valley" in classes) == has_v
        assert "boundary" in classes
