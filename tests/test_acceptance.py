"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
inline).  Tolerances are pinned here, not configurable.
"""

import hashlib
import math
import random
import time
import xml.etree.ElementTree as ET

from puzzlefonts import fontdata
from puzzlefonts.conveyer import (
    canonical_spec, compute_belt, fingerprint, solve_belt, validate_belt,
)
from puzzlefonts.hinged import fold_chain, refine, render_fold, validate_polyabolo, verify_fold
from puzzlefonts.linkage import all_choices, enumerate_glyphs, realize
from puzzlefonts.maze import (
    PAPER_SCALE, check_flat_foldability_local, compose, generate_crease_pattern,
)
from puzzlefonts.cane import CaneCrossSection, Subcane, TwistParams, side_view_samples, strand_x
from puzzlefonts.fontdata import linkage_font_of
from puzzlefonts.geometry import hull_perimeter
from puzzlefonts.scene import Polygon, SvgConfig, emit_svg
from puzzlefonts.typeset import solve_puzzle, typeset
from oracles import naive_belt_solutions
from test_golden import FOLD


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_linkage_data_fidelity(shipped):
    font = linkage_font_of(shipped["linkage"])
    assert font.encode("F") == (90, 0, 90, 90, 0)
    assert font.encode("U") == (0, 180, 90, 90, 180)
    assert font.encode("N") == (180, 30, 180, 30, 180)
    _report(1, "published F/U/N angle sequences match exactly")


def test_criterion_02_linkage_enumeration(shipped):
    t0 = time.perf_counter()
    assert len(enumerate_glyphs([30, 60, 100, 140, 170])) == 32
    assert len(enumerate_glyphs([180] * 5)) == 1
    font = linkage_font_of(shipped["linkage"])
    for letter in font.letters():
        seq = font.encode(letter)
        for choices in all_choices():
            assert font.decode(realize(seq, choices)) == letter
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(2, f"32/1 enumeration counts and 32-way decode of all letters in {elapsed:.2f}s")


def test_criterion_03_linkage_uniqueness(shipped):
    font = linkage_font_of(shipped["linkage"])
    assert font.uniqueness_failures() == []
    letters = font.letters()
    for i, a in enumerate(letters):          # exhaustive, spelled out
        for b in letters[i + 1:]:
            sa, sb = font.encode(a), font.encode(b)
            assert sa != sb and sa != sb[::-1]
    _report(3, f"{len(letters)} shipped sequences pairwise distinct up to reversal")


def test_criterion_04_conveyer_geometry(shipped):
    stadium = [(0.0, 0.0), (4.0, 0.0)]
    path = compute_belt(stadium, [(0, 1), (1, 1)])
    assert abs(path.total_length - (8 + 2 * math.pi)) < 1e-9
    triangle = [(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)]
    path3 = compute_belt(triangle, [(0, 1), (1, 1), (2, 1)])
    assert abs(path3.total_length - (12 + 2 * math.pi)) < 1e-9
    checked = 0
    for disks in (stadium, triangle, *(rec.disks for rec in shipped["conveyer"].glyphs.values())):
        bound = hull_perimeter(disks)
        for spec in solve_belt(disks):
            assert validate_belt(disks, spec).all_ok
            assert compute_belt(disks, spec).total_length >= bound - 1e-9
            checked += 1
    _report(4, f"stadium and 3-4-5 belt lengths within 1e-9; {checked} solver belts all-valid")


def test_criterion_05_solver_vs_oracle():
    t0 = time.perf_counter()
    rng = random.Random(0xBE17)
    for trial in range(50):
        n = rng.randint(2, 5)
        disks = []
        while len(disks) < n:
            cand = (round(rng.uniform(0, 10), 3), round(rng.uniform(0, 10), 3))
            if all(math.dist(cand, p) >= 2.05 for p in disks):
                disks.append(cand)
        assert solve_belt(disks) == naive_belt_solutions(disks), f"trial {trial}: {disks}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(5, f"50 random disk sets match the naive enumerator in {elapsed:.1f}s")


def test_criterion_06_conveyer_font_uniqueness(shipped):
    fd = shipped["conveyer"]
    prints = set()
    for ch, rec in sorted(fd.glyphs.items()):
        sols = solve_belt(rec.disks)
        marked = canonical_spec(rec.belt)
        assert sols.count(marked) == 1, f"{ch}: letter belt not unique among solutions"
        fp = fingerprint(rec.disks)
        assert fp not in prints
        prints.add(fp)
    _report(6, f"{len(fd.glyphs)} glyphs: one marked belt each, fingerprints distinct")


def test_criterion_07_maze_scale_law():
    assert PAPER_SCALE == 3
    rng = random.Random(71)
    for _ in range(20):
        w, h = rng.randint(1, 6), rng.randint(1, 6)
        edges = []
        for x in range(w + 1):
            for y in range(h + 1):
                if x < w and rng.random() < 0.35:
                    edges.append((x, y, x + 1, y))
                if y < h and rng.random() < 0.35:
                    edges.append((x, y, x, y + 1))
        from puzzlefonts.maze import GridMaze
        cp = generate_crease_pattern(GridMaze.from_edges(w, h, edges))
        assert (cp.paper_width, cp.paper_height) == (3 * w, 3 * h)
    _report(7, "PAPER_SCALE=3 and 3x dimension law on 20 random mazes")


def test_criterion_08_maze_local_foldability(shipped):
    t0 = time.perf_counter()
    pats = {}
    for ch, maze in sorted(shipped["maze"].glyphs.items()):
        cp = generate_crease_pattern(maze)
        rep = check_flat_foldability_local(cp)
        assert rep.all_ok, (ch, rep.failures())
        pats[ch] = cp
    pairs = 0
    for a in pats:
        for b in pats:
            out = compose(pats[a], pats[b])
            assert check_flat_foldability_local(out).all_ok, (a, b)
            pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(8, f"100% vertices pass; {pairs} ordered compositions pass in {elapsed:.1f}s")


def test_criterion_09_hinged_font(shipped):
    fd = shipped["hinged"]
    chain = fd.chain
    assert chain.n_pieces == 128
    square = [(x, y, "NE", half) for x in range(4) for y in range(4)
              for half in ("first", "second")]
    targets = [("square", square)] + sorted(fd.glyphs.items())
    times = {}
    for name, cells in targets:
        rep = validate_polyabolo(cells, 32)
        assert rep.ok and rep.area == 16.0, name
        assert len(refine(cells, 32).slots) == 128
        t0 = time.perf_counter()
        fold = fold_chain(chain, cells, budget=10_000_000, expected_cells=32)
        dt = time.perf_counter() - t0
        assert fold is not None, f"{name}: no fold within budget"
        assert verify_fold(chain, cells, fold, expected_cells=32), name
        svg = emit_svg(render_fold(chain, cells, fold))
        assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == FOLD[name], \
            f"{name}: the fold at budget 10M differs from the fold at 1M"
        assert dt < 120.0, f"{name}: {dt:.1f}s"
        times[name] = dt
    worst = max(times, key=times.get)
    _report(9, f"chain folds the square and {len(fd.glyphs)} glyphs as at budget 1M; "
               f"slowest {worst} at {times[worst]:.1f}s (< 120s each)")


def test_criterion_10_cane_properties(shipped):
    for ch, rec in sorted(shipped["cane"].glyphs.items()):
        rows = side_view_samples(rec.cross_section, TwistParams(0.0, rec.twist.length))
        for strand in rows:
            xs = {round(x, 12) for _, x, _ in strand}
            assert len(xs) <= 1, f"{ch}: zero twist must be straight"
    section = CaneCrossSection((Subcane(0.6, 33.0, 0.2, "strand_a"),))
    for omega in (0.25, 0.5, 1.0):
        period = 1.0 / omega
        for t in (0.0, 0.2, 0.9, 1.4):
            a = strand_x(section.subcanes[0], omega, t)
            b = strand_x(section.subcanes[0], omega, t + period)
            assert abs(a - b) < 1e-9
    for ch, rec in sorted(shipped["cane"].glyphs.items()):
        from puzzlefonts.cane import render_side
        scene = render_side(rec.cross_section, rec.twist)
        for prim in scene.primitives:
            if isinstance(prim, Polygon):
                assert all(-1.0 - 1e-9 <= p.x <= 1.0 + 1e-9 for p in prim.points), ch
    _report(10, "zero-twist straightness, periodicity at 3 rates, silhouettes within [-1,1]")


def test_criterion_11_end_to_end(shipped):
    rng = random.Random(2024)
    for fid in ("conveyer", "linkage"):
        fd = shipped[fid]
        letters = sorted(fd.glyphs)
        for trial in range(5):
            text = "".join(rng.choice(letters) for _ in range(rng.randint(1, 8)))
            result = typeset(fd, text, "puzzle", seed=trial)
            assert solve_puzzle(fd, result.puzzle_data).text == text
    for fid, fd in sorted(shipped.items()):
        text = fontdata.write(fd)
        again, diags = fontdata.parse(text)
        assert not diags and fontdata.write(again) == text
    for fid, fd in sorted(shipped.items()):
        text = "FUN"
        for variant in ("solved", "puzzle"):
            a = emit_svg(typeset(fd, text, variant, seed=5).scene, SvgConfig())
            b = emit_svg(typeset(fd, text, variant, seed=5).scene, SvgConfig())
            assert a.encode() == b.encode()
            ET.fromstring(a)
    _report(11, "typeset/solve round-trips, parse-write identity, deterministic well-formed SVG")
