"""Per-layer metrics: where the tracer hooks into puzzlefonts, and what it reports.

The layers are the package modules.  Each hook rebinds a public function in
the namespace its callers look it up in, so the benchmark times the layers
only from outside, around calls to their public functions.  `cli` has no
hook: it is measured by the end-to-end `setup_s`, which imports it.
Self times are unscaled wall-clock seconds; they include the calibration
probes that the timer signal runs in the middle of a span (about 3% of the
time).
"""

from __future__ import annotations

import math
from collections import Counter

import workloads  # noqa: F401  (puts this checkout's puzzlefonts on sys.path)
from puzzlefonts import cane, conveyer, fontdata, hinged, linkage, maze, scene, typeset
from spans import Tracer

# name, unit, and whether the value is read off the spans ("traced"), timed
# without tracing ("measured") or computed by the benchmark from its own
# inputs ("computed")
PER_LAYER = [
    ("trace.throughput_ops_s", "1/s", "traced"),
    ("trace.untraced_throughput_ops_s", "1/s", "measured"),
    ("trace.overhead_ratio", "ratio", "traced"),
    ("setup.fontdata.parse.self_s", "s", "traced"),
    ("fontdata.parse.self_s", "s", "traced"),
    ("fontdata.parse.bytes", "bytes", "traced"),
    ("fontdata.write.self_s", "s", "traced"),
    ("typeset.typeset.self_s", "s", "traced"),
    ("typeset.solve_puzzle.self_s", "s", "traced"),
    ("typeset.solve_cache_hit_ratio", "ratio", "traced"),
    ("scene.emit_svg.self_s", "s", "traced"),
    ("scene.emit_svg.bytes", "bytes", "traced"),
    ("scene.VectorScene.translated.self_s", "s", "traced"),
    ("scene.VectorScene.bounds.self_s", "s", "traced"),
    ("cane.render_side.self_s", "s", "traced"),
    ("cane.render_side.polygons", "count", "traced"),
    ("linkage.realize.calls", "count", "traced"),
    ("linkage.realize.self_s", "s", "traced"),
    ("linkage.realize.calls_per_puzzle_glyph", "ratio", "traced"),
    ("maze.generate_crease_pattern.self_s", "s", "traced"),
    ("maze.compose.calls", "count", "traced"),
    ("maze.compose.self_s", "s", "traced"),
    ("hinged.render_chain_strip.self_s", "s", "traced"),
    ("conveyer.solve_belt.calls", "count", "traced"),
    ("conveyer.solve_belt.self_s", "s", "traced"),
    ("conveyer.solve_belt.candidates", "count", "computed"),
    ("conveyer.compute_belt.calls", "count", "traced"),
    ("conveyer.compute_belt.raised", "count", "traced"),
    ("conveyer.compute_belt.self_s", "s", "traced"),
    ("conveyer.solutions_per_candidate", "ratio", "traced"),
    ("conveyer.fingerprint.calls", "count", "traced"),
    ("conveyer.fingerprint.calls_per_solve", "ratio", "traced"),
    ("geometry.path_is_simple.calls", "count", "traced"),
    ("geometry.path_is_simple.self_s", "s", "traced"),
    ("solve.repeat_share", "ratio", "computed"),
    ("hinged.fold_chain.calls", "count", "traced"),
    ("hinged.fold_chain.self_s", "s", "traced"),
    *[(f"hinged.fold_chain.{target}.self_s", "s", "traced")
      for target in ("square", "F", "I", "L", "N", "O", "T", "U", "Z")],
    ("hinged.refine.calls", "count", "traced"),
    ("hinged.refine.self_s", "s", "traced"),
    ("hinged.refine.calls_per_target", "ratio", "traced"),
    ("hinged.verify_fold.self_s", "s", "traced"),
]


def _solve_belt_counts(counts: Counter, args, result) -> None:
    n = len(args[0])
    if n >= 2:  # cyclic orders with disk 0 pinned, times orientations of the rest
        counts["conveyer.solve_belt.candidates"] += math.factorial(n - 1) * 2 ** (n - 1)
    counts["conveyer.solve_belt.solutions"] += len(result)


def _parse_bytes(counts: Counter, args, result) -> None:
    counts["fontdata.parse.bytes"] += len(args[0].encode("utf-8"))


def _svg_bytes(counts: Counter, args, result) -> None:
    counts["scene.emit_svg.bytes"] += len(result.encode("utf-8"))


def _side_polygons(counts: Counter, args, result) -> None:
    counts["cane.render_side.polygons"] += sum(isinstance(p, scene.Polygon)
                                               for p in result.primitives)


def install(tracer: Tracer) -> Tracer:
    """Hook every traced function; undo with `tracer.unpatch_all()`."""
    hooks = [
        (conveyer, "solve_belt", "conveyer.solve_belt", _solve_belt_counts),
        (conveyer, "compute_belt", "conveyer.compute_belt", None),
        (conveyer, "path_is_simple", "geometry.path_is_simple", None),
        (conveyer, "fingerprint", "conveyer.fingerprint", None),
        (typeset, "typeset", "typeset.typeset", None),
        (typeset, "solve_puzzle", "typeset.solve_puzzle", None),
        (fontdata, "parse", "fontdata.parse", _parse_bytes),
        (fontdata, "write", "fontdata.write", None),
        (scene, "emit_svg", "scene.emit_svg", _svg_bytes),
        (scene.VectorScene, "translated", "scene.VectorScene.translated", None),
        (scene.VectorScene, "bounds", "scene.VectorScene.bounds", None),
        (cane, "render_side", "cane.render_side", _side_polygons),
        (linkage, "realize", "linkage.realize", None),
        (maze, "generate_crease_pattern", "maze.generate_crease_pattern", None),
        (maze, "compose", "maze.compose", None),
        (hinged, "render_chain_strip", "hinged.render_chain_strip", None),
        (hinged, "fold_chain", "hinged.fold_chain", None),
        (hinged, "refine", "hinged.refine", None),
        (hinged, "verify_fold", "hinged.verify_fold", None),
    ]
    for owner, attr, name, on_result in hooks:
        tracer.patch(owner, attr, name, on_result)
    return tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def repeat_share(ops) -> float:
    """Share of the per-request distinct solve configurations (letters) that an
    earlier request of the run already solved."""
    seen: set = set()
    repeats = total = 0
    for op in ops:
        for letter in set(op.text):
            total += 1
            repeats += letter in seen
        seen.update(op.text)
    return _ratio(repeats, total)


def layer_metrics(tracer: Tracer, setup_tracer: Tracer, ops, workload: str,
                  traced_s: float, untraced_s: float, passed: int) -> dict:
    """Every PER_LAYER metric, zero where the workload does not reach the layer."""
    calls = tracer.calls()
    self_s = tracer.self_times()
    counts = tracer.counts
    per_target = tracer.self_times(lambda s: f"{s.name}.{ops[s.request].text}")
    linkage_puzzle = [op.font == "linkage" and op.variant == "puzzle" for op in ops]
    solve_glyphs = sum(len(op.text) for op in ops) if workload == "solve" else 0
    values = {
        "trace.throughput_ops_s": _ratio(passed, traced_s),
        "trace.untraced_throughput_ops_s": _ratio(passed, untraced_s),
        "trace.overhead_ratio": _ratio(traced_s, untraced_s),
        "setup.fontdata.parse.self_s": setup_tracer.self_times()["fontdata.parse"],
        "fontdata.parse.bytes": counts["fontdata.parse.bytes"],
        "scene.emit_svg.bytes": counts["scene.emit_svg.bytes"],
        "cane.render_side.polygons": counts["cane.render_side.polygons"],
        "conveyer.solve_belt.candidates": counts["conveyer.solve_belt.candidates"],
        "conveyer.compute_belt.raised": counts["conveyer.compute_belt.raised"],
        "conveyer.solutions_per_candidate": _ratio(counts["conveyer.solve_belt.solutions"],
                                                   counts["conveyer.solve_belt.candidates"]),
        # within one request: glyphs whose configuration was already solved
        "typeset.solve_cache_hit_ratio": _ratio(solve_glyphs - calls["conveyer.solve_belt"],
                                                solve_glyphs),
        "linkage.realize.calls_per_puzzle_glyph": _ratio(
            sum(1 for s in tracer.spans if s.name == "linkage.realize"
                and linkage_puzzle[s.request]),
            sum(len(op.text) for op, lp in zip(ops, linkage_puzzle) if lp)),
        "conveyer.fingerprint.calls_per_solve": _ratio(calls["conveyer.fingerprint"],
                                                       calls["typeset.solve_puzzle"]),
        "hinged.refine.calls_per_target": _ratio(calls["hinged.refine"],
                                                 calls["hinged.fold_chain"]),
        "solve.repeat_share": repeat_share(ops) if workload == "solve" else 0.0,
    }
    for name, _unit, _source in PER_LAYER:
        if name in values:
            continue
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls[layer]
        elif layer.startswith("hinged.fold_chain."):
            values[name] = per_target[layer]
        else:
            values[name] = self_s[layer]
    return {name: (values[name], unit) for name, unit, _source in PER_LAYER}
