"""Tests of the benchmark itself: python -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import gc
from collections import Counter
from pathlib import Path

import calibrate
import layers
import run
from spans import Tracer
from workloads import LETTERS, RENDER_LENGTHS, VARIANTS, WORKLOADS, Op, SolveWorkload, load_fonts

FONTS = load_fonts()
HERE = Path(__file__).resolve().parent


def first_ops(workload, seed: int, n_blocks: int) -> list:
    blocks = workload.blocks(seed)
    return [op for _ in range(n_blocks) for op in next(blocks)]


def test_same_seed_same_ops_and_other_seed_other_ops():
    for name, cls in WORKLOADS.items():
        workload = cls(FONTS)
        ops = first_ops(workload, 7, 2)
        assert ops == first_ops(cls(FONTS), 7, 2), name
        assert ops != first_ops(workload, 8, 2), name


def test_render_block_holds_every_font_variant_and_length_once():
    block = first_ops(WORKLOADS["render"](FONTS), 3, 1)
    cells = Counter((op.font, op.variant, len(op.text)) for op in block)
    assert len(cells) == len(FONTS) * len(VARIANTS) * len(RENDER_LENGTHS)
    assert set(cells.values()) == {1}
    assert all(set(op.text) <= set(LETTERS) for op in block)


def test_solve_block_holds_each_letter_three_times_and_one_repeat():
    for seed in range(20):
        block = first_ops(SolveWorkload(FONTS), seed, 1)
        assert Counter("".join(op.text for op in block)) == Counter(LETTERS * 3)
        assert Counter(len(op.text) for op in block) == {1: 8, 2: 8}
        pairs = [op.text for op in block if len(op.text) == 2]
        assert sorted(p[0] for p in pairs) == sorted(p[1] for p in pairs) == sorted(LETTERS)
        assert sum(p[0] == p[1] for p in pairs) == 1
        assert all(op.expected == op.text for op in block)
    blocks = SolveWorkload(FONTS).blocks(3)
    doubled = [op.text[0] for _ in range(8) for op in next(blocks)
               if len(op.text) == 2 and op.text[0] == op.text[1]]
    assert sorted(doubled) == sorted(LETTERS)


def test_solve_two_letter_texts_are_uniform_over_all_pairs():
    blocks = SolveWorkload(FONTS).blocks(5)
    pairs = Counter(op.text for _ in range(800) for op in next(blocks) if len(op.text) == 2)
    assert len(pairs) == 64
    # 6400 texts: 100 expected per pair
    assert 60 < min(pairs.values()) and max(pairs.values()) < 145


def test_fold_block_is_one_pass_over_the_nine_targets():
    block = first_ops(WORKLOADS["fold"](FONTS), 3, 1)
    assert sorted(op.text for op in block) == sorted(["square", *LETTERS])


def test_wrong_answer_and_raising_op_count_as_failed():
    workload = SolveWorkload(FONTS)
    block = [Op("conveyer", "FI", expected="FI"),
             Op("conveyer", "FI", expected="IF"),   # deliberately wrong expectation
             Op("conveyer", "A", expected="A")]     # not in the font: typeset raises
    log = run.RunLog()
    run.run_block(workload, block, log)
    assert len(log.ops) == 3
    assert log.passed == [True, False, False]
    assert log.failed == 2
    assert "expected 'IF'" in log.failures[0]
    assert "UnknownCharacter" in log.failures[1]


def test_render_check_counts_drawing_elements():
    workload = WORKLOADS["render"](FONTS)
    op = Op("conveyer", "FUN", "solved", 1)
    result, svg = workload.execute(op)
    workload.check(op, (result, svg))
    broken = svg.replace("<polyline", "<desc", 1)
    try:
        workload.check(op, (result, broken))
    except Exception as exc:
        assert "drawing elements" in str(exc)
    else:
        raise AssertionError("a missing element passed the check")


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _source in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        time.sleep(0.01)
        traced_inner()

    tracer.wrap("outer", outer)()
    spans = {s.name: s for s in tracer.spans}
    self_s = tracer.self_times()
    outer_total = spans["outer"].end - spans["outer"].start
    assert abs(self_s["outer"] + self_s["inner"] - outer_total) < 1e-9
    assert 0.005 < self_s["outer"] < 0.02 <= self_s["inner"]
    assert spans["inner"].parent == tracer.spans.index(spans["outer"])


def test_hooks_see_calls_made_inside_the_library_and_unpatch():
    from puzzlefonts import conveyer
    original = conveyer.compute_belt
    tracer = Tracer()
    with layers.install(tracer):
        conveyer.solve_belt(FONTS["conveyer"].glyphs["L"].disks)
    assert conveyer.compute_belt is original
    calls = tracer.calls()
    assert calls["conveyer.solve_belt"] == 1
    assert calls["conveyer.compute_belt"] == 6 * 8   # (n-1)! * 2^(n-1), n = 4
    assert calls["geometry.path_is_simple"] >= 1
    assert tracer.counts["conveyer.solve_belt.candidates"] == 48


def probes(cal, times, walls, cpu=None):
    """Fake probe readings: each probe ran `walls[i]` seconds, ending at `times[i]`."""
    cpu = cpu or walls
    cal.times, cal.cpu = list(times), list(cpu)
    cal.shares = [c / w for c, w in zip(cpu, walls)]
    usable = [i for i, share in enumerate(cal.shares) if share >= calibrate.MIN_CPU_SHARE]
    cal.usable_times = [times[i] for i in usable]
    cal.usable_probes = [walls[i] for i in usable]


def test_scaled_time_uses_the_median_probe_around_each_piece():
    cal = calibrate.Calibrator()
    ref = calibrate.REFERENCE_PROBE_S
    probes(cal, [0.0, 10.0], [0.001, 0.003])
    assert abs(cal.scaled(1.0, 9.0) - 8.0 * ref / 0.002) < 1e-12
    # probes within WINDOW_S of the interval count; far ones do not
    probes(cal, [0.0, 8.8, 8.9, 9.0, 9.2, 9.3, 12.0],
           [0.009, 0.001, 0.0015, 0.002, 0.001, 0.002, 0.009])
    assert abs(cal.scaled(9.05, 9.1) - 0.05 * ref / 0.0015) < 1e-12
    # a probe inside the interval splits it, and its own CPU time is left out
    probes(cal, [0.0, 5.0, 10.0], [0.001, 0.001, 0.003])
    want = (4.0 - 0.001) * ref / 0.001 + 4.0 * ref / 0.002
    assert abs(cal.scaled(1.0, 9.0) - want) < 1e-12
    # a probe that did not get the CPU splits the interval but sets no speed
    probes(cal, [0.0, 5.0, 10.0], [0.001, 0.004, 0.001], [0.001, 0.001, 0.001])
    want = (4.0 - 0.001) * ref / 0.001 + 4.0 * ref / 0.001
    assert abs(cal.scaled(1.0, 9.0) - want) < 1e-12
    try:
        cal.scaled(10.5, 11.0)
    except ValueError:
        pass
    else:
        raise AssertionError("an interval after the last probe was scaled")


def test_timer_probes_land_inside_a_long_operation():
    with calibrate.Calibrator() as cal:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1 = time.perf_counter()
    assert sum(t0 < t < t1 for t in cal.times) >= 3
    cal.check()


def test_kernel_triggers_no_garbage_collection():
    collections = []

    def count(phase, info):
        collections.append(phase)

    threshold = gc.get_threshold()
    gc.collect()
    gc.set_threshold(1)
    gc.callbacks.append(count)
    try:
        for _ in range(20):
            calibrate.kernel()
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    assert collections == []


def test_probes_that_did_not_get_the_cpu_fail_the_calibration():
    cal = calibrate.Calibrator()
    probes(cal, [0.0, 1.0, 2.0], [0.001, 0.004, 0.005], [0.001, 0.001, 0.001])
    try:
        cal.check()
    except RuntimeError as exc:
        assert "CPU" in str(exc)
    else:
        raise AssertionError("probes with 20-25% of the CPU passed the check")


def test_edge_probes_are_retried_until_usable(monkeypatch):
    cal = calibrate.Calibrator()
    cal.take_usable()
    assert len(cal.usable_times) == 1
    monkeypatch.setattr(calibrate, "MIN_CPU_SHARE", 2.0)   # no probe is usable
    try:
        cal.take_usable()
    except RuntimeError:
        pass
    else:
        raise AssertionError("an unusable probe was accepted")
    assert len(cal.times) == 1 + calibrate.EDGE_TRIES
    assert len(cal.usable_times) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "render",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
