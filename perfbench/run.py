"""puzzlefonts benchmark: closed-loop workloads with end-to-end and traced metrics.

    python3 perfbench/run.py --workload render|solve|fold --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

`--trace 0` measures the end-to-end metrics with tracing off.  `--trace 1`
runs every block twice, untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  `all` runs every workload both ways, each
in its own process.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the lines
before it are the environment and a readable table.  Results and spans are
also written under perfbench/out/.

Times in the metrics are scaled to reference speed (see calibrate.py); the
table and the result file under perfbench/out/ give the unscaled
wall-clock values next to them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# name, unit; every workload reports all of them
END_TO_END = [
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]
SETUP_REPEATS = 11
SETUP_PROGRAM = (
    "import puzzlefonts.cli\n"
    "from puzzlefonts import fontdata\n"
    "fonts = [fontdata.load_font_file(fontdata.find_font_file(f)) for f in fontdata.FONT_IDS]\n"
    "print(sum(len(fd.glyphs) for fd in fonts))\n"
)
SETUP_GLYPHS = "40"  # five fonts of eight letters


@dataclass
class RunLog:
    """Per-op record of a run; times are raw perf_counter readings."""
    ops: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    passed: list = field(default_factory=list)
    block_ends: list = field(default_factory=list)  # op count after each block
    failures: list = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)  # SVG of the first block

    @property
    def failed(self) -> int:
        return self.passed.count(False)

    def latencies(self, cal: Calibrator | None = None) -> list[float]:
        """Seconds per op, scaled to reference speed when `cal` is given."""
        return [cal.scaled(s, e) if cal else e - s for s, e in zip(self.starts, self.ends)]


def run_block(workload, block, log: RunLog, tracer=None) -> None:
    """Run one block of ops in a closed loop, appending to `log`.

    Only the operation is timed; the check runs after the clock stops.  A
    failing or raising operation is counted, never fatal.
    """
    first = not log.block_ends
    for op in block:
        if tracer is not None:
            tracer.request = len(log.ops)
        t0 = time.perf_counter()
        try:
            out = workload.execute(op)
            error = None
        except Exception as exc:  # the op failed; count it and go on
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if error is None:
            try:
                workload.check(op, out)
                if first:
                    with tracer.paused() if tracer else contextlib.nullcontext():
                        log.digest.update(workload.svg(op, out).encode("utf-8"))
            except Exception as exc:  # CheckFailed, or a check that could not run
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            log.failures.append(f"{op}: {error}")
        log.ops.append(op)
        log.starts.append(t0)
        log.ends.append(t1)
        log.passed.append(error is None)
    log.block_ends.append(len(log.ops))


def time_is_up(start: float, log: RunLog, seconds: float, min_ops: int) -> bool:
    """True once the run holds `min_ops` ops and one more block of average
    length would end past `seconds`."""
    blocks_done = len(log.block_ends)
    elapsed = time.perf_counter() - start
    return len(log.ops) >= min_ops and elapsed * (blocks_done + 1) / blocks_done > seconds


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure_setup(cal: Calibrator) -> list[tuple[float, float]]:
    """Wall time of fresh interpreters importing the CLI and loading the fonts,
    as (start, end) per repeat; probes run only between the repeats."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    times = []
    for _ in range(SETUP_REPEATS):
        cal.take_usable()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROGRAM], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        t1 = time.perf_counter()
        cal.take_usable()
        if proc.returncode != 0 or proc.stdout.strip() != SETUP_GLYPHS:
            raise RuntimeError(f"set-up program failed ({proc.returncode}): "
                               f"{proc.stdout.strip()} {proc.stderr.strip()}")
        times.append((t0, t1))
    return times


def git_commit() -> str:
    """HEAD of the checkout; 'unknown' outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    source = hashlib.sha256()
    pkg = ROOT / "src" / "puzzlefonts"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".pft")):
        source.update(path.relative_to(pkg).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "commit": git_commit(),
            "source_sha256": source.hexdigest()}


def end_to_end(log: RunLog, setup: list, cal: Calibrator | None) -> dict:
    """The END_TO_END metrics, scaled to reference speed when `cal` is given."""
    ms = [t * 1000.0 for t in log.latencies(cal)]
    values = {
        "throughput_ops_s": log.passed.count(True) / sum(log.latencies(cal)),
        "latency_p50_ms": percentile(ms, 50),
        "latency_p90_ms": percentile(ms, 90),
        "latency_p99_ms": percentile(ms, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(cal.scaled(t0, t1) if cal else t1 - t0
                                     for t0, t1 in setup),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def print_table(rows) -> None:
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<42} {shown:>14} {unit:<6} {note}")


def run_untraced(args, workload, cal: Calibrator):
    setup = measure_setup(cal)
    log = RunLog()
    start = time.perf_counter()
    with cal:
        for block in workload.blocks(args.seed):
            run_block(workload, block, log)
            if time_is_up(start, log, args.seconds, workload.min_ops):
                break
    cal.check()
    metrics = end_to_end(log, setup, cal)
    raw = end_to_end(log, setup, None)
    rows = [(name, value, unit, f"raw {raw[name][0]:.6g}")
            for name, (value, unit) in metrics.items()]
    rows.append(("failed_ratio", log.failed / len(log.ops), "ratio",
                 f"{log.failed} of {len(log.ops)} ops"))
    rows.append(("setup_s.samples", len(setup), "count",
                 " ".join(f"{cal.scaled(t0, t1):.4f}" for t0, t1 in setup)))
    if workload.name == "solve":
        from layers import repeat_share
        rows.append(("solve.repeat_share", repeat_share(log.ops), "ratio", "computed"))
    rows.append(("blocks", len(log.block_ends), "count", f"{len(log.ops)} ops"))
    return log, metrics, raw, rows, log.failed == 0


def run_traced(args, workload, cal: Calibrator, load_fonts, stem: str):
    """Each block runs untraced and then traced, so a change of machine speed
    hits both sides of the overhead ratio alike."""
    import layers
    from spans import Tracer
    with layers.install(Tracer()) as setup_tracer:
        load_fonts()
    tracer = Tracer()
    untraced, log = RunLog(), RunLog()
    start = time.perf_counter()
    with cal:
        for block in workload.blocks(args.seed):
            run_block(workload, block, untraced)
            with layers.install(tracer):
                run_block(workload, block, log, tracer)
            if time_is_up(start, log, args.seconds, workload.min_ops):
                break
    cal.check()
    tracer.write_jsonl(OUT / f"spans-{stem}.jsonl")
    metrics = layers.layer_metrics(tracer, setup_tracer, log.ops, workload.name,
                                   sum(log.latencies(cal)), sum(untraced.latencies(cal)),
                                   log.passed.count(True))
    source = {name: src for name, _unit, src in layers.PER_LAYER}
    rows = [(name, value, unit, source[name]) for name, (value, unit) in metrics.items()]
    rows.append(("blocks", len(log.block_ends), "count", f"{len(log.ops)} ops traced"))
    # tracing must not change a single output byte
    correct = (log.failed == 0 and untraced.failed == 0
               and log.digest.hexdigest() == untraced.digest.hexdigest())
    # the result counts the ops of both runs
    log.ops += untraced.ops
    log.passed += untraced.passed
    log.failures += untraced.failures
    return log, metrics, {}, rows, correct


def run_workload(args) -> int:
    try:
        from workloads import WORKLOADS, load_fonts
    except ImportError as exc:
        print(f"perfbench: cannot import puzzlefonts from this checkout: {exc}", file=sys.stderr)
        return 2

    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cal = Calibrator()
    workload = WORKLOADS[args.workload](load_fonts())
    if args.trace:
        log, metrics, raw, rows, correct = run_traced(args, workload, cal, load_fonts, stem)
    else:
        log, metrics, raw, rows, correct = run_untraced(args, workload, cal)
    env["probe_ms_median"] = statistics.median(cal.usable_probes) * 1000.0
    env["probe_cpu_share_median"] = statistics.median(cal.shares)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"svg_sha256 {log.digest.hexdigest()} (first block, {log.block_ends[0]} ops)")
    print_table(rows)
    for failure in log.failures[:10]:
        print(f"  FAILED {failure}")
    result = {"correct": correct, "attempted": len(log.ops), "failed": log.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"env": env, "svg_sha256": log.digest.hexdigest(), "failures": log.failures,
         "raw_metrics": {name: value for name, (value, _unit) in raw.items()}, **result},
        indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced then traced, each run in its own process."""
    results = {}
    worst = 0
    for name in ("render", "solve", "fold"):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=900)
            print(proc.stdout, end="", flush=True)
            worst = max(worst, proc.returncode)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                return proc.returncode or 2
            results[(name, trace)] = json.loads(lines[-1])
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for (name, _trace), r in results.items()
                    for metric, value in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("render", "solve", "fold", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
