#!/usr/bin/env python3
"""nalab benchmark: one workload per process, closed loop, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload radial --seed 1 --seconds 10 --trace 0

A run first times set-up and one cold pass in each of a few fresh
processes of this script, one after another.  It then sets up the
workload itself, makes its own cold pass, and repeats passes (fresh
inputs drawn from the seed each pass) until ``--seconds`` have elapsed
and the case count supports a p90.  Every output is checked outside the
timed region.  Every time is scaled to a reference host speed by a
fixed kernel read on a timer while the work runs (``bench_speed``); the
unscaled wall times are printed on a line of their own.  The last stdout
line is a JSON object with keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Traced numbers never enter the end-to-end
metrics; a traced run times half its passes untraced to report the
tracing overhead.
"""

import os

# BLAS/OpenMP pools must be pinned before numpy loads: scipy-openblas would
# otherwise start one thread per core, and the caller is single-threaded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter, namedtuple  # noqa: E402

from bench_speed import REFERENCE_S, Timeline  # noqa: E402
from bench_stats import BEYOND, min_samples, percentile  # noqa: E402
from bench_trace import Tracer, self_times  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

FRESH_PROCESSES = 3  # set-up and cold pass are measured in this many fresh processes
MIN_PASSES = 3  # timed passes, so that pass_s is a median
LOOP_LIMIT_S = 120.0  # keeps a run well inside its time budget on a slow machine
LAYER_MODULES = (
    "geometry", "specfun", "weights", "radialops", "treelab", "checkers", "experiments",
)

# pass_s and case_s are scaled to the reference speed; wall_s is the pass
# time unscaled, and readings the kernel readings of the pass's timeline
PassResult = namedtuple("PassResult", "pass_s case_s wall_s readings layers counts")


def parse_args(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=("radial", "tree", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fresh", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def fresh_samples(args) -> list:
    """Set-up and cold-pass samples, each from a fresh process of this script.

    setup_s of a sample runs from just before the process is spawned to the
    moment its workload is ready. The process's timeline starts with its
    first statement; the gap from the spawn to its first reading is scaled
    by that reading.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--fresh"]
    samples = []
    for _ in range(FRESH_PROCESSES):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"fresh process exited with code {proc.returncode}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        gap = sample.pop("started") - start
        sample["wall_setup_s"] += gap
        sample["setup_s"] += gap * REFERENCE_S / sample.pop("first_reading")
        samples.append(sample)
    return samples


def count_trusted(result, counts):
    counts["tree_vertices"] = counts.get("tree_vertices", 0) + result.values.size
    counts["tree_trusted"] = counts.get("tree_trusted", 0) + int(result.trusted().sum())


class Runner:
    """Runs passes of one workload and tallies attempted and failed cases.

    Without a tracer, each pass reads host speed on a timer (``bench_speed``);
    with one, only at its ends, so that no reading lands inside a span.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.timer = tracer is None
        self.attempted = 0
        self.failed = 0
        self.case_counts = None
        self.next_index = 0

    def one_pass(self, traced=False, timeline=None) -> PassResult:
        """One pass over a fresh case list; ``timeline``, if given, is running."""
        cases = self.workload.cases(self.next_index)
        self.next_index += 1
        if self.case_counts is None:
            self.case_counts = dict(Counter(c.kind for c in cases))
        gc.collect()
        if traced:
            self.tracer.drain()
        outputs = []
        own = timeline is None
        if own:
            timeline = Timeline(self.timer).start()
        try:
            start = time.perf_counter()
            for case in cases:
                t0 = time.perf_counter()
                try:
                    out, err = case.run(), None
                except Exception as exc:  # a crashing case is a failed case, not a failed run
                    out, err = None, f"{type(exc).__name__}: {exc}"
                outputs.append((t0, time.perf_counter(), out, err))
            end = time.perf_counter()
        finally:
            if own:
                timeline.stop()
            else:
                timeline.read()
        spans, counts = self.tracer.drain() if traced else ([], {})

        for case, (_, _, out, err) in zip(cases, outputs):
            problems = [err] if err else self.workload.check(case, out)
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAILED {case.kind}: {'; '.join(problems)}", file=sys.stderr)
                continue
            for key, value in self.workload.layer_counts(case, out).items():
                counts[key] = counts.get(key, 0) + value
        layers = self_times(spans) if traced else {}
        case_s = [timeline.scaled(t0, t1) for t0, t1, _, _ in outputs]
        return PassResult(timeline.scaled(start, end), case_s, timeline.work(start, end),
                          list(timeline.values), layers, counts)

    def loop(self, seconds, min_cases=0, traced=False) -> list:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.one_pass(traced))
            elapsed = time.perf_counter() - start
            cases = sum(len(p.case_s) for p in passes)
            if elapsed >= seconds and cases >= min_cases and len(passes) >= MIN_PASSES:
                return passes
            if elapsed >= LOOP_LIMIT_S:
                return passes


def end_to_end(runner, fresh, seconds) -> dict:
    cold = runner.one_pass()
    passes = runner.loop(seconds, min_cases=min_samples(90))
    runner.attempted += sum(f["attempted"] for f in fresh)
    runner.failed += sum(f["failed"] for f in fresh)
    case_ms = [1000.0 * s for p in passes for s in p.case_s]
    print(f"samples: {len(fresh)} fresh processes for setup_s, "
          f"{len(fresh) + 1} cold passes, {len(passes)} timed passes, "
          f"{len(case_ms)} timed cases (p50 and p90 each need >= {BEYOND} beyond them)")
    readings = [r for p in [cold] + passes for r in p.readings]
    print(f"unscaled wall: setup_s={statistics.median(f['wall_setup_s'] for f in fresh):.4f} "
          "cold_pass_s="
          f"{statistics.median([f['wall_cold_pass_s'] for f in fresh] + [cold.wall_s]):.4f} "
          f"pass_s={statistics.median(p.wall_s for p in passes):.4f}; "
          f"{len(readings)} kernel readings: median {1000 * statistics.median(readings):.3f} ms, "
          f"range {1000 * min(readings):.3f}-{1000 * max(readings):.3f} ms")
    return {
        "setup_s": statistics.median(f["setup_s"] for f in fresh),
        "cold_pass_s": statistics.median([f["cold_pass_s"] for f in fresh] + [cold.pass_s]),
        "pass_s": statistics.median(p.pass_s for p in passes),
        "case_p50_ms": percentile(case_ms, 50),
        "case_p90_ms": percentile(case_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner, install, setup_layers, seconds, names) -> dict:
    runner.one_pass()  # cold pass: the envelope reference for later passes
    plain = runner.loop(seconds / 2)
    install()
    try:
        traced = runner.loop(seconds / 2, traced=True)
    finally:
        runner.tracer.uninstall()
    print(f"samples: {len(plain)} untraced and {len(traced)} traced passes")

    def pass_median(fn):
        return statistics.median(fn(p) for p in traced)

    def count_median(key):
        return pass_median(lambda p: p.counts.get(key, 0))

    untraced_s = statistics.median(p.pass_s for p in plain)
    traced_s = pass_median(lambda p: p.pass_s)
    vertices = sum(p.counts.get("tree_vertices", 0) for p in traced)
    trusted = sum(p.counts.get("tree_trusted", 0) for p in traced)
    values = {
        "treelab.TreeSpace.self_s": setup_layers.get("treelab.TreeSpace", (0, 0.0))[1],
        "treelab.tree_maximal.trusted_frac": trusted / vertices if vertices else 0.0,
        "checkers.skipped_pairs": count_median("checkers.skipped_pairs"),
        "experiments.bytes_written": count_median("experiments.bytes_written"),
        "trace.pass_s": traced_s,
        "trace.untraced_pass_s": untraced_s,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    for name in names:
        if name in values:
            continue
        layer, stat = name.rsplit(".", 1)
        column = {"calls": 0, "self_s": 1}[stat]
        values[name] = pass_median(lambda p: p.layers.get(layer, (0, 0.0))[column])
    return values


def fresh_process(args) -> int:
    """Body of a fresh process: set up, report ready, make one cold pass."""
    with Timeline() as timeline:
        started = time.monotonic() - (time.perf_counter() - timeline.begins[0])
        import bench_workloads

        outdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
        try:
            workload = bench_workloads.WORKLOADS[args.workload](args.seed, outdir)
            workload.setup()
            ready = time.perf_counter()
            runner = Runner(workload)
            cold = runner.one_pass(timeline=timeline)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
    first = timeline.begins[0]
    print(json.dumps({
        "started": started, "first_reading": timeline.values[0],
        "setup_s": timeline.scaled(first, ready), "wall_setup_s": timeline.work(first, ready),
        "cold_pass_s": cold.pass_s, "wall_cold_pass_s": cold.wall_s,
        "attempted": runner.attempted, "failed": runner.failed,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nalab", "__init__.py")):
        print(f"error: no nalab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.fresh:
        return fresh_process(args)

    with open(SPEC) as fh:
        spec = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    fresh = None if args.trace else fresh_samples(args)

    import numpy
    import scipy

    import bench_workloads
    import nalab

    print(f"workload: {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))

    outdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        workload = bench_workloads.WORKLOADS[args.workload](args.seed, outdir)
        if args.trace:
            tracer = Tracer(observers={"treelab.tree_maximal": count_trusted})
            modules = [getattr(nalab, m) for m in LAYER_MODULES]
            namespaces = [
                m for n, m in sys.modules.items() if n == "nalab" or n.startswith("nalab.")
            ]

            def install():
                tracer.install(modules, namespaces)

            install()
            try:
                workload.setup()
            finally:
                tracer.uninstall()
            setup_layers = self_times(tracer.drain()[0])
            runner = Runner(workload, tracer)
            metrics = per_layer(runner, install, setup_layers, args.seconds, list(units))
        else:
            workload.setup()
            runner = Runner(workload)
            metrics = end_to_end(runner, fresh, args.seconds)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}"
        )
    print(f"cases per pass: {json.dumps(runner.case_counts, sort_keys=True)}")
    print(f"failed_frac: {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted})")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
