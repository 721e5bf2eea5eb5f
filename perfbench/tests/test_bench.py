"""Tests for the benchmark's own code; run with ``python3 -m pytest perfbench/tests``."""

import importlib
import json
import os
import re
import signal
import sys
import textwrap
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import bench_speed  # noqa: E402
import bench_stats  # noqa: E402
import bench_workloads  # noqa: E402
from bench_trace import Span, Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _toy_module():
    mod = types.ModuleType("toy")
    exec(
        textwrap.dedent(
            """
            def inner(x):
                return x + 1

            def outer(x):
                return inner(x) + inner(x)

            class Grid:
                def __init__(self, n):
                    self.n = inner(n)
            """
        ),
        mod.__dict__,
    )
    return mod


def test_self_time_of_nested_calls():
    toy = _toy_module()
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.install([toy], [toy])
    try:
        assert toy.outer(1) == 4
    finally:
        tracer.uninstall()
    spans, _ = tracer.drain()
    assert spans == [
        Span("toy.outer", 0.0, 10.0, None),
        Span("toy.inner", 1.0, 3.0, 0),
        Span("toy.inner", 4.0, 7.0, 0),
    ]
    assert self_times(spans) == {"toy.outer": (1, 5.0), "toy.inner": (2, 5.0)}


def test_install_rebinds_every_namespace_and_uninstall_restores():
    toy = _toy_module()
    user = types.ModuleType("user")
    user.inner = original = toy.inner

    def observe(result, counts):
        counts["last"] = result

    tracer = Tracer(observers={"toy.inner": observe})
    tracer.install([toy], [toy, user])
    try:
        assert user.inner is toy.inner is not original
        assert toy.Grid(2).n == 3
    finally:
        tracer.uninstall()
    assert user.inner is toy.inner is original
    spans, counts = tracer.drain()
    assert [s.name for s in spans] == ["toy.Grid", "toy.inner"]
    assert counts == {"last": 3}
    toy.outer(1)
    assert tracer.drain() == ([], {})


def test_benchmark_names_and_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
    for m in spec["per_layer"]:
        layer, stat = m["name"].rsplit(".", 1)
        if stat in ("calls", "self_s"):
            module, attr = layer.split(".")
            assert hasattr(importlib.import_module(f"nalab.{module}"), attr), layer


def _reports(section, key, scale=1.0):
    ref = bench_workloads.load_references(section)[key]
    return ref, [dict(r, constant=r["constant"] * scale) for r in ref["reports"]]


def test_reference_check_flags_a_perturbed_constant():
    ref, reports = _reports("radial", "ex-blesa", 1.0 + 1e-5)
    assert bench_workloads.reference_problems(ref["code"], reports, ref) == []
    ref, reports = _reports("radial", "ex-blesa", 1.0 + 3 * bench_workloads.FROZEN_REL)
    problems = bench_workloads.reference_problems(ref["code"], reports, ref)
    assert problems and all("constant" in p for p in problems)


def test_reference_check_flags_code_and_verdict():
    ref, reports = _reports("sweep", "necessary-exp-1")
    assert bench_workloads.reference_problems(1 - ref["code"], reports, ref)
    reports[0]["verdict"] = "fail" if reports[0]["verdict"] == "pass" else "pass"
    assert bench_workloads.reference_problems(ref["code"], reports, ref)


def test_every_case_has_a_reference():
    refs = {s: bench_workloads.load_references(s) for s in ("radial", "sweep")}
    assert set(refs["radial"]) == set(bench_workloads.RADIAL_IDS)
    assert set(refs["sweep"]) == set(bench_workloads.SWEEP_CONFIGS)


def test_percentile_refuses_too_few_samples_beyond_it():
    assert bench_stats.min_samples(90) == 100
    assert bench_stats.min_samples(50) == 20
    with pytest.raises(ValueError):
        bench_stats.percentile(range(99), 90)
    with pytest.raises(ValueError):
        bench_stats.percentile(range(19), 50)
    assert bench_stats.percentile(range(100), 90) == 89
    assert bench_stats.percentile(range(20), 50) == 9


def test_timeline_scales_each_stretch_by_its_readings():
    ref = bench_speed.REFERENCE_S
    tl = bench_speed.Timeline(timer=False)
    tl.begins, tl.ends, tl.values = [0.0, 1.0, 3.0], [0.1, 1.1, 3.1], [ref, ref, 2 * ref]
    # 0.5-1.0 at factor 1, the reading 1.0-1.1 left out, 1.1-2.0 at factor 2/3
    assert tl.work(0.5, 2.0) == pytest.approx(1.4)
    assert tl.scaled(0.5, 2.0) == pytest.approx(0.5 + 0.9 * 2 / 3)
    assert tl.scaled(1.05, 1.1) == 0.0
    with pytest.raises(ValueError):
        tl.scaled(2.0, 3.2)


def test_timeline_timer_reads_during_work_and_disarms():
    before = signal.getsignal(signal.SIGALRM)
    with bench_speed.Timeline() as tl:
        start = time.perf_counter()
        while time.perf_counter() - start < 3.5 * bench_speed.EVERY_S:
            pass
        end = time.perf_counter()
    assert len(tl.values) >= 4  # start, at least two timer readings, stop
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == before
    assert 0.0 < tl.work(start, end) < end - start
