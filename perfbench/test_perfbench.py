"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Instrumentation, Tracer, per_layer_metrics, per_layer_units  # noqa: E402

REPEATED_COUNTS = (
    "core.DenseOperator.calls",
    "basis.o_operator.calls",
    "sampling.trajectories",
    "homodyne.samples",
    "cli.bytes_out",
)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_one_op_passes_its_checks_at_seed_0(name, tmp_path):
    wl = workloads.make_workload(name, str(tmp_path))
    inp = wl.make_input(workloads.op_rng(0, workloads.TIMED_STREAM, 0))
    wl.check(inp, wl.run(inp))


def test_checks_reject_a_wrong_output(tmp_path):
    wl = workloads.make_workload("born", str(tmp_path))
    cases = wl.make_input(workloads.op_rng(0, workloads.TIMED_STREAM, 0))
    reports = wl.run(cases)
    reports[1] = dataclasses.replace(reports[1], estimate=reports[1].estimate + 1.0)
    with pytest.raises(workloads.CheckFailed):
        wl.check(cases, reports)


def _traced_ops(wl, n: int) -> tuple:
    """Run ops 0..n-1 at seed 0 as ``closed_loop`` does, odd ops traced."""
    instrumentation = Instrumentation(Tracer())
    res = harness.LoopResult()
    for i in range(n):
        harness.run_op(wl, 0, i, res, instrumentation if i % 2 == 1 else None)
    return instrumentation.tracer, res


def _traced_counts(name: str, workdir: str) -> dict:
    tracer, res = _traced_ops(workloads.make_workload(name, workdir), 4)
    assert not res.errors
    metrics = per_layer_metrics(tracer, res.counts, res.plain_ms, res.traced_ms)
    assert set(metrics) == set(per_layer_units())
    return {k: metrics[k] for k in REPEATED_COUNTS}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_repeat_at_the_same_seed(name, tmp_path):
    first = _traced_counts(name, str(tmp_path))
    assert first == _traced_counts(name, str(tmp_path))


def test_tracing_changes_no_output(tmp_path):
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)

    def both(wl, inp, result):
        plain = result(wl.run(inp))
        instrumentation.install()
        try:
            traced = result(wl.run(inp))
        finally:
            instrumentation.uninstall()
        return plain, traced

    born = workloads.make_workload("born", str(tmp_path))
    cases = born.make_input(workloads.op_rng(0, workloads.TIMED_STREAM, 0))
    plain, traced = both(born, cases, lambda reps: [r.estimate for r in reps])
    assert plain == traced

    homodyne = workloads.make_workload("homodyne", str(tmp_path))
    inp = homodyne.make_input(workloads.op_rng(0, workloads.TIMED_STREAM, 0))

    def output_bytes(code):
        assert code == 0
        with open(inp.output_path, "rb") as fh:
            return fh.read()

    plain, traced = both(homodyne, inp, output_bytes)
    assert plain == traced
    assert "cli.main" in tracer.names and "homodyne.simulate_homodyne_batch" in tracer.names


def test_top_level_spans_cover_the_op(tmp_path):
    for name in workloads.NAMES:
        tracer, res = _traced_ops(workloads.make_workload(name, str(tmp_path)), 2)
        metrics = per_layer_metrics(tracer, res.counts, res.plain_ms, res.traced_ms)
        assert 90.0 <= metrics["trace.top_level_coverage_pct"] <= 100.0, name


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
