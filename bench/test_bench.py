"""Smoke test of the benchmark at tiny size.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Case, make_cases  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(workload, seed, trace, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=120)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(x for x in lines if x.startswith("env: "))[5:])
    return env, json.loads(lines[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    env, out = result_of(bench(workload, 1, trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in out["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in out["metrics"].values())
    assert env["blas_threads"] <= env["nproc"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_metric_names(workload):
    env1, out1 = result_of(bench(workload, 1, 0))
    env2, out2 = result_of(bench(workload, 2, 0))
    assert env1["inputs_digest"] != env2["inputs_digest"]
    assert env1["cases"] == env2["cases"]
    assert list(out1["metrics"]) == list(out2["metrics"])


def test_refusal_is_counted_not_thrown():
    runner = run.Runner(lambda draw: [])
    case = Case("annulus", "annulus refused", ([[1.5]], 0.5), {"order": 1, "nodes": 16})
    rec = runner.run_one((0, 0), case)
    assert rec["problems"] and rec["problems"][0].startswith("InfeasibleError")
    assert rec["space_dim"] is None and rec["seconds"] > 0


def test_missing_pipeline_name_fails_coverage(monkeypatch):
    spans.check_entry_points()
    monkeypatch.delattr(spans.pipelines, "caratheodory_reduce")
    with pytest.raises(spans.CoverageError):
        spans.check_entry_points()


def test_traced_spans_account_for_operation_time():
    runner = run.Runner(lambda draw: make_cases("boundary", 3, draw, tiny=True))
    tracer = runner.tracer = spans.Tracer()
    with tracer.installed():
        runner.cycles(0.0)
    tracer.check_accounted()
    assert tracer.self_s["convex.reduce"] > 0 and tracer.reduce_calls


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("circle", 1, 0, cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
