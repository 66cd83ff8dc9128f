"""Smoke test of the benchmark: every workload at tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload must run in both modes, emit every metric named in
``BENCHMARK.json`` with its unit, and pass its checks.  The runner must
also refuse to run, without printing a result, where the library's
sources are missing.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def run(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in BENCH["workloads"]])
def test_workload_emits_every_metric_and_passes(workload, trace):
    done = run(ROOT, workload, trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert ({name: entry["unit"] for name, entry in result["metrics"].items()}
            == {metric["name"]: metric["unit"] for metric in declared})
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if trace:
        assert "reconciliation over" in done.stdout


def test_refuses_without_the_library_sources():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run(bare, "stat_eye", 0)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_reference_comparison_catches_a_changed_statistic():
    from workloads import compare
    reference = {"eye_heights": [0.4, 0.5], "cdr_locked": "11"}
    exact = frozenset({"cdr_locked"})
    assert compare(reference, dict(reference), exact) == []
    assert compare(reference, {"eye_heights": [0.4, 0.5 + 1e-8],
                               "cdr_locked": "11"}, exact)
    assert compare(reference, {"eye_heights": [0.4, 0.5],
                               "cdr_locked": "10"}, exact)


def test_self_time_excludes_child_spans():
    from tracing import Tracer
    tracer = Tracer()
    with tracer.span("parent"):
        with tracer.span("child"):
            sum(range(10000))
    spans = {span.name: span for span in tracer.spans}
    self_time = tracer.self_seconds(0)
    child = spans["child"].end - spans["child"].start
    parent = spans["parent"].end - spans["parent"].start
    assert spans["child"].parent == 0
    assert self_time["child"] == pytest.approx(child)
    assert self_time["parent"] == pytest.approx(parent - child)
