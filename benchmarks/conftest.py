"""Shared bench infrastructure.

Every bench regenerates one of the paper's tables or figures: it prints
the rows/series to stdout AND archives them under
``benchmarks/output/`` so paper-vs-measured comparisons survive the run.
Timing is collected with pytest-benchmark (rounds kept small — these
are simulations, not microbenchmarks).

Perf-contract benches additionally persist their headline numbers
(scenario counts, wall-clock times, speedups, row-exactness booleans)
as ``BENCH_*.json`` artifacts under ``benchmarks/results/`` — a
*committed* directory, unlike the gitignored ``output/`` — so the perf
trajectory stays reviewable across PRs instead of living only in
commit messages.
"""

import json
import pathlib
import platform
import sys

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# The scalar reference loops (``serial_oracles``) live with the tests;
# appended, so nothing here can shadow a bench-local module.
sys.path.append(str(pathlib.Path(__file__).resolve().parents[1] / "tests"))


@pytest.fixture(scope="session")
def report_dir():
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture()
def save_report(report_dir):
    """Write a named report file and echo it to stdout."""

    def _save(name: str, text: str) -> None:
        path = report_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n=== {name} ===")
        print(text)

    return _save


@pytest.fixture()
def save_json():
    """Persist one bench's metrics as ``benchmarks/results/BENCH_<name>.json``.

    The payload must be JSON-serializable; an environment stamp
    (python/numpy versions, kernel backend) is added so results from
    different machines/PRs stay comparable.
    """

    def _save(name: str, payload: dict) -> None:
        import numpy
        from repro import kernels

        RESULTS_DIR.mkdir(exist_ok=True)
        stamped = {
            "environment": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "kernel_backend": kernels.backend_name(),
            },
            **payload,
        }
        path = RESULTS_DIR / f"BENCH_{name}.json"
        path.write_text(json.dumps(stamped, indent=2, sort_keys=True) + "\n")
        print(f"\n[bench artifact] {path}")

    return _save


def run_once(benchmark, fn):
    """Benchmark a simulation with minimal repetition."""
    return benchmark.pedantic(fn, rounds=2, iterations=1, warmup_rounds=0)
