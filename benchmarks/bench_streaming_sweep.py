"""The streaming-reducer contract, measured: a ``keep_results=False``
sweep must hold peak supervisor memory flat in scenario count while
its aggregates match the dense run.

A Monte Carlo amplitude-yield study (mismatch draws on a DC level,
measured at the first sample) runs three ways:

* **streaming, full scale** (``BENCH_STREAM_SCENARIOS``, default
  100k): reducers only, rows dropped after folding;
* **streaming, quarter scale**: same config at ``N/4`` — the
  memory-ceiling witness.  Peak traced memory of the two streaming
  runs must agree within ``FLATNESS_CEILING`` (the peak is chunk-bound,
  not scenario-bound);
* **dense, full scale**: the legacy path, retaining every row — its
  peak must exceed the streaming peak by ``DENSE_RATIO_FLOOR``×, and it
  doubles as the parity reference: count/min/max/yield/histogram agree
  exactly, mean/variance to ``PARITY_RTOL`` relative.

Peak memory comes from ``tracemalloc`` runs, which slow every
allocation; wall-clock throughput comes from separate untraced runs.
The result JSON labels each key ``traced_`` or ``untraced_``.

Gates apply at full scale only (``BENCH_STREAM_SCENARIOS`` shrinks the
sweep for CI smoke legs, where a single chunk covers the whole sweep
and the ratios degenerate).  Headline numbers land in
``benchmarks/results/BENCH_streaming_sweep.json``.
"""

import gc
import os
import time
import tracemalloc

import numpy as np

from repro.reporting import format_table
from repro.signals import Waveform
from repro.sweep import (Count, Histogram, MeanVar, MinMax, Quantiles,
                         ScenarioGrid, SweepAxis, SweepRunner, Yield)

FS = 160e9
N_SCENARIOS = int(os.environ.get("BENCH_STREAM_SCENARIOS", "100000"))
FULL_SCALE = 100000             # the gates only apply at this size
CHUNK_ROWS = 2048
N_SAMPLES = 8

NOMINAL = 0.2                   # V
SIGMA = 0.01                    # V, mismatch draw
PASS_THRESHOLD = 0.185          # V, the yield criterion

FLATNESS_CEILING = 1.5          # peak(N) / peak(N/4) for streaming
DENSE_RATIO_FLOOR = 3.0         # peak(dense) / peak(streaming) at N
PARITY_RTOL = 1e-9              # mean/variance vs dense two-pass

# One compact draw table (allocated before any traced region): the
# axis stays a cheap range of trial indices instead of N boxed floats.
DRAWS = np.random.default_rng(23).standard_normal(N_SCENARIOS)


def stimulus(params):
    level = NOMINAL + SIGMA * DRAWS[params["trial"]]
    return Waveform(np.full(N_SAMPLES, level), FS)


def measure(batch, params_list):
    return [float(value) for value in batch.data[:, 0]]


def make_runner(n_scenarios, reducers=None, keep_results=True):
    grid = ScenarioGrid([SweepAxis("trial", tuple(range(n_scenarios)))])
    return SweepRunner(grid, stimulus=stimulus,
                       measure=measure,
                       chunk_rows=CHUNK_ROWS,
                       reducers=reducers, keep_results=keep_results)


def make_reducers():
    lo, hi = NOMINAL - 5 * SIGMA, NOMINAL + 5 * SIGMA
    return {
        "count": Count(),
        "extrema": MinMax(),
        "level": MeanVar(),
        "hist": Histogram(lo, hi, n_bins=64),
        "quantiles": Quantiles(qs=(0.05, 0.5, 0.95), lo=lo, hi=hi,
                               n_bins=512),
        "yield": Yield(lambda value, params: value > PASS_THRESHOLD),
    }


def traced_run(runner):
    """(result, peak traced bytes) of one sweep.  Memory only: the
    tracer slows every allocation, so its wall time is not a
    throughput."""
    gc.collect()
    tracemalloc.start()
    result = runner.run()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, peak


def timed_run(runner):
    """Untraced wall seconds of one sweep."""
    gc.collect()
    t0 = time.perf_counter()
    runner.run()
    return time.perf_counter() - t0


def test_streaming_memory_ceiling_and_aggregate_parity(save_report,
                                                       save_json):
    quarter = max(CHUNK_ROWS, N_SCENARIOS // 4)
    _, peak_stream_q = traced_run(
        make_runner(quarter, reducers=make_reducers(),
                    keep_results=False))
    stream, peak_stream = traced_run(
        make_runner(N_SCENARIOS, reducers=make_reducers(),
                    keep_results=False))
    dense, peak_dense = traced_run(make_runner(N_SCENARIOS))
    t_stream = timed_run(make_runner(N_SCENARIOS, reducers=make_reducers(),
                                     keep_results=False))
    t_dense = timed_run(make_runner(N_SCENARIOS))

    flatness = peak_stream / peak_stream_q
    dense_ratio = peak_dense / peak_stream
    aggregates = stream.aggregates
    values = np.asarray(dense.results, dtype=float)

    gate_applied = N_SCENARIOS >= FULL_SCALE
    save_report("streaming_sweep_memory", format_table([
        {"run": "streaming N/4", "scenarios": quarter,
         "untraced wall (s)": "n/a",
         "traced peak (MiB)": peak_stream_q / 2**20},
        {"run": "streaming N", "scenarios": N_SCENARIOS,
         "untraced wall (s)": t_stream,
         "traced peak (MiB)": peak_stream / 2**20},
        {"run": "dense N", "scenarios": N_SCENARIOS,
         "untraced wall (s)": t_dense,
         "traced peak (MiB)": peak_dense / 2**20},
    ]))
    save_json("streaming_sweep", {
        "n_scenarios": N_SCENARIOS,
        "chunk_rows": CHUNK_ROWS,
        "traced_peak_streaming_quarter_bytes": peak_stream_q,
        "traced_peak_streaming_full_bytes": peak_stream,
        "traced_peak_dense_full_bytes": peak_dense,
        "streaming_flatness_ratio": flatness,
        "flatness_ceiling": FLATNESS_CEILING,
        "dense_over_streaming_ratio": dense_ratio,
        "dense_ratio_floor": DENSE_RATIO_FLOOR,
        "untraced_t_streaming_full_s": t_stream,
        "untraced_t_dense_full_s": t_dense,
        "untraced_streaming_scenarios_per_s": N_SCENARIOS / t_stream,
        "untraced_dense_scenarios_per_s": N_SCENARIOS / t_dense,
        "yield_fraction": aggregates["yield"].fraction,
        "level_mean": aggregates["level"].mean,
        "level_p50": aggregates["quantiles"][0.5],
        "gate_applied": gate_applied,
    })

    # Parity vs the dense run: exact for the integer-state reducers.
    assert stream.results is None and stream.params is None
    assert aggregates["count"] == values.size
    assert aggregates["extrema"].min == values.min()
    assert aggregates["extrema"].max == values.max()
    assert aggregates["yield"].n_total == values.size
    assert aggregates["yield"].n_pass == int(
        (values > PASS_THRESHOLD).sum())
    dense_hist, _ = np.histogram(
        values[(values >= aggregates["hist"].edges[0])
               & (values <= aggregates["hist"].edges[-1])],
        bins=aggregates["hist"].edges)
    np.testing.assert_array_equal(aggregates["hist"].counts, dense_hist)
    # ... and to floating-point associativity for the moments.
    assert np.isclose(aggregates["level"].mean, values.mean(),
                      rtol=PARITY_RTOL)
    assert np.isclose(aggregates["level"].variance, values.var(),
                      rtol=PARITY_RTOL)

    if gate_applied:
        # The streaming peak is chunk-bound: quadrupling the scenario
        # count must not move it appreciably, while the dense peak
        # (which retains every row's params + result) dwarfs it.
        assert flatness < FLATNESS_CEILING, (
            f"streaming peak grew {flatness:.2f}x from {quarter} to "
            f"{N_SCENARIOS} scenarios (ceiling {FLATNESS_CEILING}x): "
            "supervisor memory is not flat in scenario count"
        )
        assert dense_ratio > DENSE_RATIO_FLOOR, (
            f"dense peak is only {dense_ratio:.2f}x the streaming peak "
            f"(floor {DENSE_RATIO_FLOOR}x): keep_results=False is not "
            "buying the expected memory headroom"
        )
