"""The statistical-eye perf contract, measured: a compliance-grade BER
estimate (1e-12) must come out >= ``SPEEDUP_FLOOR``x faster than
pattern simulation could produce it, on a flat memory budget.

``BENCH_STATEYE_SCENARIOS`` (default 200) pulse responses — one
backplane drive-amplitude scenario each — run through
:meth:`StatEye.analyze_batch` three ways:

* **full scale, chunked, surfaces dropped**: the flat-memory sweep
  mode; its untraced wall clock sets the per-scenario statistical
  cost (a separate run from the traced one, whose ``tracemalloc``
  overhead would inflate it), and the result JSON labels each key
  ``traced_`` (memory) or ``untraced_`` (time);
* **quarter scale, same chunking**: the memory-ceiling witness — peak
  traced memory must stay within ``FLATNESS_CEILING`` of full scale
  (the working set is chunk-bound, not scenario-bound);
* **full scale, unchunked with surfaces**: the parity reference — the
  chunked summaries must match it.

The pattern-simulation cost of the same 1e-12 estimate is measured, not
assumed: the time-domain path is timed on a short pattern, its
throughput extrapolated to the ``10 / BER`` symbols an error-counting
estimate needs.  A cross-accuracy spot check (statistical vs
time-domain BER within half a decade in the regime both can reach)
guards against winning the race with wrong numbers.  That projection
is recorded with ``speedup_vs_pattern_kind: "projection"``: it is
extrapolated, not measured.

The interactive query is measured too: the untraced per-call wall time
of :meth:`LinkSession.statistical_eye` on the chain the repository
benchmark runs (``perfbench/workloads.py``), as the median of
``FACADE_RUNS`` calls.  Gates apply at full scale only; headline
numbers land in ``benchmarks/results/BENCH_stateye.json``.
"""

import gc
import os
import time
import tracemalloc

import numpy as np

from repro import CdrConfig, ChannelConfig, DfeConfig, LinkSession, RxConfig
from repro.analysis.ber import ber_from_eye
from repro.analysis.isi import pulse_response, pulse_response_batch
from repro.channel.backplane import BackplaneChannel
from repro.reporting import format_table
from repro.signals import add_awgn, bits_to_nrz, prbs15
from repro.stateye import StatEye

BIT_RATE = 10e9
N_SCENARIOS = int(os.environ.get("BENCH_STATEYE_SCENARIOS", "200"))
FULL_SCALE = 200                # the gates only apply at this size
CHUNK_SCENARIOS = 16
CHANNEL_M = 0.3
NOISE_RMS = 0.035

TARGET_BER = 1e-12
ERRORS_FOR_ESTIMATE = 10        # error-counting needs ~10/BER symbols
PATTERN_SYMBOLS = 4000          # timed pattern length (then extrapolated)

FACADE_RUNS = 11               # median of these untraced calls
FACADE_AMPLITUDE = 0.25        # V, the benchmark chain's launch swing
FACADE_NOISE_RMS = 7e-3
FACADE_RJ_RMS_UI = 0.0125

SPEEDUP_FLOOR = 100.0
FLATNESS_CEILING = 1.5
CROSS_CHECK_DECADES = 0.5


def make_pulses(n):
    amplitudes = np.linspace(0.25, 0.65, n)
    return pulse_response_batch(BackplaneChannel(CHANNEL_M), BIT_RATE,
                                amplitudes)


def traced(fn):
    """(result, peak traced bytes).  Memory only: the tracer slows
    every allocation, so its wall time is not a throughput."""
    gc.collect()
    tracemalloc.start()
    result = fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, peak


def timed(fn):
    """Untraced wall seconds of one call."""
    gc.collect()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def time_pattern_simulation():
    """Seconds per simulated symbol of the time-domain BER path."""
    channel = BackplaneChannel(CHANNEL_M)
    bits = prbs15(PATTERN_SYMBOLS, seed=2)
    t0 = time.perf_counter()
    wave = channel.process(bits_to_nrz(bits, BIT_RATE, amplitude=0.4,
                                       samples_per_bit=32))
    ber_from_eye(add_awgn(wave, NOISE_RMS, seed=7), BIT_RATE)
    return (time.perf_counter() - t0) / PATTERN_SYMBOLS


def time_facade_call():
    """Median untraced seconds of one ``LinkSession.statistical_eye``
    query (pulse extraction + engine) on the benchmark chain."""
    session = LinkSession.from_configs(
        channel=ChannelConfig(0.3),
        rx=RxConfig(equalizer_control_voltage=0.6),
        cdr=CdrConfig(bit_rate=BIT_RATE),
        dfe=DfeConfig(taps=(0.05, 0.02), decision_amplitude=0.2))

    def query():
        session.statistical_eye(noise_rms=FACADE_NOISE_RMS,
                                rj_rms_ui=FACADE_RJ_RMS_UI,
                                amplitude=FACADE_AMPLITUDE)

    query()  # warm the chain's caches
    return float(np.median([timed(query) for _ in range(FACADE_RUNS)]))


def test_stateye_speedup_memory_and_parity(save_report, save_json):
    engine = StatEye(noise_rms=NOISE_RMS)
    pulses = make_pulses(N_SCENARIOS)
    quarter = pulses[: max(CHUNK_SCENARIOS, N_SCENARIOS // 4)]

    _, peak_quarter = traced(
        lambda: engine.analyze_batch(quarter,
                                     chunk_scenarios=CHUNK_SCENARIOS,
                                     keep_surfaces=False))
    slim, peak_full = traced(
        lambda: engine.analyze_batch(pulses,
                                     chunk_scenarios=CHUNK_SCENARIOS,
                                     keep_surfaces=False))
    t_stat = timed(
        lambda: engine.analyze_batch(pulses,
                                     chunk_scenarios=CHUNK_SCENARIOS,
                                     keep_surfaces=False))
    dense = engine.analyze_batch(pulses)

    # Chunked flat-memory summaries == the unchunked reference.
    np.testing.assert_allclose(slim.min_bers, dense.min_bers, atol=1e-15)
    np.testing.assert_allclose(slim.bathtubs, dense.bathtubs, atol=1e-12)
    np.testing.assert_allclose(slim.eye_heights, dense.eye_heights,
                               atol=1e-9)
    np.testing.assert_array_equal(slim.eye_widths_ui, dense.eye_widths_ui)
    assert slim.surfaces is None

    # Measured pattern-sim throughput, extrapolated to what an
    # error-counting 1e-12 estimate costs per scenario.
    t_per_symbol = time_pattern_simulation()
    symbols_needed = ERRORS_FOR_ESTIMATE / TARGET_BER
    t_pattern_projected = t_per_symbol * symbols_needed
    t_stat_per_scenario = t_stat / N_SCENARIOS
    speedup = t_pattern_projected / t_stat_per_scenario
    flatness = peak_full / peak_quarter

    # Accuracy spot check: the speed must not come from wrong numbers.
    channel = BackplaneChannel(CHANNEL_M)
    stat_ber = engine.analyze(
        pulse_response(channel, BIT_RATE, amplitude=0.4)).ber
    wave = channel.process(bits_to_nrz(prbs15(4000, seed=2), BIT_RATE,
                                       amplitude=0.4, samples_per_bit=32))
    td_ber = ber_from_eye(add_awgn(wave, NOISE_RMS, seed=7), BIT_RATE)
    decades = abs(float(np.log10(stat_ber) - np.log10(td_ber)))

    t_facade = time_facade_call()

    gate_applied = N_SCENARIOS >= FULL_SCALE
    save_report("stateye_engine", format_table([
        {"run": "stat quarter (chunked)", "scenarios": len(quarter),
         "untraced wall (s)": "n/a",
         "traced peak (MiB)": peak_quarter / 2**20},
        {"run": "stat full (chunked)", "scenarios": N_SCENARIOS,
         "untraced wall (s)": t_stat,
         "traced peak (MiB)": peak_full / 2**20},
        {"run": "pattern sim to 1e-12 (projected)", "scenarios": 1,
         "untraced wall (s)": t_pattern_projected,
         "traced peak (MiB)": "n/a"},
        {"run": "statistical_eye query (median)", "scenarios": 1,
         "untraced wall (s)": t_facade, "traced peak (MiB)": "n/a"},
    ]))
    save_json("stateye", {
        "n_scenarios": N_SCENARIOS,
        "chunk_scenarios": CHUNK_SCENARIOS,
        "channel_m": CHANNEL_M,
        "noise_rms": NOISE_RMS,
        "target_ber": TARGET_BER,
        "untraced_t_stat_full_s": t_stat,
        "untraced_t_stat_per_scenario_s": t_stat_per_scenario,
        "untraced_stat_scenarios_per_s": N_SCENARIOS / t_stat,
        "t_pattern_per_symbol_s": t_per_symbol,
        "t_pattern_projected_s": t_pattern_projected,
        "speedup_vs_pattern": speedup,
        "speedup_vs_pattern_kind": "projection",
        "untraced_facade_ms_per_call_median": 1e3 * t_facade,
        "facade_runs": FACADE_RUNS,
        "speedup_floor": SPEEDUP_FLOOR,
        "traced_peak_quarter_bytes": peak_quarter,
        "traced_peak_full_bytes": peak_full,
        "memory_flatness_ratio": flatness,
        "flatness_ceiling": FLATNESS_CEILING,
        "stat_ber": stat_ber,
        "time_domain_ber": td_ber,
        "cross_check_decades": decades,
        "cross_check_limit": CROSS_CHECK_DECADES,
        "gate_applied": gate_applied,
    })

    assert decades <= CROSS_CHECK_DECADES
    if gate_applied:
        assert speedup >= SPEEDUP_FLOOR, (
            f"statistical path is only {speedup:.0f}x faster than "
            f"projected pattern simulation (floor {SPEEDUP_FLOOR}x)"
        )
        assert flatness <= FLATNESS_CEILING, (
            f"peak memory grew {flatness:.2f}x from quarter to full "
            f"scale (ceiling {FLATNESS_CEILING}) — the chunked path "
            f"is not flat"
        )
