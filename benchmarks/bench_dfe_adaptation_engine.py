"""The batched DFE + adaptation engine vs the serial per-scenario loops.

PR 2 batched the closed-loop CDR; this bench pins the contract for the
last serial layers — receiver-side decision-feedback equalization and
knob adaptation.  A ≥500-scenario yield study (one channel-filtered
PRBS waveform per scenario, each with its own noise draw) is equalized
twice:

* **batched**: one
  :meth:`~repro.baselines.dfe.DecisionFeedbackEqualizer.equalize` call
  on the whole batch solves all N decision-feedback loops together, a
  block of bits per fixed-point solve, with vectorized interpolation
  sampling and per-row decision history;
* **serial**: the scalar reference loop (``SerialDfe`` in
  ``tests/serial_oracles.py``) per scenario, one bit at a time — the
  row-check reference, timed.

Acceptance: the batched path is >= 20x faster wall-clock than the
serial loop at full scale, and every row's decisions and corrected
samples match it exactly.  The report also times
:meth:`~repro.baselines.DecisionFeedbackEqualizer.equalize` per
scenario (each waveform a batch of one through the batched kernel),
without a floor: since the kernel solves a block of bits per
fixed-point sweep, a single row is no longer a bit-serial baseline.

Two further sections exercise the layers above: the sweep subsystem
driving :func:`~repro.sweep.dfe_measure` (batched runner pass vs the
scalar DFE one scenario at a time through ``serial_sweep``, row-equal),
and the batched knob adapters
(:func:`~repro.core.adapt_equalizer` scoring every coarse-grid
candidate in one :func:`~repro.core.eye_quality_metric_batch` pass),
timed against the per-candidate loops ``adapt_equalizer`` /
``adapt_peaking`` in ``tests/serial_oracles.py`` and identical to them.

``BENCH_DFE_SCENARIOS`` shrinks the scenario count for CI smoke runs;
the speedup floor is only enforced at full scale (row-exactness always
is).
"""

import os
import time

import numpy as np

from conftest import run_once
import serial_oracles
from serial_oracles import SerialDfe, serial_sweep
from repro.baselines import DecisionFeedbackEqualizer, dfe_taps_from_channel
from repro.channel import BackplaneChannel
from repro.core import adapt_equalizer, adapt_peaking
from repro.reporting import format_table
from repro.signals import WaveformBatch, bits_to_nrz, prbs7
from repro.sweep import ScenarioGrid, SweepAxis, SweepRunner, dfe_measure

BIT_RATE = 10e9
N_SCENARIOS = int(os.environ.get("BENCH_DFE_SCENARIOS", "500"))
N_BITS = 300
SAMPLES_PER_BIT = 16
SPEEDUP_FLOOR = 20.0

_CHANNEL = BackplaneChannel(0.5)


def make_batch(n_scenarios):
    """One channel-filtered PRBS waveform per scenario, each with its
    own noise draw."""
    received = _CHANNEL.process(
        bits_to_nrz(prbs7(N_BITS), BIT_RATE, amplitude=1.0,
                    samples_per_bit=SAMPLES_PER_BIT))
    return WaveformBatch.with_noise_seeds(
        received, rms_volts=0.01, seeds=list(range(1, n_scenarios + 1)))


def make_dfe(n_taps=3):
    taps = dfe_taps_from_channel(_CHANNEL, BIT_RATE, n_taps=n_taps,
                                 amplitude=1.0)
    return DecisionFeedbackEqualizer(taps=taps, bit_rate=BIT_RATE)


def test_batched_dfe_speedup_and_row_exactness(save_report, save_json):
    batch = make_batch(N_SCENARIOS)
    dfe = make_dfe()

    serial_dfe = SerialDfe(dfe)
    # Warm every path on a slice so first-call overheads cancel.
    dfe.equalize(batch[:2])
    dfe.equalize(batch[0])
    serial_dfe.equalize(batch[0])

    t0 = time.perf_counter()
    decisions, corrected = dfe.equalize(batch)
    t_batched = time.perf_counter() - t0

    t0 = time.perf_counter()
    reference = [serial_dfe.equalize(row) for row in batch.rows()]
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    for row in batch.rows():
        dfe.equalize(row)
    t_per_row = time.perf_counter() - t0

    speedup = t_serial / t_batched
    heights = dfe.inner_eye_height(batch)
    save_report("dfe_adaptation_engine_speedup", format_table([{
        "scenarios": N_SCENARIOS,
        "bits/scenario": N_BITS,
        "taps": len(dfe.taps),
        "serial (s)": t_serial,
        "per-row kernel (s)": t_per_row,
        "batched (s)": t_batched,
        "speedup (x)": speedup,
        "open inner eyes (%)": 100 * float(np.mean(heights > 0)),
    }]))
    row_exact = all(
        np.array_equal(decisions[i], ref_decisions)
        and np.array_equal(corrected[i], ref_corrected)
        for i, (ref_decisions, ref_corrected) in enumerate(reference)
    )
    save_json("dfe_adaptation_engine", {
        "scenarios": N_SCENARIOS,
        "bits_per_scenario": N_BITS,
        "taps": len(dfe.taps),
        "serial_s": t_serial,
        "per_row_kernel_s": t_per_row,
        "batched_s": t_batched,
        "speedup_x": speedup,
        "row_exact": row_exact,
        "open_inner_eye_fraction": float(np.mean(heights > 0)),
        "speedup_floor_enforced": N_SCENARIOS >= 500,
    })

    for i, (ref_decisions, ref_corrected) in enumerate(reference):
        np.testing.assert_array_equal(decisions[i], ref_decisions,
                                      err_msg=f"decisions differ, row {i}")
        np.testing.assert_array_equal(corrected[i], ref_corrected,
                                      err_msg=f"corrected differ, row {i}")
    assert float(np.mean(heights > 0)) > 0.95
    # Row-exactness is always enforced; the wall-clock gate only at
    # full scale (smoke runs time tens of milliseconds, where a CI
    # scheduler hiccup would make the ratio meaningless).
    if N_SCENARIOS >= 500:
        assert speedup >= SPEEDUP_FLOOR, (
            f"batched DFE only {speedup:.1f}x faster than serial "
            f"(need >= {SPEEDUP_FLOOR}x)"
        )


def test_dfe_yield_sweep_batched_matches_serial(benchmark, save_report):
    """The sweep subsystem driving the batched DFE kernel: inner-eye
    yield grid."""
    n_seeds = max(4, N_SCENARIOS // 25)
    received = _CHANNEL.process(
        bits_to_nrz(prbs7(N_BITS), BIT_RATE, amplitude=1.0,
                    samples_per_bit=SAMPLES_PER_BIT))
    grid = ScenarioGrid([
        SweepAxis("noise_rms", (0.005, 0.02)),
        SweepAxis("seed", tuple(range(1, n_seeds + 1))),
    ])

    def stimulus(params):
        rng = np.random.default_rng(params["seed"])
        noise = rng.normal(0.0, params["noise_rms"], size=len(received))
        return received.with_data(received.data + noise)

    dfe = make_dfe()
    runner = SweepRunner(grid, stimulus=stimulus, measure=dfe_measure(dfe))

    def sweep():
        batched = runner.run()
        serial = serial_sweep(
            runner, measure_row=lambda wave, _:
                SerialDfe(dfe).inner_eye_height(wave, skip_bits=16))
        assert batched.results == serial.results
        return batched.values(float)

    heights = run_once(benchmark, sweep)
    save_report("dfe_yield_sweep", format_table([
        {
            "noise rms (mV)": 1e3 * rms,
            "scenarios": n_seeds,
            "open inner eyes (%)":
                100 * float(np.mean(heights[i] > 0)),
            "median height (mV)":
                1e3 * float(np.median(heights[i])),
        }
        for i, rms in enumerate(grid.axes[0].values)
    ]))
    # Low noise keeps every inner eye open; heavier noise cannot
    # widen it.
    assert np.all(heights[0] > 0)
    assert float(np.median(heights[1])) <= float(np.median(heights[0]))


def test_batched_adaptation_matches_serial(benchmark, save_report):
    """Batched knob adaptation: one metric pass per candidate grid,
    identical search trace to the per-candidate reference."""

    def adapt():
        rows = []
        for label, adapter, reference, channel in (
                ("equalizer V1 (V)", adapt_equalizer,
                 serial_oracles.adapt_equalizer, BackplaneChannel(0.4)),
                ("peaking current (A)", adapt_peaking,
                 serial_oracles.adapt_peaking, BackplaneChannel(0.5)),
        ):
            t0 = time.perf_counter()
            batched = adapter(channel, n_refine=3)
            t_batched = time.perf_counter() - t0
            t0 = time.perf_counter()
            serial = reference(channel, n_refine=3)
            t_serial = time.perf_counter() - t0
            assert batched == serial, f"{label}: batched != serial"
            rows.append({
                "knob": label,
                "optimum": batched.best_setting,
                "score": batched.best_score,
                "evaluations": batched.evaluations,
                "serial (s)": t_serial,
                "batched (s)": t_batched,
            })
        return rows

    rows = run_once(benchmark, adapt)
    save_report("batched_adaptation", format_table(rows))
    assert rows[0]["optimum"] < 0.75   # lossy channel wants boost
    assert rows[1]["optimum"] > 0.4e-3  # and nonzero peaking
