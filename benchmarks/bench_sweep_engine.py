"""The batched scenario engine vs the serial loop it replaces.

A Monte Carlo sweep of the paper's input interface —
per-die input-referred offsets and drive-strength variation, eye
measured at the limiting-amplifier output — run twice:

* **batched**: ``SweepRunner.run()`` stacks all stimuli into one
  ``WaveformBatch``, pushes it through the receiver in one vectorized
  pass per pipeline stage, and folds/measures all eyes at once;
* **serial**: ``serial_sweep`` (``tests/serial_oracles.py``), the
  equivalent careful hand-written loop — pipeline built once, then one
  simulation and one per-waveform eye measurement per scenario.

Acceptance: the batched path is >= 5x faster wall-clock and every row
matches the serial path to <= 1e-12.

``BENCH_SWEEP_SCENARIOS`` (default 2000) shrinks the scenario count for
CI smoke runs; the speedup floor is only enforced at full scale
(row-exactness always is).
"""

import os
import time

import numpy as np

from conftest import run_once
from repro.analysis import EyeDiagram, measure_eye_batch
from repro.core import build_input_interface
from repro.devices import chain_offset_sigma, sample_offsets
from repro.reporting import format_table
from repro.signals import bits_to_nrz, prbs7
from repro.sweep import ScenarioGrid, SweepAxis, SweepRunner
from serial_oracles import serial_sweep

BIT_RATE = 10e9
N_SCENARIOS = int(os.environ.get("BENCH_SWEEP_SCENARIOS", "2000"))
N_BITS = 48
SAMPLES_PER_BIT = 16
SPEEDUP_FLOOR = 5.0
ROW_MATCH_TOL = 1e-12


def make_runner(n_scenarios, measure):
    """The Monte Carlo sweep: per-die offset and drive-strength draws."""
    rx = build_input_interface()
    la = rx.limiting_amplifier
    sigma = chain_offset_sigma(
        [stage.input_pair for stage in la.stage_chain()],
        [abs(stage.small_signal_tf().dc_gain())
         for stage in la.stage_chain()],
    )
    loop = abs(la.dc_gain()) * la.offset_network.sense_gain
    offsets = sample_offsets(sigma, n_scenarios, seed=7) / (1.0 + loop)
    rng = np.random.default_rng(11)
    scales = 1.0 + 0.05 * rng.standard_normal(n_scenarios)
    base = bits_to_nrz(prbs7(N_BITS), BIT_RATE, amplitude=0.01,
                       samples_per_bit=SAMPLES_PER_BIT)

    grid = ScenarioGrid([
        SweepAxis("die", tuple(zip(offsets, scales))),
    ])

    def stimulus(params):
        offset, scale = params["die"]
        return base * scale + offset

    return SweepRunner(grid, stimulus=stimulus,
                       build=lambda params: rx,
                       measure=measure)


def test_sweep_engine_speedup(save_report):
    runner = make_runner(
        N_SCENARIOS,
        measure=lambda batch, _:
            measure_eye_batch(batch, BIT_RATE, skip_ui=8),
    )
    # Warm the discretization caches so both paths start from the same
    # state (a cold serial run would only look worse).
    make_runner(4, measure=None).run()

    t0 = time.perf_counter()
    batched = runner.run()
    t_batched = time.perf_counter() - t0

    t0 = time.perf_counter()
    serial = serial_sweep(
        runner, measure_row=lambda wave, _:
            EyeDiagram.measure_waveform(wave, BIT_RATE, skip_ui=8))
    t_serial = time.perf_counter() - t0

    speedup = t_serial / t_batched
    heights_b = batched.values(lambda m: m.eye_height)
    heights_s = serial.values(lambda m: m.eye_height)
    yield_open = float(np.mean(heights_b > 0))

    save_report("sweep_engine_speedup", format_table([{
        "scenarios": N_SCENARIOS,
        "serial (s)": t_serial,
        "batched (s)": t_batched,
        "speedup (x)": speedup,
        "open-eye yield (%)": 100 * yield_open,
    }]))

    # Measurements derive from the waveforms; batched and serial paths
    # must agree scenario by scenario.
    np.testing.assert_array_equal(heights_b, heights_s)
    assert all(m_b == m_s for m_b, m_s in zip(batched.results,
                                              serial.results))
    assert yield_open > 0.99
    if N_SCENARIOS >= 2000:
        assert speedup >= SPEEDUP_FLOOR, (
            f"batched sweep only {speedup:.1f}x faster than serial "
            f"(need >= {SPEEDUP_FLOOR}x)"
        )


def test_sweep_engine_rows_match_serial_waveforms(benchmark, save_report):
    """Raw processed waveforms (no measurement) match row-for-row."""
    def run():
        runner = make_runner(200, measure=None)
        batched = runner.run()
        serial = serial_sweep(runner)
        return float(max(
            np.max(np.abs(row_b.data - row_s.data))
            for row_b, row_s in zip(batched.results, serial.results)
        ))

    worst = run_once(benchmark, run)
    save_report("sweep_engine_row_match", format_table([{
        "scenarios": 200,
        "worst |batched - serial| (V)": worst,
    }]))
    assert worst <= ROW_MATCH_TOL
