"""Jitter-tolerance of the receive path: the classic SJ template sweep.

A receiver + CDR must track low-frequency sinusoidal jitter (the loop
follows it) and absorb high-frequency jitter within its eye margin —
producing the standard jitter-tolerance "template": large tolerable SJ
amplitude at low frequency, flattening to a fraction of a UI above the
loop bandwidth.  The paper's LA feeds exactly such a CDR.

The sweep subsystem executes the template as a declarative grid:
(SJ frequency x SJ amplitude) are batchable axes — every point is a
stimulus variation on the same receiver — so the runner stacks all
jittered patterns into one :class:`~repro.signals.WaveformBatch` and
:func:`~repro.sweep.closed_loop_cdr_measure` advances every point's CDR
loop together through the batched CDR kernel (the path ``repro.link``
dispatches): nothing in the sweep is serial any more.  The tolerance at each frequency is the largest amplitude on
the grid with an error-free run (amplitudes above the first failure do
not count, mirroring the bisection this replaces).
"""

import numpy as np

from conftest import run_once
from repro.cdr import CdrConfig
from repro.reporting import format_table
from repro.signals import NrzEncoder, SinusoidalJitter, prbs7
from repro.sweep import (
    ScenarioGrid,
    SweepAxis,
    SweepRunner,
    closed_loop_cdr_measure,
)

BIT_RATE = 10e9
N_BITS = 700

#: Geometric amplitude ladder (UI): the grid replaces the old bisection;
#: resolution is one rung (~1.4x).
AMPLITUDES_UI = (0.01, 0.05, 0.1, 0.15, 0.22, 0.33, 0.5, 0.7, 1.0,
                 1.4, 2.0, 2.8, 4.0)


def make_stimulus(params):
    """A jittered PRBS pattern for one (frequency, amplitude) point."""
    encoder = NrzEncoder(bit_rate=BIT_RATE, samples_per_bit=16,
                         amplitude=0.4)
    bits = prbs7(N_BITS)
    jitter = SinusoidalJitter(
        peak_seconds=params["sj_amplitude_ui"] / BIT_RATE,
        frequency=params["sj_freq"],
    )
    return encoder.encode(bits, edge_offsets=jitter.offsets(N_BITS, BIT_RATE))


def error_free(result, params):
    """Does the recovered decision stream reproduce the pattern?"""
    bits = prbs7(N_BITS)
    decisions = result.decisions
    errors = min(
        int(np.sum(decisions[lag:lag + 500] != bits[:500]))
        for lag in range(0, 4)
    )
    return errors == 0


def tolerance_grid(frequencies, amplitudes=AMPLITUDES_UI):
    """Tolerance (UI) per frequency from one batched closed-loop sweep."""
    grid = ScenarioGrid([
        SweepAxis("sj_freq", tuple(frequencies)),
        SweepAxis("sj_amplitude_ui", tuple(amplitudes)),
    ])
    measure = closed_loop_cdr_measure(
        CdrConfig(bit_rate=BIT_RATE, kp=8e-3, ki=2e-4),
        reduce=error_free,
    )
    result = SweepRunner(grid, stimulus=make_stimulus,
                         measure=measure).run()
    ok = result.values(float)  # (n_freq, n_amp) of 0/1
    tolerances = []
    for row in ok:
        passed = 0.0
        for amplitude, good in zip(amplitudes, row):
            if not good:
                break
            passed = amplitude
        tolerances.append(passed)
    return tolerances


def test_jitter_tolerance_template(benchmark, save_report):
    frequencies = (1e6, 10e6, 100e6, 1e9)

    def sweep():
        tolerances = tolerance_grid(frequencies)
        return [{"SJ freq (MHz)": f / 1e6,
                 "tolerance (UI pp)": 2 * tol}
                for f, tol in zip(frequencies, tolerances)]

    rows = run_once(benchmark, sweep)
    save_report("jitter_tolerance", format_table(rows))
    tolerances = [row["tolerance (UI pp)"] for row in rows]
    # Template shape: low-frequency jitter is tracked (tolerance well
    # above 1 UI), high-frequency tolerance falls to the eye margin.
    assert tolerances[0] > 1.0
    assert tolerances[0] >= tolerances[-1]
    assert tolerances[-1] > 0.1  # the eye itself still absorbs some SJ


def test_cdr_loop_bandwidth_separates_regimes(benchmark, save_report):
    """Tolerance at 1 MHz (slow, tracked) vs 1 GHz (fast, untracked)."""
    def run():
        slow, fast = tolerance_grid((1e6, 1e9))
        return 2 * slow, 2 * fast

    slow, fast = run_once(benchmark, run)
    save_report("jitter_tolerance_regimes", format_table([{
        "SJ @1 MHz tolerated (UI pp)": slow,
        "SJ @1 GHz tolerated (UI pp)": fast,
    }]))
    assert slow > 2.0 * fast