"""Monte Carlo mismatch yield — the quantitative case for Fig 8.

The paper: "the offset voltages contributed from device and layout
mismatches can become a problem after three stages of amplification that
make the output signal saturation and duty-cycle distortion."

This bench samples Pelgrom-law input offsets for the limiting
amplifier's actual device sizes and computes the yield against an
"output not saturated by offset" criterion, with and without the
cancellation loop: the loop takes the design from coin-flip yield to
effectively 100 %.

The scan runs on the sweep subsystem: the 2000 mismatch draws are one
batchable :class:`~repro.sweep.ScenarioGrid` axis and the loop state a
structural axis, so each loop setting is a single
:class:`~repro.signals.WaveformBatch` pass through the amplifier's
small-signal dynamics (one vectorized ``lfilter`` call per pole pair
instead of 2000 per-die simulations).
"""

import numpy as np

from conftest import run_once
from repro.core import build_input_interface
from repro.devices import chain_offset_sigma, pair_offset_sigma, \
    sample_offsets
from repro.lti import LinearBlock
from repro.reporting import format_table
from repro.signals import Waveform
from repro.sweep import ScenarioGrid, SweepAxis, SweepRunner

N_SAMPLES = 2000
#: Enough samples for the steady-state-initialized filters to report the
#: settled DC level on every row.
N_DC_SAMPLES = 32
SAMPLE_RATE = 160e9


def run_experiment():
    la = build_input_interface().limiting_amplifier
    pairs = [stage.input_pair for stage in la.stage_chain()]
    gains = [abs(stage.small_signal_tf().dc_gain())
             for stage in la.stage_chain()]
    sigma_in = chain_offset_sigma(pairs, gains)
    offsets = sample_offsets(sigma_in, N_SAMPLES, seed=42)

    gain = abs(la.dc_gain())
    swing = la.output_swing
    # Failure criterion: offset eats more than half the output swing
    # (beyond that the smaller eye level approaches the rail and DCD
    # explodes).
    threshold = 0.5 * swing
    loop = gain * la.offset_network.sense_gain

    # Each die is a DC stimulus at its input-referred offset; the
    # amplifier's linear dynamics (the saturation criterion is about
    # where the *linear* output wants to go) map it to the settled
    # output level.  The offset loop divides the input by (1 + T).
    grid = ScenarioGrid([
        SweepAxis("loop_closed", (False, True), structural=True),
        SweepAxis("offset", tuple(offsets)),
    ])

    def stimulus(params):
        level = params["offset"]
        if params["loop_closed"]:
            level = level / (1.0 + loop)
        return Waveform(np.full(N_DC_SAMPLES, level), SAMPLE_RATE)

    def build(params):
        # One stage chain's small-signal dynamics per structural point;
        # steady-state initialization makes every sample the DC answer.
        return LinearBlock(la.small_signal_tf().scaled(1.0))

    runner = SweepRunner(
        grid, stimulus=stimulus, build=build,
        measure=lambda batch, _: np.abs(batch.data[:, -1]).tolist(),
    )
    result = runner.run()
    out_levels = result.values(lambda v: v)  # shape (2, N_SAMPLES)
    uncancelled_out, cancelled_out = out_levels

    yield_without = float(np.mean(uncancelled_out < threshold))
    yield_with = float(np.mean(cancelled_out < threshold))
    return sigma_in, yield_without, yield_with, pairs, \
        uncancelled_out, gain, offsets


def test_montecarlo_offset_yield(benchmark, save_report):
    (sigma_in, yield_without, yield_with, pairs,
     uncancelled_out, gain, offsets) = run_once(benchmark, run_experiment)
    save_report("montecarlo_offset_yield", format_table([{
        "input-referred sigma (mV)": sigma_in * 1e3,
        "samples": N_SAMPLES,
        "yield w/o offset loop (%)": 100 * yield_without,
        "yield with offset loop (%)": 100 * yield_with,
    }]))
    # The batched DC sweep must agree with the analytic |offset| * gain
    # (the order-13 direct-form filter holds DC to ~1e-7 relative).
    np.testing.assert_allclose(uncancelled_out, np.abs(offsets) * gain,
                               rtol=1e-6)
    # The paper's motivation, quantified: without the loop a large
    # fraction of dies saturate; with it essentially all pass.
    assert sigma_in > 0.5e-3          # mismatch is mV-scale
    assert yield_without < 0.60       # the "problem"
    assert yield_with > 0.999         # the fix


def test_front_stage_dominates_offset(benchmark, save_report):
    def run():
        la = build_input_interface().limiting_amplifier
        rows = []
        gain_product = 1.0
        for stage in la.stage_chain():
            sigma = pair_offset_sigma(stage.input_pair)
            rows.append({
                "stage": stage.name,
                "own sigma (mV)": sigma * 1e3,
                "input-referred (mV)": sigma / gain_product * 1e3,
            })
            gain_product *= abs(stage.small_signal_tf().dc_gain())
        return rows

    rows = run_once(benchmark, run)
    save_report("montecarlo_stage_contributions", format_table(rows))
    referred = [row["input-referred (mV)"] for row in rows]
    # Monotone decay: each later stage matters less at the input.
    assert all(a >= b * 0.99 for a, b in zip(referred, referred[1:]))
    assert referred[0] > 3 * referred[2]
