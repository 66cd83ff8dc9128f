"""Extension benches: RLGC physics consistency, crosstalk budget,
eye-mask compliance, CTLE response parity, channel-length sweeps.

These go beyond the paper's own figures to the system questions its
introduction raises (switch fabrics route many lanes over real FR-4):
is the parametric channel consistent with telegrapher-equation physics,
how much coupling can a lane tolerate, and does the receiver present a
compliant eye to the CDR.

The scenario scans run on the sweep subsystem: coupling and trace
length are structural axes (the channel is rebuilt per point) while the
receiver dynamic-range scan batches all amplitudes through one pipeline
as a single :class:`~repro.signals.WaveformBatch` pass.
"""

import numpy as np
import pytest

from conftest import run_once
from repro.analysis import EyeDiagram, EyeMask, check_mask, \
    measure_eye_batch
from repro.baselines import ctle_matching_equalizer
from repro.channel import (
    BackplaneChannel,
    CrosstalkAggressor,
    CrosstalkChannel,
    microstrip_like,
)
from repro.core import build_input_interface
from repro.reporting import format_table
from repro.signals import bits_to_nrz, prbs7
from repro.sweep import ScenarioGrid, SweepAxis, SweepRunner

BIT_RATE = 10e9


def test_rlgc_vs_parametric_consistency(benchmark, save_report):
    """The empirical skin+dielectric model tracks first-principles RLGC."""
    def run():
        line = microstrip_like(length=0.5)
        params = line.equivalent_parameters()
        channel = BackplaneChannel(0.5, params=params)
        freqs = np.array([1e9, 2.5e9, 5e9, 7.5e9, 10e9])
        return [{
            "f (GHz)": f / 1e9,
            "RLGC loss (dB)": float(line.loss_db(np.array([f]))[0]),
            "parametric fit (dB)": float(channel.loss_db(
                np.array([f]))[0]),
        } for f in freqs]

    rows = run_once(benchmark, run)
    save_report("ext_rlgc_consistency", format_table(rows))
    for row in rows:
        assert row["parametric fit (dB)"] == pytest.approx(
            row["RLGC loss (dB)"], rel=0.3, abs=1.0
        )


def test_crosstalk_budget(benchmark, save_report):
    """Eye height vs aggressor coupling: the lane-spacing budget.

    Coupling is a structural axis (the crosstalk channel is rebuilt per
    point); the victim stimulus is shared.
    """
    def run():
        victim = bits_to_nrz(prbs7(260), BIT_RATE, amplitude=0.25,
                             samples_per_bit=16)
        aggressor = bits_to_nrz(prbs7(260, seed=5), BIT_RATE,
                                amplitude=0.25, samples_per_bit=16)
        channels = {}

        def build(params):
            channel = CrosstalkChannel(
                channel=BackplaneChannel(0.3),
                aggressors=[CrosstalkAggressor(
                    signal=aggressor,
                    coupling_db=params["coupling_db"])],
            )
            channels[params["coupling_db"]] = channel
            return channel

        grid = ScenarioGrid([
            SweepAxis("coupling_db", (40.0, 26.0, 18.0, 12.0),
                      structural=True),
        ])
        result = SweepRunner(
            grid, stimulus=lambda params: victim, build=build,
            measure=lambda batch, _:
                measure_eye_batch(batch, BIT_RATE, skip_ui=16),
        ).run()
        return [{
            "coupling (dB)": params["coupling_db"],
            "interference rms (mV)":
                channels[params["coupling_db"]].interference_rms() * 1e3,
            "eye height (mV)": m.eye_height * 1e3,
        } for params, m in zip(result.params, result.results)]

    rows = run_once(benchmark, run)
    save_report("ext_crosstalk_budget", format_table(rows))
    heights = [row["eye height (mV)"] for row in rows]
    assert heights == sorted(heights, reverse=True)  # more coupling, worse


def test_receiver_mask_compliance(benchmark, save_report):
    """The input interface's output meets a CDR-style eye mask over its
    whole dynamic range.

    Amplitude is a batchable axis: all three drive levels ride through
    the receiver as one WaveformBatch pass.
    """
    def run():
        rx = build_input_interface()
        mask = EyeMask(x1=0.3, x2=0.45, y1=0.1, y2=0.6)
        grid = ScenarioGrid([SweepAxis("vpp", (0.004, 0.1, 1.8))])
        result = SweepRunner(
            grid,
            stimulus=lambda params: bits_to_nrz(
                prbs7(260), BIT_RATE, amplitude=params["vpp"],
                samples_per_bit=16),
            build=lambda params: rx,
            measure=lambda batch, _: [
                check_mask(wave, BIT_RATE, mask, skip_ui=16)
                for wave in batch.rows()],
        ).run()
        return [{
            "input (Vpp)": params["vpp"],
            "passes": mask_result.passes,
            "margin (x)": mask_result.margin,
        } for params, mask_result in zip(result.params, result.results)]

    rows = run_once(benchmark, run)
    save_report("ext_mask_compliance", format_table(rows))
    assert all(row["passes"] for row in rows)
    assert all(row["margin (x)"] > 1.2 for row in rows)


def test_channel_length_budget(benchmark, save_report):
    """Unequalized eye height vs trace length: the reach budget the
    paper's equalizer exists to extend.

    Length is a structural axis; the runner rebuilds the channel per
    point and reports a batched eye measurement per scenario.
    """
    def run():
        stimulus = bits_to_nrz(prbs7(260), BIT_RATE, amplitude=0.25,
                               samples_per_bit=16)
        grid = ScenarioGrid([
            SweepAxis("length_m", (0.1, 0.25, 0.4, 0.55), structural=True),
        ])
        result = SweepRunner(
            grid,
            stimulus=lambda params: stimulus,
            build=lambda params: BackplaneChannel(params["length_m"]),
            measure=lambda batch, _:
                measure_eye_batch(batch, BIT_RATE, skip_ui=16),
        ).run()
        return [{
            "length (m)": params["length_m"],
            "Nyquist loss (dB)": BackplaneChannel(
                params["length_m"]).nyquist_loss_db(BIT_RATE),
            "eye height (mV)": m.eye_height * 1e3,
        } for params, m in zip(result.params, result.results)]

    rows = run_once(benchmark, run)
    save_report("ext_channel_length_budget", format_table(rows))
    heights = [row["eye height (mV)"] for row in rows]
    # Monotone closure with reach; the longest trace should have lost
    # most of the launch swing.
    assert heights == sorted(heights, reverse=True)
    assert heights[-1] < 0.5 * heights[0]


def test_ctle_parity(benchmark, save_report):
    """The Cherry-Hooper equalizer covers the canonical CTLE response
    family (and adds the gain the plain CTLE gives up)."""
    def run():
        rx = build_input_interface(equalizer_control_voltage=0.6)
        equalizer = rx.equalizer
        ctle = ctle_matching_equalizer(equalizer)
        freqs = np.logspace(8, 10, 9)
        return [{
            "f (GHz)": float(f) / 1e9,
            "Cherry-Hooper (dB)": float(equalizer.gain_db(
                np.array([f]))[0]),
            "generic CTLE (dB)": float(
                ctle.transfer_function().magnitude_db(np.array([f]))[0]
            ),
        } for f in freqs]

    rows = run_once(benchmark, run)
    save_report("ext_ctle_parity", format_table(rows))
    # Boost-region parity within a few dB.
    mid = [row for row in rows if 2.0 <= row["f (GHz)"] <= 6.0]
    for row in mid:
        assert row["Cherry-Hooper (dB)"] == pytest.approx(
            row["generic CTLE (dB)"], abs=4.0
        )
