"""DFE baseline."""

import numpy as np
import pytest

from repro.baselines import (
    DecisionFeedbackEqualizer,
    dfe_taps_from_channel,
    inner_eye_height_from_corrected,
)
from repro.channel import BackplaneChannel
from repro.signals import Waveform, WaveformBatch, add_awgn, bits_to_nrz, \
    prbs7
from serial_oracles import SerialDfe

BIT_RATE = 10e9


# -- DFE -----------------------------------------------------------------

def test_dfe_taps_match_postcursors():
    channel = BackplaneChannel(0.5)
    taps = dfe_taps_from_channel(channel, BIT_RATE, n_taps=2,
                                 amplitude=1.0)
    from repro.analysis import pulse_response

    pulse = pulse_response(channel, BIT_RATE, samples_per_bit=16,
                           amplitude=1.0)
    np.testing.assert_allclose(taps, pulse.postcursors()[:2] / 2.0)
    assert taps[0] > 0  # lossy channel: positive first post-cursor


def test_dfe_opens_inner_eye():
    channel = BackplaneChannel(0.6)
    wave = bits_to_nrz(prbs7(300), BIT_RATE, amplitude=1.0,
                       samples_per_bit=16)
    received = channel.process(wave)
    taps = dfe_taps_from_channel(channel, BIT_RATE, n_taps=3,
                                 amplitude=1.0)
    dfe = DecisionFeedbackEqualizer(taps=taps, bit_rate=BIT_RATE,
                                    decision_amplitude=1.0)
    no_dfe = DecisionFeedbackEqualizer(taps=[0.0], bit_rate=BIT_RATE,
                                       decision_amplitude=1.0)
    assert dfe.inner_eye_height(received) \
        > no_dfe.inner_eye_height(received) + 0.05


def test_dfe_decisions_correct_on_lossy_channel():
    channel = BackplaneChannel(0.5)
    bits = prbs7(300)
    wave = bits_to_nrz(bits, BIT_RATE, amplitude=1.0, samples_per_bit=16)
    received = channel.process(wave)
    taps = dfe_taps_from_channel(channel, BIT_RATE, n_taps=2,
                                 amplitude=1.0)
    dfe = DecisionFeedbackEqualizer(taps=taps, bit_rate=BIT_RATE)
    decisions, _ = dfe.equalize(received)
    errors = min(int(np.sum(decisions[lag:lag + 250] != bits[:250]))
                 for lag in range(3))
    assert errors == 0


def test_dfe_validation():
    with pytest.raises(ValueError):
        DecisionFeedbackEqualizer(taps=[], bit_rate=BIT_RATE)
    with pytest.raises(ValueError):
        DecisionFeedbackEqualizer(taps=[0.1], bit_rate=0.0)
    with pytest.raises(ValueError):
        DecisionFeedbackEqualizer(taps=[0.1], bit_rate=BIT_RATE,
                                  sample_phase_ui=1.5)
    with pytest.raises(ValueError):
        dfe_taps_from_channel(BackplaneChannel(0.5), BIT_RATE, n_taps=0)
    short = bits_to_nrz(prbs7(5), BIT_RATE, samples_per_bit=16)
    with pytest.raises(ValueError):
        DecisionFeedbackEqualizer(taps=[0.1] * 4,
                                  bit_rate=BIT_RATE).equalize(short)


def test_dfe_exact_length_waveform_keeps_last_bit():
    """Regression: ``int((len - 1) / ui_samples)`` silently dropped the
    final UI when the waveform ends exactly on a bit boundary."""
    n_bits = 40
    wave = bits_to_nrz(prbs7(n_bits), BIT_RATE, samples_per_bit=16)
    assert len(wave) == n_bits * 16  # ends exactly on a bit boundary
    dfe = DecisionFeedbackEqualizer(taps=[0.05], bit_rate=BIT_RATE)
    decisions, corrected = dfe.equalize(wave)
    assert len(decisions) == n_bits
    assert len(corrected) == n_bits
    # One trailing sample puts the next UI's sampling instant past the
    # grid: still n_bits decisions, no extrapolated extra bit.
    longer = Waveform(np.concatenate([wave.data, wave.data[-1:]]),
                      wave.sample_rate)
    decisions, _ = dfe.equalize(longer)
    assert len(decisions) == n_bits


def test_dfe_last_sample_interpolation_is_clamped():
    # The final decision instant landing EXACTLY on the last sample is
    # decidable: the interpolation must clamp to the end of the grid,
    # not read past it.
    full = bits_to_nrz(prbs7(24), BIT_RATE, samples_per_bit=16)
    wave = Waveform(full.data[:23 * 16 + 9], full.sample_rate)
    dfe = DecisionFeedbackEqualizer(taps=[0.02], bit_rate=BIT_RATE)
    decisions, corrected = dfe.equalize(wave)
    # Instant of bit 23 is (23 + 0.5) * 16 = 376 = len(wave) - 1.
    assert len(decisions) == 24
    assert np.all(np.isfinite(corrected))
    # A phase pushing that instant past the grid drops back to 23 bits.
    late = DecisionFeedbackEqualizer(taps=[0.02], bit_rate=BIT_RATE,
                                     sample_phase_ui=0.6)
    assert len(late.equalize(wave)[0]) == 23


def test_dfe_equalize_batch_rows_match_serial_on_channel():
    channel = BackplaneChannel(0.5)
    received = channel.process(
        bits_to_nrz(prbs7(120), BIT_RATE, amplitude=1.0,
                    samples_per_bit=16))
    batch = WaveformBatch.stack([add_awgn(received, 0.02, seed=s)
                                 for s in range(1, 7)])
    for n_taps in (1, 2, 3):
        taps = dfe_taps_from_channel(channel, BIT_RATE, n_taps=n_taps,
                                     amplitude=1.0)
        dfe = DecisionFeedbackEqualizer(taps=taps, bit_rate=BIT_RATE)
        decisions, corrected = dfe.equalize(batch)
        assert decisions.shape == corrected.shape \
            == (batch.n_scenarios, 120)
        for i, row in enumerate(batch.rows()):
            ref_decisions, ref_corrected = SerialDfe(dfe).equalize(row)
            np.testing.assert_array_equal(decisions[i], ref_decisions)
            np.testing.assert_array_equal(corrected[i], ref_corrected)


def test_dfe_inner_eye_height_batch_matches_serial():
    channel = BackplaneChannel(0.6)
    received = channel.process(
        bits_to_nrz(prbs7(150), BIT_RATE, amplitude=1.0,
                    samples_per_bit=16))
    taps = dfe_taps_from_channel(channel, BIT_RATE, n_taps=3,
                                 amplitude=1.0)
    dfe = DecisionFeedbackEqualizer(taps=taps, bit_rate=BIT_RATE)
    batch = WaveformBatch.stack([add_awgn(received, 0.01, seed=s)
                                 for s in range(1, 5)])
    heights = dfe.inner_eye_height(batch)
    for i, row in enumerate(batch.rows()):
        assert heights[i] == SerialDfe(dfe).inner_eye_height(row)


def test_inner_eye_height_from_corrected_degenerate_rows():
    corrected = np.vstack([np.linspace(-1, 1, 40),    # both polarities
                           np.full(40, 0.5),          # ones only
                           np.full(40, -0.5)])        # zeros only
    heights = inner_eye_height_from_corrected(corrected, skip_bits=4)
    assert np.isfinite(heights[0])
    assert heights[1] == -float("inf")
    assert heights[2] == -float("inf")
    assert inner_eye_height_from_corrected(corrected[0], skip_bits=4) \
        == heights[0]


def test_inner_eye_height_all_bits_skipped_reports_no_eye():
    # skip_bits >= n_bits: nothing left to measure -> -inf, not a crash.
    wave = bits_to_nrz(prbs7(10), BIT_RATE, samples_per_bit=16)
    dfe = DecisionFeedbackEqualizer(taps=[0.05], bit_rate=BIT_RATE)
    assert dfe.inner_eye_height(wave, skip_bits=16) == -float("inf")
    batch = WaveformBatch.stack([wave, wave])
    np.testing.assert_array_equal(
        dfe.inner_eye_height(batch, skip_bits=16),
        [-float("inf")] * 2)
