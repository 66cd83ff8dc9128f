"""Process corners, DFE baseline, AC coupling, spectrum estimation."""

import math

import numpy as np
import pytest

from repro.analysis import (
    band_power,
    power_spectral_density,
    spectral_centroid,
)
from repro.baselines import (
    DecisionFeedbackEqualizer,
    dfe_taps_from_channel,
    inner_eye_height_from_corrected,
)
from repro.channel import BackplaneChannel
from repro.devices import (
    ProcessCorner,
    all_corners,
    corner_technology,
    nmos,
)
from repro.lti import AcCoupling, worst_case_wander_fraction
from repro.signals import Waveform, WaveformBatch, add_awgn, bits_to_nrz, \
    prbs7
from serial_oracles import SerialDfe

BIT_RATE = 10e9


# -- corners ----------------------------------------------------------------

def test_corner_mobility_and_threshold_shifts():
    slow = corner_technology(ProcessCorner.SLOW)
    fast = corner_technology(ProcessCorner.FAST)
    typical = corner_technology(ProcessCorner.TYPICAL)
    assert slow.u_n_cox < typical.u_n_cox < fast.u_n_cox
    assert slow.vth_n > typical.vth_n > fast.vth_n


def test_corner_devices_order_gm():
    gms = {}
    for corner, tech in all_corners().items():
        gms[corner] = nmos(20e-6, 0.18e-6, 1e-3, tech=tech).gm
    assert gms[ProcessCorner.SLOW] < gms[ProcessCorner.TYPICAL] \
        < gms[ProcessCorner.FAST]


def test_corner_interface_stays_functional():
    # Rebuild the input-buffer stage on each corner: bandwidth moves
    # but the stage stays usable (the BMVR absorbs the bias side).
    from repro.core import CmlBuffer, ActiveInductorLoad
    from repro.devices import ActiveInductor, pmos

    bandwidths = {}
    for corner, tech in all_corners().items():
        buf = CmlBuffer(
            input_pair=nmos(20e-6, 0.18e-6, 1e-3, tech=tech),
            load=ActiveInductorLoad(ActiveInductor(
                pmos(40e-6, 0.18e-6, 1e-3, tech=tech), 1200.0)),
            tail_current=2e-3, c_load_ext=54e-15,
            source_resistance=250.0, feedback_loop_gain=1.2,
        )
        bandwidths[corner] = buf.bandwidth_3db()
    assert bandwidths[ProcessCorner.SLOW] \
        < bandwidths[ProcessCorner.FAST]
    assert bandwidths[ProcessCorner.SLOW] > 0.6 * bandwidths[
        ProcessCorner.TYPICAL]


def test_typical_corner_is_base():
    base = corner_technology(ProcessCorner.TYPICAL)
    from repro.devices import TSMC180

    assert base.u_n_cox == TSMC180.u_n_cox
    assert base.vth_n == TSMC180.vth_n


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


# -- AC coupling ----------------------------------------------------------

def test_coupling_corner():
    coupling = AcCoupling(capacitance=100e-9, termination=50.0)
    assert coupling.highpass_corner_hz == pytest.approx(
        1.0 / (2 * math.pi * 50.0 * 100e-9)
    )
    assert coupling.highpass_corner_hz < 100e3


def test_coupling_blocks_dc_passes_data():
    coupling = AcCoupling(capacitance=1e-12, termination=50.0)
    # Deliberately tiny cap -> corner at 3.2 GHz: visible droop.  The
    # run of ones starts mid-waveform so the capacitor is settled to
    # the zero level first.
    bits = np.concatenate([np.zeros(5, dtype=int),
                           np.ones(20, dtype=int),
                           np.zeros(15, dtype=int)])
    wave = bits_to_nrz(bits, BIT_RATE, amplitude=0.4, samples_per_bit=16)
    out = coupling.process(wave)
    run_start = out.data[16 * 6]      # shortly after the rising edge
    run_end = out.data[16 * 24]       # end of the ones run
    assert abs(run_end) < abs(run_start) * 0.5


def test_big_cap_is_transparent_to_short_patterns():
    coupling = AcCoupling(capacitance=100e-9)
    wave = bits_to_nrz(prbs7(100), BIT_RATE, amplitude=0.4,
                       samples_per_bit=16)
    out = coupling.process(wave)
    np.testing.assert_allclose(out.data, wave.data - wave.data[0],
                               atol=1e-3)


def test_wander_budget_8b10b_vs_uncoded():
    coupling = AcCoupling(capacitance=10e-9)
    coded = worst_case_wander_fraction(coupling, BIT_RATE, max_run_bits=5)
    uncoded = worst_case_wander_fraction(coupling, BIT_RATE,
                                         max_run_bits=31)
    pathological = worst_case_wander_fraction(coupling, BIT_RATE,
                                              max_run_bits=100000)
    assert coded < uncoded < pathological
    assert coded < 2e-3            # 8b/10b keeps wander sub-mUI-scale
    assert uncoded > 5 * coded     # ~ the 31/5 run-length ratio


def test_coupling_validation():
    with pytest.raises(ValueError):
        AcCoupling(capacitance=0.0)
    with pytest.raises(ValueError):
        AcCoupling(termination=-50.0)
    with pytest.raises(ValueError):
        AcCoupling().droop_over(-1.0)
    with pytest.raises(ValueError):
        worst_case_wander_fraction(AcCoupling(), 0.0, 5)


# -- spectrum -----------------------------------------------------------

def test_nrz_spectrum_has_null_at_bit_rate():
    wave = bits_to_nrz(prbs7(2000), BIT_RATE, amplitude=1.0,
                       samples_per_bit=8, rise_time=0.0)
    freq, psd = power_spectral_density(wave, segment_length=2048)
    # Compare PSD near 5 GHz (in-band) vs near the 10 GHz null.
    in_band = psd[np.argmin(np.abs(freq - 5e9))]
    at_null = psd[np.argmin(np.abs(freq - 10e9))]
    assert at_null < 0.05 * in_band


def test_sine_band_power():
    fs = 64e9
    f0 = 4e9
    t = np.arange(8192) / fs
    wave = Waveform(np.sin(2 * np.pi * f0 * t), fs)
    inside = band_power(wave, 3e9, 5e9, segment_length=2048)
    outside = band_power(wave, 10e9, 20e9, segment_length=2048)
    assert inside > 100 * outside
    # A unit sine has power 0.5 V^2.
    assert inside == pytest.approx(0.5, rel=0.15)


@pytest.mark.parametrize("f_lo, f_hi", [(0.0, 5e9), (3e9, 5e9),
                                        (4.9e9, 5e9), (10e9, 20e9)])
def test_band_power_is_numpys_trapezoid_rule(f_lo, f_hi):
    # band_power spells out the trapezoid rule so it also runs on
    # numpy 1.x, which has np.trapz (the same rule) but no np.trapezoid.
    trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    wave = bits_to_nrz(prbs7(2000), BIT_RATE, amplitude=0.5,
                       samples_per_bit=8)
    freq, psd = power_spectral_density(wave, segment_length=1024)
    mask = (freq >= f_lo) & (freq <= f_hi)
    assert band_power(wave, f_lo, f_hi, segment_length=1024) \
        == float(trapezoid(psd[mask], freq[mask]))


def test_preemphasis_raises_spectral_centroid():
    from repro.baselines import FirPreEmphasis

    wave = bits_to_nrz(prbs7(2000), BIT_RATE, amplitude=0.5,
                       samples_per_bit=8)
    fir = FirPreEmphasis(taps=(1.4, -0.4), bit_rate=BIT_RATE)
    plain_centroid = spectral_centroid(wave, segment_length=1024)
    shaped_centroid = spectral_centroid(fir.process(wave),
                                        segment_length=1024)
    assert shaped_centroid > 1.1 * plain_centroid


def test_spectrum_validation():
    wave = bits_to_nrz(prbs7(100), BIT_RATE, samples_per_bit=8)
    with pytest.raises(ValueError):
        power_spectral_density(wave, segment_length=8)
    with pytest.raises(ValueError):
        power_spectral_density(wave, segment_length=1024, overlap=1.0)
    with pytest.raises(ValueError):
        band_power(wave, 5e9, 1e9)
    tiny = Waveform(np.zeros(64), 1e9)
    with pytest.raises(ValueError):
        power_spectral_density(tiny, segment_length=128)


def test_inner_eye_height_all_bits_skipped_reports_no_eye():
    # skip_bits >= n_bits: nothing left to measure -> -inf, not a crash.
    wave = bits_to_nrz(prbs7(10), BIT_RATE, samples_per_bit=16)
    dfe = DecisionFeedbackEqualizer(taps=[0.05], bit_rate=BIT_RATE)
    assert dfe.inner_eye_height(wave, skip_bits=16) == -float("inf")
    batch = WaveformBatch.stack([wave, wave])
    np.testing.assert_array_equal(
        dfe.inner_eye_height(batch, skip_bits=16),
        [-float("inf")] * 2)
