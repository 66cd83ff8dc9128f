"""BER/bathtub estimation and AC measurement."""

import math

import numpy as np
import pytest

from repro.analysis import (
    AcMeasurement,
    BathtubCurve,
    EyeDiagram,
    bathtub_from_waveform,
    ber_from_eye,
    ber_from_eye_batch,
    ber_from_measurement,
    ber_to_q,
    goertzel_amplitude,
    measure_bandwidth_stimulus,
    measure_frequency_response,
    measure_gain_at,
    measure_tf,
    q_to_ber,
)
from repro.lti import GainBlock, LinearBlock, TanhLimiter, first_order_lowpass
from repro.signals import WaveformBatch, add_awgn, bits_to_nrz, prbs7


# -- q/ber -------------------------------------------------------------------

def test_q_to_ber_known_points():
    assert q_to_ber(7.034) == pytest.approx(1e-12, rel=0.05)
    assert q_to_ber(6.0) == pytest.approx(9.9e-10, rel=0.1)


def test_ber_q_roundtrip():
    for q in (3.0, 5.0, 7.0):
        assert ber_to_q(q_to_ber(q)) == pytest.approx(q, rel=1e-6)


def test_ber_q_roundtrip_extreme_q():
    # Deep into the erfc underflow region: Q=8 is BER ~6e-16, and the
    # roundtrip must survive down there without collapsing to 0.
    for q in (0.5, 1.0, 7.5, 7.9, 8.0):
        ber = q_to_ber(q)
        assert ber > 0.0
        assert ber_to_q(ber) == pytest.approx(q, rel=1e-6)
    assert q_to_ber(7.9) == pytest.approx(1.4e-15, rel=0.2)
    # Monotone through the extreme region.
    assert q_to_ber(8.0) < q_to_ber(7.5) < q_to_ber(7.0)


def test_q_validation():
    with pytest.raises(ValueError):
        q_to_ber(-1.0)
    with pytest.raises(ValueError):
        ber_to_q(0.6)


def test_ber_from_eye_improves_with_snr():
    wave = bits_to_nrz(prbs7(300), 10e9, amplitude=0.4, samples_per_bit=16)
    low_noise = add_awgn(wave, 0.01, seed=1)
    high_noise = add_awgn(wave, 0.05, seed=1)
    assert ber_from_eye(low_noise, 10e9) < ber_from_eye(high_noise, 10e9)


def test_nan_at_the_sampling_phase_gives_nan_q_and_ber():
    # A NaN level sigma must not read as a noise-free eye (Q = inf,
    # BER = 0): the NaN propagates to Q and to every BER path.
    wave = bits_to_nrz(prbs7(100), 10e9, amplitude=0.3, samples_per_bit=16)
    data = wave.data.copy()
    data[16 * 40 + 5] = np.nan
    wave = wave.with_data(data)
    measurement = EyeDiagram.measure_waveform(wave, 10e9)
    assert measurement.sampling_phase_ui == (5 + 0.5) / 16
    assert math.isnan(measurement.q_factor)
    assert math.isnan(ber_from_measurement(measurement))
    assert math.isnan(ber_from_eye(wave, 10e9))
    clean = bits_to_nrz(prbs7(100), 10e9, amplitude=0.3, samples_per_bit=16)
    bers = ber_from_eye_batch(WaveformBatch.stack([clean, wave]), 10e9)
    assert bers[0] == 0.0 and math.isnan(bers[1])


# -- bathtub -------------------------------------------------------------------

def test_bathtub_shape():
    wave = bits_to_nrz(prbs7(400), 10e9, amplitude=0.4, samples_per_bit=32)
    noisy = add_awgn(wave, 0.01, seed=3)
    tub = bathtub_from_waveform(noisy, 10e9)
    # BER is high at the crossing, low in the middle.
    assert tub.minimum_ber() < 1e-6
    assert tub.ber[0] > 1e-3 or tub.ber[-1] > 1e-3
    assert 0.2 < tub.best_phase_ui() < 0.8


def test_bathtub_opening_at_ber():
    wave = bits_to_nrz(prbs7(400), 10e9, amplitude=0.4, samples_per_bit=32)
    tub = bathtub_from_waveform(add_awgn(wave, 0.01, seed=5), 10e9)
    wide = tub.eye_opening_at(1e-3)
    narrow = tub.eye_opening_at(1e-12)
    assert 0.0 <= narrow <= wide <= 1.0
    with pytest.raises(ValueError):
        tub.eye_opening_at(0.9)


def test_bathtub_curve_validation():
    with pytest.raises(ValueError):
        BathtubCurve(phases_ui=np.array([0.0, 1.0]), ber=np.array([1e-3]))
    wave = bits_to_nrz(prbs7(300), 10e9, amplitude=0.4, samples_per_bit=16)
    with pytest.raises(ValueError):
        bathtub_from_waveform(wave, 10e9, n_phases=5)


# -- AC measurement -----------------------------------------------------------

def test_measure_tf():
    tf = first_order_lowpass(9.5e9, gain=100.0)
    m = measure_tf(tf)
    assert m.dc_gain_db == pytest.approx(40.0)
    assert m.bandwidth_3db_hz == pytest.approx(9.5e9, rel=0.01)
    assert m.peaking_db == pytest.approx(0.0, abs=0.01)
    assert m.gain_bandwidth_hz == pytest.approx(100 * 9.5e9, rel=0.01)


def test_goertzel_exact_tone():
    fs = 320e9
    f0 = 10e9
    t = np.arange(640) / fs
    x = 0.7 * np.sin(2 * np.pi * f0 * t)
    assert goertzel_amplitude(x, fs, f0) == pytest.approx(0.7, rel=1e-6)


def test_goertzel_rejects_other_tones():
    fs = 320e9
    t = np.arange(640) / fs
    x = np.sin(2 * np.pi * 10e9 * t)
    assert goertzel_amplitude(x, fs, 20e9) < 1e-9


def test_goertzel_validation():
    with pytest.raises(ValueError):
        goertzel_amplitude(np.zeros(4), 1e9, 1e8)
    with pytest.raises(ValueError):
        goertzel_amplitude(np.zeros(100), 1e9, 1e9)  # at Nyquist


def test_measure_gain_at_linear_block():
    block = LinearBlock(first_order_lowpass(10e9, gain=5.0))
    gain = measure_gain_at(block, 1e9, 320e9)
    assert gain == pytest.approx(5.0, rel=0.02)


def test_measured_response_matches_analytic():
    tf = first_order_lowpass(5e9, gain=3.0)
    block = LinearBlock(tf)
    freqs = np.array([1e9, 5e9, 10e9])
    measured = measure_frequency_response(block, freqs, 320e9)
    analytic = np.abs(tf.response(freqs))
    np.testing.assert_allclose(measured, analytic, rtol=0.05)


def test_stimulus_bandwidth_of_linear_block():
    block = LinearBlock(first_order_lowpass(8e9, gain=10.0))
    bw = measure_bandwidth_stimulus(block, 320e9)
    assert bw == pytest.approx(8e9, rel=0.15)


def test_stimulus_bandwidth_of_nonlinear_block():
    # The stimulus method works where the analytic TF doesn't exist:
    # measure a limiter at small signal.
    block = TanhLimiter(gain=10.0, limit=0.25)
    bw = measure_bandwidth_stimulus(block, 320e9, amplitude=1e-4)
    assert math.isinf(bw)  # memoryless: flat response


def test_flat_block_infinite_bandwidth():
    assert math.isinf(measure_bandwidth_stimulus(GainBlock(2.0), 320e9))


def test_ac_validation():
    with pytest.raises(ValueError):
        measure_gain_at(GainBlock(1.0), 1e9, 320e9, amplitude=0.0)
    with pytest.raises(ValueError):
        measure_bandwidth_stimulus(GainBlock(1.0), 320e9, f_lo=1e10,
                                   f_hi=1e9)
    with pytest.raises(ValueError):
        measure_tf(first_order_lowpass(1e9, gain=0.0))


def test_ac_measurement_dataclass():
    m = AcMeasurement(dc_gain_db=20.0, bandwidth_3db_hz=1e9, peaking_db=1.0)
    assert m.gain_bandwidth_hz == pytest.approx(10 * 1e9)
