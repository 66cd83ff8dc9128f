"""BER/bathtub estimation."""

import math

import numpy as np
import pytest

from repro.analysis import (
    BathtubCurve,
    EyeDiagram,
    bathtub_from_waveform,
    ber_from_eye,
    ber_from_eye_batch,
    q_to_ber,
)
from repro.signals import WaveformBatch, add_awgn, bits_to_nrz, prbs7


# -- q/ber -------------------------------------------------------------------

def test_q_to_ber_known_points():
    assert q_to_ber(7.034) == pytest.approx(1e-12, rel=0.05)
    assert q_to_ber(6.0) == pytest.approx(9.9e-10, rel=0.1)


def test_ber_q_roundtrip_extreme_q():
    # Deep into the erfc underflow region: Q=8 is BER ~6e-16, and the
    # BER must not collapse to 0 down there.
    for q in (0.5, 1.0, 7.5, 7.9, 8.0):
        assert q_to_ber(q) > 0.0
    assert q_to_ber(7.9) == pytest.approx(1.4e-15, rel=0.2)
    # Monotone through the extreme region.
    assert q_to_ber(8.0) < q_to_ber(7.5) < q_to_ber(7.0)


def test_q_validation():
    with pytest.raises(ValueError):
        q_to_ber(-1.0)


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
