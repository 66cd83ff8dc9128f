"""Noise sources."""

import math

import numpy as np
import pytest

from repro.signals import (
    Waveform,
    add_awgn,
    thermal_noise_rms,
)


def flat_wave(n=20000, fs=1e9):
    return Waveform(np.zeros(n), fs)


def test_white_noise_rms():
    noisy = add_awgn(flat_wave(), 3e-3, seed=3)
    assert noisy.rms() == pytest.approx(3e-3, rel=0.05)


def test_white_noise_zero_is_identity():
    w = flat_wave(10)
    assert add_awgn(w, 0.0) is w


def test_white_noise_reproducible():
    a = add_awgn(flat_wave(100), 1e-3, seed=5)
    b = add_awgn(flat_wave(100), 1e-3, seed=5)
    np.testing.assert_array_equal(a.data, b.data)


def test_white_noise_rejects_negative():
    with pytest.raises(ValueError):
        add_awgn(flat_wave(10), -1.0)


def test_thermal_noise_50ohm_10ghz():
    # sqrt(4kTRB): ~91 uV for 50 ohm over 10 GHz at 300 K.
    v = thermal_noise_rms(50.0, 10e9, temperature_k=300.0)
    expected = math.sqrt(4 * 1.380649e-23 * 300.0 * 50.0 * 10e9)
    assert v == pytest.approx(expected)
    assert 80e-6 < v < 100e-6


def test_thermal_noise_rejects_bad_args():
    with pytest.raises(ValueError):
        thermal_noise_rms(-1.0, 1e9)
    with pytest.raises(ValueError):
        thermal_noise_rms(50.0, 1e9, temperature_k=0.0)


def test_add_awgn_convenience():
    w = Waveform(np.ones(5000), 1e9)
    noisy = add_awgn(w, 0.1, seed=1)
    assert np.std(noisy.data - w.data) == pytest.approx(0.1, rel=0.1)
