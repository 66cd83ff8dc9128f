"""Jitter source statistics."""

import numpy as np
import pytest

from repro.signals import RandomJitter, SinusoidalJitter


def test_random_jitter_rms():
    rj = RandomJitter(rms_seconds=1e-12, seed=42)
    offsets = rj.offsets(20000, 10e9)
    assert np.std(offsets) == pytest.approx(1e-12, rel=0.05)
    assert abs(np.mean(offsets)) < 1e-13


def test_random_jitter_reproducible_with_seed():
    a = RandomJitter(1e-12, seed=7).offsets(100, 10e9)
    b = RandomJitter(1e-12, seed=7).offsets(100, 10e9)
    np.testing.assert_array_equal(a, b)


def test_random_jitter_zero_rms_is_zero():
    offsets = RandomJitter(0.0).offsets(10, 10e9)
    np.testing.assert_allclose(offsets, 0.0)


def test_random_jitter_rejects_negative():
    with pytest.raises(ValueError):
        RandomJitter(-1e-12)


def test_sinusoidal_jitter_peak_and_period():
    sj = SinusoidalJitter(peak_seconds=5e-12, frequency=1e8)
    offsets = sj.offsets(1000, 10e9)
    assert offsets.max() == pytest.approx(5e-12, rel=0.01)
    assert offsets.min() == pytest.approx(-5e-12, rel=0.01)
    # 100 MHz jitter on a 10 Gb/s clock: period = 100 bits.
    np.testing.assert_allclose(offsets[:100], offsets[100:200], atol=1e-18)


def test_sinusoidal_jitter_phase():
    sj = SinusoidalJitter(peak_seconds=1e-12, frequency=1e8,
                          phase=np.pi / 2)
    offsets = sj.offsets(10, 10e9)
    assert offsets[0] == pytest.approx(1e-12)


def test_sinusoidal_rejects_bad_args():
    with pytest.raises(ValueError):
        SinusoidalJitter(-1e-12, 1e8)
    with pytest.raises(ValueError):
        SinusoidalJitter(1e-12, 0.0)
