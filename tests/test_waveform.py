"""Waveform container semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signals import DifferentialWaveform, Waveform


def make(data, fs=1e9, t0=0.0):
    return Waveform(np.asarray(data, dtype=float), fs, t0)


def test_basic_properties():
    w = make([0.0, 1.0, 2.0, 3.0], fs=4.0)
    assert len(w) == 4
    assert w.dt == pytest.approx(0.25)
    assert w.duration == pytest.approx(1.0)
    np.testing.assert_allclose(w.time, [0.0, 0.25, 0.5, 0.75])


def test_rejects_bad_sample_rate():
    with pytest.raises(ValueError):
        make([1.0], fs=0.0)


def test_rejects_2d_data():
    with pytest.raises(ValueError):
        Waveform(np.zeros((2, 2)), 1e9)


def test_statistics():
    w = make([-1.0, 1.0, -1.0, 1.0])
    assert w.peak_to_peak() == pytest.approx(2.0)
    assert w.rms() == pytest.approx(1.0)
    assert w.mean() == pytest.approx(0.0)


def test_empty_statistics_are_zero():
    w = make([])
    assert w.peak_to_peak() == 0.0
    assert w.rms() == 0.0
    assert w.mean() == 0.0


def test_addition_of_waveforms_and_scalars():
    a = make([1.0, 2.0])
    b = make([10.0, 20.0])
    np.testing.assert_allclose((a + b).data, [11.0, 22.0])
    np.testing.assert_allclose((a + 1.0).data, [2.0, 3.0])
    np.testing.assert_allclose((a - b).data, [-9.0, -18.0])
    np.testing.assert_allclose((2.0 * a).data, [2.0, 4.0])
    np.testing.assert_allclose((-a).data, [-1.0, -2.0])


def test_addition_rejects_mismatched_rates():
    a = make([1.0, 2.0], fs=1e9)
    b = make([1.0, 2.0], fs=2e9)
    with pytest.raises(ValueError):
        _ = a + b


def test_addition_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        _ = make([1.0, 2.0]) + make([1.0])


def test_clip():
    w = make([-2.0, 0.0, 2.0]).clip(-1.0, 1.0)
    np.testing.assert_allclose(w.data, [-1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        make([0.0]).clip(1.0, -1.0)


def test_slice_time():
    w = make(np.arange(10), fs=10.0)  # dt = 0.1 s
    part = w.slice_time(0.2, 0.5)
    np.testing.assert_allclose(part.data, [2.0, 3.0, 4.0])
    assert part.t0 == pytest.approx(0.2)


def test_skip():
    w = make(np.arange(5), fs=1.0)
    s = w.skip(2)
    np.testing.assert_allclose(s.data, [2.0, 3.0, 4.0])
    assert s.t0 == pytest.approx(2.0)
    # Skipping more than the length empties but doesn't raise.
    assert len(w.skip(99)) == 0
    with pytest.raises(ValueError):
        w.skip(-1)


def test_integer_delay_shifts_samples():
    w = make([1.0, 2.0, 3.0, 4.0], fs=1.0)
    d = w.delayed(2.0)
    np.testing.assert_allclose(d.data, [1.0, 1.0, 1.0, 2.0])


def test_fractional_delay_interpolates():
    w = make([0.0, 1.0, 2.0, 3.0], fs=1.0)
    d = w.delayed(0.5)
    # Linear interpolation between neighbours.
    np.testing.assert_allclose(d.data[1:], [0.5, 1.5, 2.5])


def test_zero_delay_is_identity():
    w = make([3.0, 1.0, 4.0])
    np.testing.assert_allclose(w.delayed(0.0).data, w.data)


def test_huge_delay_holds_first_value():
    w = make([5.0, 1.0, 2.0], fs=1.0)
    d = w.delayed(100.0)
    np.testing.assert_allclose(d.data, [5.0, 5.0, 5.0])


def _frozen_delayed(data, delay_s, sample_rate):
    """``Waveform.delayed`` as it was before it became a batch of one."""
    if len(data) == 0:
        return data
    shift = delay_s * sample_rate
    n = int(np.floor(shift))
    frac = shift - n
    padded = np.empty(len(data))
    if n >= len(data) or -n >= len(data):
        fill = data[0] if n > 0 else data[-1]
        return np.full(len(data), fill)
    if n >= 0:
        padded[:n] = data[0]
        padded[n:] = data[: len(data) - n]
    else:
        padded[:n] = data[-n:]
        padded[n:] = data[-1]
    if frac > 0:
        shifted_one_more = np.empty_like(padded)
        shifted_one_more[0] = padded[0]
        shifted_one_more[1:] = padded[:-1]
        padded = (1.0 - frac) * padded + frac * shifted_one_more
    return padded


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=0, max_size=40),
       st.one_of(st.integers(-60, 60).map(float),
                 st.floats(-60.0, 60.0),
                 st.sampled_from([0.5, -0.5, 1e-12, -1e-12, 1e9, -1e9])),
       st.sampled_from([1.0, 3.0, 1e9]))
def test_delay_matches_frozen_scalar_delay(samples, delay_samples, fs):
    """Integer, fractional, negative and longer-than-waveform delays are
    bit-identical to the frozen single-waveform code."""
    wave = make(samples, fs=fs, t0=0.25)
    delay_s = delay_samples / fs
    got = wave.delayed(delay_s)
    want = _frozen_delayed(wave.data, delay_s, fs)
    assert got.data.tobytes() == want.tobytes()
    assert (got.sample_rate, got.t0) == (wave.sample_rate, wave.t0)


def test_resample_preserves_duration_and_values():
    w = make(np.sin(np.linspace(0, 2 * np.pi, 100)), fs=100.0)
    r = w.resampled(200.0)
    assert r.sample_rate == 200.0
    assert r.duration == pytest.approx(w.duration, rel=0.05)
    # A slow sine survives linear resampling.
    mid = np.interp(r.time, w.time, w.data)
    np.testing.assert_allclose(r.data, mid, atol=1e-9)


def test_resample_same_rate_is_identity():
    w = make([1.0, 2.0])
    assert w.resampled(w.sample_rate) is w


def test_map_applies_elementwise():
    w = make([1.0, -2.0]).map(np.abs)
    np.testing.assert_allclose(w.data, [1.0, 2.0])


# -- differential ------------------------------------------------------------

def test_differential_roundtrip():
    diff = make([0.2, -0.2, 0.2])
    pair = DifferentialWaveform.from_differential(diff, common_mode=0.9)
    np.testing.assert_allclose(pair.differential().data, diff.data)
    np.testing.assert_allclose(pair.common_mode().data, 0.9)


def test_differential_offset_moves_legs_not_cm():
    diff = make([0.0, 0.0])
    pair = DifferentialWaveform.from_differential(diff).with_offset(0.01)
    np.testing.assert_allclose(pair.differential().data, 0.01)
    np.testing.assert_allclose(pair.common_mode().data, 0.0, atol=1e-15)


def test_differential_map_each():
    diff = make([1.0, -1.0])
    pair = DifferentialWaveform.from_differential(diff)
    doubled = pair.map_each(lambda x: 2.0 * x)
    np.testing.assert_allclose(doubled.differential().data, [2.0, -2.0])


# -- interpolated sampling ----------------------------------------------------

def test_sample_at_matches_np_interp_inside_grid():
    rng = np.random.default_rng(2)
    w = make(rng.normal(size=32), fs=8.0, t0=0.5)
    times = np.linspace(0.6, 4.2, 40)
    np.testing.assert_allclose(w.sample_at(times),
                               np.interp(times, w.time, w.data),
                               rtol=0, atol=1e-15)


def test_sample_at_clamps_outside_grid():
    w = make([1.0, 2.0, 3.0], fs=1.0)
    assert float(w.sample_at(-5.0)) == 1.0
    assert float(w.sample_at(99.0)) == 3.0


def test_sample_at_scalar_and_exact_nodes():
    w = make([0.0, 1.0, 4.0, 9.0], fs=2.0)
    assert float(w.sample_at(0.5)) == 1.0
    assert float(w.sample_at(0.75)) == pytest.approx(2.5)


def test_sample_uniform_needs_two_samples():
    from repro.signals.waveform import sample_uniform

    with pytest.raises(ValueError):
        sample_uniform(np.array([1.0]), 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        sample_uniform(np.zeros((2, 2, 2)), 0.0, 1.0, 0.0)
