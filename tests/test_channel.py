"""Backplane channel and driver-swing models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import (
    BackplaneChannel,
    ChannelParameters,
    FR4_DEFAULT,
    cml_output_swing,
)
from repro.channel.backplane import _channel_spectrum
from repro.signals import Waveform, WaveformBatch, bits_to_nrz, prbs7


def test_loss_increases_with_frequency_and_length():
    ch = BackplaneChannel(0.5)
    f = np.array([1e9, 5e9, 10e9])
    loss = ch.loss_db(f)
    assert np.all(np.diff(loss) > 0)
    longer = BackplaneChannel(1.0)
    assert longer.loss_db(f)[1] == pytest.approx(2 * loss[1])


def test_zero_length_channel_is_transparent():
    ch = BackplaneChannel(0.0)
    w = bits_to_nrz(prbs7(50), 10e9, samples_per_bit=8)
    out = ch.process(w)
    np.testing.assert_array_equal(out.data, w.data)


def test_nyquist_loss_default_channel():
    # 0.5 m default FR-4: ~13 dB at 5 GHz.
    ch = BackplaneChannel(0.5)
    assert 10 < ch.nyquist_loss_db(10e9) < 17


def test_magnitude_matches_loss():
    ch = BackplaneChannel(0.5)
    f = np.array([5e9])
    assert ch.magnitude(f)[0] == pytest.approx(
        10 ** (-ch.loss_db(f)[0] / 20.0)
    )
    assert ch.s21_db(f)[0] == pytest.approx(-ch.loss_db(f)[0])


def test_process_attenuates_high_frequency_content():
    ch = BackplaneChannel(0.5)
    # A 5 GHz square (1010 pattern at 10 Gb/s) loses most of its swing;
    # a low-rate pattern survives.
    fast = bits_to_nrz(np.tile([1, 0], 60), 10e9, samples_per_bit=16)
    slow = bits_to_nrz(np.repeat([1, 0], 30), 1e9, samples_per_bit=16)
    # Skip the start-up region where the line still holds its idle level.
    fast_out = ch.process(fast).skip(40 * 16)
    slow_out = ch.process(slow).skip(20 * 16)
    assert fast_out.peak_to_peak() < 0.55 * fast.peak_to_peak()
    assert slow_out.peak_to_peak() > 0.8 * slow.peak_to_peak()


def test_process_is_causal():
    # The response to a step must not start before the step (beyond
    # numerical noise): minimum-phase property.
    ch = BackplaneChannel(0.5)
    bits = np.concatenate([np.zeros(20, dtype=int), np.ones(20, dtype=int)])
    w = bits_to_nrz(bits, 10e9, samples_per_bit=16, rise_time=0.0)
    out = ch.process(w)
    step_index = 20 * 16
    pre_step = out.data[: step_index - 16]
    assert np.max(np.abs(pre_step - pre_step[0])) < 0.02 * w.peak_to_peak()


def test_dc_passes_unattenuated():
    ch = BackplaneChannel(0.5)
    w = bits_to_nrz(np.ones(60, dtype=int), 10e9, samples_per_bit=8)
    out = ch.process(w)
    assert out.data[-1] == pytest.approx(w.data[-1], rel=0.02)


def test_scaled_to_loss():
    ch = BackplaneChannel(1.0).scaled_to_loss(10.0, at_hz=5e9)
    assert ch.loss_db(np.array([5e9]))[0] == pytest.approx(10.0)


def test_propagation_delay():
    ch = BackplaneChannel(0.5)
    v = FR4_DEFAULT.velocity
    assert ch.propagation_delay == pytest.approx(0.5 / v)
    assert 1e-9 < ch.propagation_delay < 5e-9  # ~3.4 ns for 0.5 m FR-4


def test_channel_parameters_validation():
    with pytest.raises(ValueError):
        ChannelParameters(k_skin=-1.0, k_dielectric=0.0)
    with pytest.raises(ValueError):
        ChannelParameters(k_skin=0.0, k_dielectric=0.0,
                          dielectric_constant=0.5)
    with pytest.raises(ValueError):
        BackplaneChannel(-1.0)


def test_frequency_response_is_magnitude_with_bulk_delay():
    f = np.array([0.0, 1e9, 5e9])
    ch = BackplaneChannel(0.5)
    np.testing.assert_array_equal(ch.frequency_response(f), ch.magnitude(f))
    delayed = BackplaneChannel(0.5, include_delay=True).frequency_response(f)
    np.testing.assert_allclose(np.abs(delayed), ch.magnitude(f))
    np.testing.assert_allclose(
        np.angle(delayed[1]),
        np.angle(np.exp(-2j * np.pi * 1e9 * ch.propagation_delay)))


# -- time-domain filtering against an independent oracle ---------------------

def _reference_impulse_response(ch: BackplaneChannel, dt: float,
                                n: int) -> np.ndarray:
    """The full minimum-phase impulse response, synthesized from scratch.

    Real-cepstrum construction from ``ch.magnitude`` on the documented
    grid (power of two, >= 4n and >= 2^13 samples), plus the bulk delay
    when the channel keeps it.
    """
    n_fft = 1 << max(13, int(math.ceil(math.log2(max(n, 2)))) + 2)
    freq = np.fft.fftfreq(n_fft, d=dt)
    cepstrum = np.fft.ifft(np.log(np.maximum(ch.magnitude(freq),
                                             1e-12))).real
    window = np.zeros(n_fft)
    window[0] = window[n_fft // 2] = 1.0
    window[1:n_fft // 2] = 2.0
    spectrum = np.exp(np.fft.fft(cepstrum * window))
    if ch.include_delay:
        spectrum = spectrum * np.exp(-2j * np.pi * freq * ch.propagation_delay)
    return np.fft.ifft(spectrum).real


def _reference_process(ch: BackplaneChannel, data: np.ndarray,
                       dt: float) -> np.ndarray:
    """Direct time-domain convolution with the full response, per row."""
    data = np.atleast_2d(data)
    h = _reference_impulse_response(ch, dt, data.shape[-1])
    return np.array([np.convolve(row - row[0], h)[: len(row)]
                     + row[0] * h.sum() for row in data])


def _assert_matches_reference(ch, wave):
    expected = _reference_process(ch, wave.data, wave.dt)
    got = ch.process(wave).data
    assert got.shape == wave.data.shape
    np.testing.assert_allclose(np.atleast_2d(got), expected, rtol=0,
                               atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 333, 1000, 2049])
def test_process_matches_direct_convolution_oracle(n):
    rng = np.random.default_rng(n)
    ch = BackplaneChannel(0.3)
    _assert_matches_reference(
        ch, Waveform(rng.uniform(-0.5, 0.5, n), 160e9))
    _assert_matches_reference(
        ch, WaveformBatch(rng.uniform(-0.5, 0.5, (3, n)), 160e9))


def test_process_matches_oracle_with_bulk_delay_and_nrz():
    ch = BackplaneChannel(0.2, include_delay=True)
    _assert_matches_reference(
        ch, bits_to_nrz(prbs7(101), 10e9, samples_per_bit=16))


def test_channel_spectrum_cache_follows_mutation_and_sample_rate():
    rng = np.random.default_rng(1)
    wave = Waveform(rng.uniform(-0.5, 0.5, 500), 160e9)
    ch = BackplaneChannel(0.3)
    before = ch.process(wave).data
    _assert_matches_reference(ch, wave)
    ch.length_m = 0.6
    assert np.max(np.abs(ch.process(wave).data - before)) > 1e-3
    _assert_matches_reference(ch, wave)
    ch.include_delay = True
    _assert_matches_reference(ch, wave)
    ch.include_delay = False
    _assert_matches_reference(ch, Waveform(wave.data, 80e9))
    ch.length_m = 0.3
    np.testing.assert_array_equal(ch.process(wave).data, before)


def test_cached_channel_spectrum_is_read_only():
    ch = BackplaneChannel(0.3)
    ch.process(Waveform(np.arange(64.0), 160e9))
    _, spectrum, _ = _channel_spectrum(ch.params, ch.length_m,
                                       ch.include_delay, 1 / 160e9, 64)
    assert not spectrum.flags.writeable
    with pytest.raises(ValueError):
        spectrum[0] = 0.0


# -- LTI properties ------------------------------------------------------------

_PROPERTY_CHANNEL = BackplaneChannel(0.3)
# Millivolt-step samples in [-1, 1] V.  Keeping n <= 2048 puts every
# length on one 2^13 synthesis grid, so a waveform and its delayed copy
# see the same impulse response.
_samples = st.lists(st.integers(min_value=-1000, max_value=1000),
                    min_size=1, max_size=1024).map(
                        lambda mv: np.array(mv) / 1000.0)
_coefficients = st.integers(min_value=-300, max_value=300).map(
    lambda c: c / 100.0)


def _through_channel(data):
    return _PROPERTY_CHANNEL.process(Waveform(data, 160e9)).data


@given(_samples, _samples, _coefficients, _coefficients)
@settings(max_examples=40, deadline=None)
def test_channel_is_linear(x, y, a, b):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    swing = abs(a) * np.max(np.abs(x)) + abs(b) * np.max(np.abs(y))
    np.testing.assert_allclose(_through_channel(a * x + b * y),
                               a * _through_channel(x)
                               + b * _through_channel(y),
                               rtol=0, atol=1e-12 * swing)


@given(_samples, st.integers(min_value=1, max_value=1024))
@settings(max_examples=40, deadline=None)
def test_channel_is_time_invariant(x, delay):
    # Idling at x[0] for `delay` samples only shifts the response.
    out = _through_channel(x)
    delayed = _through_channel(np.concatenate([np.full(delay, x[0]), x]))
    np.testing.assert_allclose(
        delayed, np.concatenate([np.full(delay, out[0]), out]),
        rtol=0, atol=1e-12 * np.max(np.abs(x)))


@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=700),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_channel_batch_rows_equal_single_waveforms(n_rows, n, seed):
    data = np.random.default_rng(seed).uniform(-1.0, 1.0, (n_rows, n))
    batch = _PROPERTY_CHANNEL.process(WaveformBatch(data, 160e9)).data
    for row, out in zip(data, batch):
        np.testing.assert_allclose(out, _through_channel(row), rtol=0,
                                   atol=1e-12)


# -- terminations ------------------------------------------------------------


def test_cml_swing_8ma():
    # The paper's 8 mA into a doubly terminated 50-ohm line: 200 mV.
    assert cml_output_swing(8e-3) == pytest.approx(0.200)
    assert cml_output_swing(8e-3, double_terminated=False) \
        == pytest.approx(0.400)


def test_swing_helpers_validation():
    with pytest.raises(ValueError):
        cml_output_swing(0.0)
    with pytest.raises(ValueError):
        cml_output_swing(8e-3, load_ohm=0.0)
