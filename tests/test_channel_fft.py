"""Pin the channel's ``numpy.fft`` convolution to its ``scipy.fft`` form.

``BackplaneChannel.process`` convolves with ``numpy.fft`` at the length
``scipy.fft.next_fast_len(2n - 1, real=True)`` would pick, found by a
local 5-smooth search.  It used to call ``scipy.fft`` for both.  On
numpy 2.x both libraries run the same pocketfft code, so every sample
must be bit-identical to the ``scipy.fft`` formula frozen below; numpy
1.x has an older FFT and must agree to round-off.  ``scipy.fft`` is
imported here only: the library itself never loads it.
"""

import math

import numpy as np
import pytest
import scipy.fft

from repro.channel import BackplaneChannel
from repro.channel.backplane import _fast_real_fft_length
from repro.signals import WaveformBatch

NUMPY_2 = np.lib.NumpyVersion(np.__version__) >= "2.0.0"
# Two FFTs of at most 2^15 points round off near 1e-15 of the peak.
NUMPY_1_TOLERANCE = 1e-12


def _scipy_fft_process(ch: BackplaneChannel, data: np.ndarray,
                       dt: float) -> np.ndarray:
    """``process`` as it was with ``scipy.fft``, operation for operation."""
    n = data.shape[-1]
    n_fft = 1 << max(13, int(math.ceil(math.log2(max(n, 2)))) + 2)
    freq = np.fft.rfftfreq(n_fft, d=dt)
    log_mag_half = np.log(np.maximum(ch.magnitude(freq), 1e-12))
    cepstrum = np.fft.ifft(np.concatenate([log_mag_half,
                                           log_mag_half[-2:0:-1]])).real
    half = n_fft // 2
    folded = np.zeros_like(cepstrum)
    folded[0] = cepstrum[0]
    folded[1:half] = 2.0 * cepstrum[1:half]
    folded[half] = cepstrum[half]
    h_min = np.exp(np.fft.fft(folded))[: len(freq)]
    if ch.include_delay:
        h_min = h_min * np.exp(-2j * np.pi * freq * ch.propagation_delay)
    h = np.fft.irfft(h_min, n=n_fft)
    n_conv = scipy.fft.next_fast_len(2 * n - 1, real=True)
    spectrum = scipy.fft.rfft(h[:n], n=n_conv)
    x0 = data[..., :1]
    filtered = scipy.fft.irfft(
        scipy.fft.rfft(data - x0, n=n_conv, axis=-1) * spectrum,
        n=n_conv, axis=-1)[..., :n]
    return filtered + x0 * float(np.sum(h))


@pytest.mark.parametrize("rows, n, samples_per_bit", [
    (64, 4800, 16),   # link_batch: 64 x 300 bits after the TX
    (1, 16000, 16),   # link_single: one PRBS15 record of 1000 bits
    (2, 928, 32),     # stat_eye: the pulse-response extraction
    (64, 384, 16),
    (3, 1000, 16),
])
@pytest.mark.parametrize("include_delay", [False, True])
def test_numpy_fft_matches_scipy_fft_formula(rows, n, samples_per_bit,
                                             include_delay):
    rng = np.random.default_rng(n + rows)
    bits = rng.integers(0, 2, (rows, -(-n // samples_per_bit)))
    data = np.repeat(0.25 * (2.0 * bits - 1.0), samples_per_bit,
                     axis=1)[:, :n]
    data += rng.normal(0.0, 3e-3, data.shape)
    wave = WaveformBatch(data, 10e9 * samples_per_bit)
    ch = BackplaneChannel(0.3, include_delay=include_delay)
    got = ch.process(wave).data
    expected = _scipy_fft_process(ch, data, wave.dt)
    if NUMPY_2:
        np.testing.assert_array_equal(got, expected)
    else:
        np.testing.assert_allclose(
            got, expected, rtol=0,
            atol=NUMPY_1_TOLERANCE * np.max(np.abs(data)))


def test_fast_length_is_scipys_real_next_fast_len():
    got = [_fast_real_fft_length(n) for n in range(1, (1 << 17) + 1)]
    expected = [scipy.fft.next_fast_len(n, real=True)
                for n in range(1, (1 << 17) + 1)]
    assert got == expected
