"""Power-spectral-density estimation.

NRZ data has the classic sinc^2 spectrum with nulls at multiples of the
bit rate; channel loss, pre-emphasis and coding all reshape it.  The
estimator here is a self-contained Welch periodogram (Hann windows,
averaged segments) so spectra can be measured from any simulated node —
e.g. verifying that voltage peaking boosts the Nyquist region, or that
8b/10b removes low-frequency content relative to a long-run payload.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..signals.waveform import Waveform

__all__ = ["power_spectral_density", "band_power", "spectral_centroid"]


def power_spectral_density(wave: Waveform, segment_length: int = 1024,
                           overlap: float = 0.5
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Welch PSD estimate of a waveform.

    Returns ``(freq_hz, psd)`` with the PSD in V^2/Hz (one-sided).
    Implemented directly (Hann window, windowed-segment averaging,
    correct window power normalization) rather than delegating, since
    the PSD is a substrate this library should own.
    """
    data = wave.data
    if segment_length < 16:
        raise ValueError(
            f"segment_length must be >= 16, got {segment_length}"
        )
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must be in [0, 1), got {overlap}")
    if len(data) < segment_length:
        raise ValueError(
            f"waveform ({len(data)} samples) shorter than one segment"
        )
    step = max(1, int(segment_length * (1.0 - overlap)))
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(segment_length)
                                 / segment_length))
    window_power = np.sum(window**2)

    acc = None
    count = 0
    for start in range(0, len(data) - segment_length + 1, step):
        segment = data[start:start + segment_length]
        segment = segment - np.mean(segment)
        spectrum = np.fft.rfft(segment * window)
        periodogram = np.abs(spectrum) ** 2
        acc = periodogram if acc is None else acc + periodogram
        count += 1
    psd = acc / count / (window_power * wave.sample_rate)
    # One-sided scaling (all bins except DC and Nyquist carry x2).
    psd[1:-1] *= 2.0
    freq = np.fft.rfftfreq(segment_length, d=wave.dt)
    return freq, psd


def band_power(wave: Waveform, f_lo: float, f_hi: float,
               segment_length: int = 1024) -> float:
    """Integrated power (V^2) in a frequency band."""
    if not 0 <= f_lo < f_hi:
        raise ValueError(f"need 0 <= f_lo < f_hi, got {f_lo}, {f_hi}")
    freq, psd = power_spectral_density(wave, segment_length=segment_length)
    mask = (freq >= f_lo) & (freq <= f_hi)
    if not np.any(mask):
        raise ValueError("band contains no PSD bins; widen it or use a "
                         "longer segment")
    # numpy's trapezoid rule, term for term (``np.trapezoid`` is numpy>=2).
    f, p = freq[mask], psd[mask]
    return float((np.diff(f) * (p[1:] + p[:-1]) / 2.0).sum())


def spectral_centroid(wave: Waveform, segment_length: int = 1024) -> float:
    """Power-weighted mean frequency (Hz) — a one-number spectrum shape
    metric used by the pre-emphasis benches."""
    freq, psd = power_spectral_density(wave, segment_length=segment_length)
    total = np.sum(psd)
    if total <= 0:
        raise ValueError("waveform has no AC power")
    return float(np.sum(freq * psd) / total)
