"""Timing jitter models for the transmit stimulus.

Jitter enters the link model as per-edge timing offsets handed to
:class:`repro.signals.nrz.NrzEncoder`.  Two canonical components are
implemented:

* **Random jitter (RJ)** — unbounded Gaussian, quoted by its RMS value.
* **Sinusoidal jitter (SJ)** — bounded periodic jitter, quoted by its
  peak amplitude and modulation frequency, the standard proxy for
  deterministic/periodic jitter in tolerance testing.

Independent components combine by adding their offsets.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

__all__ = ["RandomJitter", "SinusoidalJitter"]


@dataclasses.dataclass
class RandomJitter:
    """Gaussian random jitter.

    Parameters
    ----------
    rms_seconds:
        Standard deviation of the edge displacement.
    seed:
        RNG seed for reproducibility.
    """

    rms_seconds: float
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.rms_seconds < 0:
            raise ValueError(
                f"rms_seconds must be >= 0, got {self.rms_seconds}"
            )

    def offsets(self, n_bits: int, bit_rate: float) -> np.ndarray:
        """Per-bit edge offsets in seconds for ``n_bits`` bits."""
        rng = np.random.default_rng(self.seed)
        del bit_rate  # RJ is rate-independent; kept for interface symmetry
        return rng.normal(0.0, self.rms_seconds, size=n_bits)


@dataclasses.dataclass
class SinusoidalJitter:
    """Sinusoidal (bounded periodic) jitter.

    Parameters
    ----------
    peak_seconds:
        Peak edge displacement (half the peak-to-peak).
    frequency:
        Jitter modulation frequency in Hz.
    phase:
        Initial phase in radians.
    """

    peak_seconds: float
    frequency: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.peak_seconds < 0:
            raise ValueError(
                f"peak_seconds must be >= 0, got {self.peak_seconds}"
            )
        if self.frequency <= 0:
            raise ValueError(f"frequency must be positive, got {self.frequency}")

    def offsets(self, n_bits: int, bit_rate: float) -> np.ndarray:
        """Per-bit edge offsets in seconds for ``n_bits`` bits."""
        edge_times = np.arange(n_bits) / bit_rate
        return self.peak_seconds * np.sin(
            2.0 * np.pi * self.frequency * edge_times + self.phase
        )
