"""Timing jitter models for the transmit stimulus.

Jitter enters the link model as per-edge timing offsets handed to
:class:`repro.signals.nrz.NrzEncoder`.  Two canonical components are
implemented:

* **Random jitter (RJ)** — unbounded Gaussian, quoted by its RMS value.
* **Sinusoidal jitter (SJ)** — bounded periodic jitter, quoted by its
  peak amplitude and modulation frequency, the standard proxy for
  deterministic/periodic jitter in tolerance testing.

Both can be combined with :class:`JitterBudget`, which mirrors the way a
lab characterizes a pattern generator.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

__all__ = ["RandomJitter", "SinusoidalJitter", "JitterBudget",
           "dual_dirac_total_jitter"]


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


@dataclasses.dataclass
class JitterBudget:
    """Combined RJ + SJ jitter source.

    Either component may be ``None``.  ``offsets`` sums the individual
    contributions, which is how independent jitter mechanisms physically
    combine at an edge.
    """

    random: Optional[RandomJitter] = None
    sinusoidal: Optional[SinusoidalJitter] = None

    def offsets(self, n_bits: int, bit_rate: float) -> np.ndarray:
        total = np.zeros(n_bits)
        if self.random is not None:
            total = total + self.random.offsets(n_bits, bit_rate)
        if self.sinusoidal is not None:
            total = total + self.sinusoidal.offsets(n_bits, bit_rate)
        return total

    def is_empty(self) -> bool:
        """True when no jitter component is configured."""
        return self.random is None and self.sinusoidal is None


def dual_dirac_total_jitter(rj_rms: float, dj_pp: float,
                            ber: float = 1e-12) -> float:
    """Total jitter at a BER via the dual-Dirac model: TJ = DJ + 2 Q sigma.

    This is the standard formula used to extrapolate scope measurements
    down to low bit-error ratios.  ``Q`` is the two-sided Gaussian
    quantile for the target BER (Q ~ 7.03 at 1e-12).
    """
    if rj_rms < 0 or dj_pp < 0:
        raise ValueError("jitter components must be non-negative")
    if not 0 < ber < 0.5:
        raise ValueError(f"ber must be in (0, 0.5), got {ber}")
    from scipy.special import erfcinv

    q = np.sqrt(2.0) * erfcinv(2.0 * ber)
    return dj_pp + 2.0 * q * rj_rms
