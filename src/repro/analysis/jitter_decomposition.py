"""Jitter decomposition: separating random from deterministic jitter.

The scope-industry standard dual-Dirac model treats a measured crossing
histogram as two Dirac impulses (the deterministic jitter, DJ,
peak-to-peak separation) convolved with a Gaussian (the random jitter,
RJ, sigma).  Fitting the histogram tails recovers (RJ, DJ) and lets the
total jitter be extrapolated to any BER — turning the finite eye
measurements of Figs 14-16 into link-budget numbers.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List

import numpy as np

from ..signals.batch import WaveformBatch, _lift
from ..signals.waveform import Waveform
from .eye import EyeDiagramBatch

__all__ = ["JitterDecomposition", "decompose_jitter",
           "decompose_jitter_batch", "decompose_crossings"]


@dataclasses.dataclass(frozen=True)
class JitterDecomposition:
    """Dual-Dirac jitter parameters (all in seconds)."""

    rj_rms: float
    dj_pp: float
    n_crossings: int

    def total_jitter(self, ber: float = 1e-12) -> float:
        """TJ(BER) = DJ + 2 Q(BER) RJ."""
        if not 0 < ber < 0.5:
            raise ValueError(f"ber must be in (0, 0.5), got {ber}")
        from scipy.special import erfcinv

        q = math.sqrt(2.0) * float(erfcinv(2.0 * ber))
        return self.dj_pp + 2.0 * q * self.rj_rms

    def eye_closure_ui(self, bit_rate: float, ber: float = 1e-12) -> float:
        """Horizontal eye closure at a BER, in UI."""
        if bit_rate <= 0:
            raise ValueError(f"bit_rate must be positive, got {bit_rate}")
        return self.total_jitter(ber) * bit_rate


def decompose_crossings(crossings_s: np.ndarray,
                        tail_fraction: float = 0.2) -> JitterDecomposition:
    """Fit the dual-Dirac model to raw crossing times (seconds).

    The estimator is the tail-fit method: the outer ``tail_fraction``
    quantiles of the distribution are assumed Gaussian; their spread
    estimates RJ, and the residual separation of the distribution's
    percentile width beyond the Gaussian part estimates DJ.
    """
    crossings_s = np.asarray(crossings_s, dtype=float)
    if crossings_s.size < 32:
        raise ValueError(
            f"need >= 32 crossings to decompose, got {crossings_s.size}"
        )
    if not 0.05 <= tail_fraction <= 0.45:
        raise ValueError(
            f"tail_fraction must be in [0.05, 0.45], got {tail_fraction}"
        )
    sorted_times = np.sort(crossings_s)
    n = sorted_times.size
    k = max(4, int(n * tail_fraction))
    left_tail = sorted_times[:k]
    right_tail = sorted_times[-k:]
    # Gaussian sigma from each tail's internal spread; RJ is their mean.
    sigma_left = float(np.std(left_tail))
    sigma_right = float(np.std(right_tail))
    rj = 0.5 * (sigma_left + sigma_right)

    # DJ: the separation of the two tail means beyond what a single
    # Gaussian would put there.  For a pure Gaussian the tail means sit
    # at +-E[|tail|]; subtracting that expectation removes the RJ part.
    mean_gap = float(np.mean(right_tail) - np.mean(left_tail))
    # Expected mean gap of the same tails for a pure Gaussian of the
    # fitted sigma (from the truncated-normal mean).
    alpha = _gaussian_quantile(1.0 - tail_fraction)
    phi = math.exp(-alpha * alpha / 2.0) / math.sqrt(2.0 * math.pi)
    truncated_mean = phi / tail_fraction  # E[X | X > alpha], standard
    expected_gap = 2.0 * truncated_mean * rj
    dj = max(0.0, mean_gap - expected_gap)
    return JitterDecomposition(rj_rms=rj, dj_pp=dj, n_crossings=n)


def _gaussian_quantile(p: float) -> float:
    """Standard normal quantile via erfcinv."""
    from scipy.special import erfcinv

    return -math.sqrt(2.0) * float(erfcinv(2.0 * p))


def decompose_jitter(wave: Waveform, bit_rate: float,
                     skip_ui: int = 8) -> JitterDecomposition:
    """Decompose the crossing jitter of a waveform's folded eye (a
    one-row :func:`decompose_jitter_batch`)."""
    return decompose_jitter_batch(_lift(wave)[0], bit_rate,
                                  skip_ui=skip_ui)[0]


def decompose_jitter_batch(batch: WaveformBatch, bit_rate: float,
                           skip_ui: int = 8) -> List[JitterDecomposition]:
    """Per-scenario dual-Dirac decomposition, one batched eye fold.

    The crossing extraction runs vectorized across the whole batch
    (:meth:`~repro.analysis.eye.EyeDiagramBatch.crossing_times_ui`).
    """
    eye = EyeDiagramBatch(batch, bit_rate, skip_ui=skip_ui)
    return [decompose_crossings(crossings_ui / bit_rate)
            for crossings_ui in eye.crossing_times_ui()]
