"""Bit-error-ratio estimation and bathtub curves.

An eye diagram with Gaussian level/jitter statistics maps onto a BER
through the Q-factor formalism (Personick): sampling a one/zero of means
``mu1/mu0`` and sigmas ``s1/s0`` against threshold mid-way gives

    BER = 0.5 * erfc(Q / sqrt(2)),   Q = (mu1 - mu0) / (s1 + s0)

Multi-level signaling generalizes the same formalism per sub-eye: each
of the ``L - 1`` decision thresholds is adjacent to two of the ``L``
equiprobable levels, so the symbol-error ratio is

    SER = (2 / L) * sum_e 0.5 * erfc(Q_e / sqrt(2))

over the per-sub-eye Q-factors, and under Gray coding a symbol error
corrupts (almost always) exactly one of ``log2(L)`` bits:

    BER = SER / log2(L)

For NRZ (L = 2, one eye, one bit per symbol) this reduces exactly to
the binary formula.

The horizontal equivalent — BER versus sampling-phase offset, with the
two crossing distributions encroaching from either side — is the
*bathtub curve* used to specify timing margin at a target BER.

``erfc`` comes from ``scipy.special``, imported inside
the functions that call them: importing it loads scipy's array-API
layer, and no link run or statistical eye needs it, so ``import repro``
and the simulations leave it unloaded until a Q/BER helper is first
called.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from .eye import EyeDiagram, measure_eye_batch
from ..signals.batch import WaveformBatch, _lift
from ..signals.modulation import Modulation, Nrz
from ..signals.waveform import Waveform

__all__ = ["q_to_ber", "ber_from_q_factors", "ber_from_eye",
           "ber_from_eye_batch", "BathtubCurve", "bathtub_from_waveform"]


def q_to_ber(q: float) -> float:
    """BER of a Gaussian decision problem with quality factor ``q``."""
    if q < 0:
        raise ValueError(f"Q must be >= 0, got {q}")
    from scipy.special import erfc

    return float(0.5 * erfc(q / math.sqrt(2.0)))


def ber_from_q_factors(q_factors: Sequence[float],
                       modulation: Optional[Modulation] = None) -> float:
    """Combined BER from per-sub-eye Q-factors.

    Each of the ``L - 1`` thresholds is crossed by the Gaussian tails of
    the two adjacent levels, each level carrying probability ``1/L``, so
    ``SER = (2/L) * sum_e 0.5*erfc(Q_e/sqrt(2))``; Gray coding then
    divides by ``bits_per_symbol``.  Reduces exactly to
    :func:`q_to_ber` of the single Q for NRZ.  Infinite Q-factors
    (noise-free eyes) contribute zero errors; a NaN Q-factor makes the
    BER NaN.
    """
    modulation = Nrz() if modulation is None else modulation
    if len(q_factors) != modulation.n_eyes:
        raise ValueError(
            f"expected {modulation.n_eyes} Q-factors for "
            f"{modulation.name}, got {len(q_factors)}"
        )
    from scipy.special import erfc

    total = 0.0
    for q in q_factors:
        if q == math.inf:
            continue
        if q < 0:
            raise ValueError(f"Q must be >= 0, got {q}")
        total += float(0.5 * erfc(q / math.sqrt(2.0)))
    ser = (2.0 / modulation.n_levels) * total
    return ser / modulation.bits_per_symbol


def ber_from_eye(wave: Waveform, bit_rate: float, skip_ui: int = 8,
                 modulation: Optional[Modulation] = None) -> float:
    """Estimated BER of a waveform via its eye Q-factor(s) (a one-row
    :func:`ber_from_eye_batch`)."""
    return float(ber_from_eye_batch(_lift(wave)[0], bit_rate,
                                    skip_ui=skip_ui, modulation=modulation)[0])


def ber_from_eye_batch(batch: WaveformBatch, bit_rate: float,
                       skip_ui: int = 8,
                       modulation: Optional[Modulation] = None) -> np.ndarray:
    """Per-scenario BER estimates of a batch via eye Q-factors.

    The eyes are folded and measured in one batched pass; the Q-to-BER
    map is evaluated vectorized.  An infinite Q (a noise-free eye)
    gives 0.0 and a NaN Q (a NaN sample at the sampling phase) NaN.
    """
    modulation = Nrz() if modulation is None else modulation
    measurements = measure_eye_batch(batch, bit_rate, skip_ui=skip_ui,
                                     modulation=modulation)
    qs = np.array([m.q_factors if m.q_factors is not None
                   else (m.q_factor,) * modulation.n_eyes
                   for m in measurements])
    from scipy.special import erfc

    # Eye Q-factors are >= 0 (or NaN) and erfc(inf) == 0.0 exactly.
    per_eye = 0.5 * erfc(qs / math.sqrt(2.0))
    # For NRZ the factors below are exactly 1: the binary expression.
    ser = (2.0 / modulation.n_levels) * per_eye.sum(axis=1)
    return ser / modulation.bits_per_symbol


@dataclasses.dataclass(frozen=True)
class BathtubCurve:
    """BER versus sampling phase across one UI.

    Built from the left/right crossing-jitter statistics: each crossing
    is modeled as a Gaussian in time, and the BER at a sampling phase is
    the probability mass of either crossing distribution reaching it.
    """

    phases_ui: np.ndarray
    ber: np.ndarray

    def __post_init__(self) -> None:
        if len(self.phases_ui) != len(self.ber):
            raise ValueError("phase and BER arrays must have equal length")

    def eye_opening_at(self, target_ber: float) -> float:
        """Horizontal opening (UI) where BER stays below ``target_ber``.

        Zero when no phase meets the target.
        """
        if not 0 < target_ber < 0.5:
            raise ValueError(
                f"target_ber must be in (0, 0.5), got {target_ber}"
            )
        good = self.ber < target_ber
        if not np.any(good):
            return 0.0
        return float(np.sum(good) / len(self.ber))

    def minimum_ber(self) -> float:
        """Best achievable BER over all sampling phases."""
        return float(np.min(self.ber))

    def best_phase_ui(self) -> float:
        """Sampling phase with the lowest BER.

        The clipped BER floor can produce a flat minimum region; the
        centre of that region is the robust choice (as a CDR would
        pick).
        """
        minimum = np.min(self.ber)
        flat = np.flatnonzero(self.ber <= minimum * (1.0 + 1e-12))
        return float(self.phases_ui[flat[len(flat) // 2]])


def bathtub_from_waveform(wave: Waveform, bit_rate: float,
                          skip_ui: int = 8,
                          n_phases: int = 101) -> BathtubCurve:
    """Construct a bathtub curve from a simulated waveform.

    Dual-Dirac/Gaussian tail fit: the folded crossing cluster is split
    at its median into a left and a right sub-population (the two Dirac
    positions of the dual-Dirac jitter model), a Gaussian tail is
    fitted to each side, and the BER at every sampling phase is the sum
    of the two encroaching tail probabilities (with the 0.5 transition
    density factor, matching jitter-analyzer convention).

    A side with fewer than 2 finite crossings carries no spread
    estimate of its own; it falls back to the pooled cluster statistics
    instead of silently extrapolating a NaN/inf tail — near-closed eyes
    always yield a finite curve.
    """
    if n_phases < 11:
        raise ValueError(f"n_phases must be >= 11, got {n_phases}")
    eye = EyeDiagram(wave, bit_rate, skip_ui=skip_ui)
    crossings = eye.crossing_times_ui()
    crossings = crossings[np.isfinite(crossings)]
    if crossings.size < 4:
        raise ValueError("too few crossings for a bathtub curve")

    center = float(np.median(crossings))
    pooled_sigma = max(float(np.std(crossings)), 1e-6)

    def fit_side(side: np.ndarray) -> "tuple[float, float]":
        if side.size < 2:
            return center, pooled_sigma
        return float(np.mean(side)), max(float(np.std(side)), 1e-6)

    mu_left, sigma_left = fit_side(crossings[crossings <= center])
    mu_right, sigma_right = fit_side(crossings[crossings > center])

    phases = np.linspace(0.0, 1.0, n_phases)
    from scipy.special import erfc

    def tail(x: np.ndarray, sigma: float) -> np.ndarray:
        return 0.5 * erfc(x / (sigma * math.sqrt(2.0)))

    def wrapped(x: np.ndarray) -> np.ndarray:
        # Signed circular distance in [-0.5, 0.5): crossings repeat at
        # mu + k for every integer k, and a phase on the wrong side of
        # a Dirac must see a *negative* distance (erfc -> 1, BER
        # saturating), not the repetition one UI away.
        return np.mod(x + 0.5, 1.0) - 0.5

    # The right Dirac's right-going tail threatens the phases after it,
    # the left Dirac's left-going tail the phases before it, so a
    # cluster sitting at either side of the 0/1 UI seam produces the
    # same curve and phases inside the cluster saturate near BER 0.5.
    ber = np.clip(
        0.5 * tail(wrapped(phases - mu_right), sigma_right)
        + 0.5 * tail(wrapped(mu_left - phases), sigma_left),
        1e-30, 0.5)
    return BathtubCurve(phases_ui=phases, ber=ber)
