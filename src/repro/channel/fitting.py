"""Fitting channel models to measured loss data.

Real backplane characterization hands you |S21| points from a VNA (or a
Touchstone file).  This module fits the library's parametric
skin + dielectric model to such data by linear least squares — the loss
model ``alpha(f) = k_skin sqrt(f) + k_diel f`` is linear in its
coefficients.
"""

from __future__ import annotations

import numpy as np

from .backplane import ChannelParameters

__all__ = ["fit_channel_parameters"]


def fit_channel_parameters(freq_hz: np.ndarray, loss_db: np.ndarray,
                           length_m: float = 1.0) -> ChannelParameters:
    """Least-squares fit of (k_skin, k_dielectric) to loss samples.

    Parameters
    ----------
    freq_hz, loss_db:
        Measured insertion loss (positive dB) at each frequency.
    length_m:
        The physical length the measurement corresponds to; the
        returned parameters are per metre.
    """
    freq_hz = np.asarray(freq_hz, dtype=float)
    loss_db = np.asarray(loss_db, dtype=float)
    if freq_hz.shape != loss_db.shape or freq_hz.size < 2:
        raise ValueError("need matching frequency/loss arrays (>= 2 points)")
    if np.any(freq_hz <= 0):
        raise ValueError("frequencies must be positive")
    if np.any(loss_db < 0):
        raise ValueError("insertion loss must be >= 0 dB (positive-loss "
                         "convention)")
    if length_m <= 0:
        raise ValueError(f"length must be positive, got {length_m}")

    basis = np.column_stack([np.sqrt(freq_hz), freq_hz])
    coeffs, *_ = np.linalg.lstsq(basis, loss_db / length_m, rcond=None)
    k_skin, k_diel = (max(0.0, float(c)) for c in coeffs)
    if k_skin == 0.0 and k_diel == 0.0:
        raise ValueError("fit collapsed to zero loss; check the data")
    return ChannelParameters(k_skin=k_skin, k_dielectric=k_diel)
