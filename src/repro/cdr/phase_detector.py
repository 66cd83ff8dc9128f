"""Bang-bang (Alexander) phase detection.

The paper's limiting amplifier exists to feed a clock-data-recovery
circuit ("Limiting Amplifiers are responsible to amplify the input
signal to a sufficient voltage for the reliable operation of Clock Data
Recovery").  The CDR package closes that loop: this module implements
the standard Alexander early/late detector that a 10 Gb/s CML receiver
of this era would pair with.

An Alexander PD samples the waveform three times per decision — at the
previous data centre (A), the crossing between bits (T) and the current
data centre (B) — and votes:

* ``A == T != B``  → clock is EARLY (the crossing sample agrees with the
  *previous* bit: the edge came after the crossing sample);
* ``A != T == B``  → clock is LATE;
* no transition or contradictory votes → no information (hold).

Both entry points share one sign/compare core, whose slicer
convention (zero counts high, NaN counts low) is the one the CDR kernel
in :mod:`repro.kernels` votes with.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["PdVote", "alexander_votes", "vote_step"]


class PdVote(enum.IntEnum):
    """Tri-state phase-detector output."""

    LATE = -1
    HOLD = 0
    EARLY = 1


def _sign(values: np.ndarray) -> np.ndarray:
    """Decision-slicer sign: zero samples count as high, NaN as low
    (the convention of the :mod:`repro.kernels` slicers)."""
    return np.where(np.asarray(values, dtype=float) >= 0.0, 1.0, -1.0)


def vote_step(previous_data: np.ndarray, samples_edge: np.ndarray,
              samples_data: np.ndarray) -> np.ndarray:
    """One Alexander vote per row from aligned A/T/B sample vectors.

    The closed-loop primitive: ``previous_data`` (A), ``samples_edge``
    (T) and ``samples_data`` (B) hold one sample per parallel loop, and
    the result is one {-1, 0, +1} vote per loop.
    """
    a = _sign(previous_data)
    b = _sign(samples_data)
    t = _sign(samples_edge)
    transition = a != b
    votes = np.zeros(np.shape(t), dtype=np.int8)
    votes[transition & (t == a)] = PdVote.EARLY
    votes[transition & (t == b)] = PdVote.LATE
    return votes


def alexander_votes(samples_data: np.ndarray,
                    samples_edge: np.ndarray) -> np.ndarray:
    """Vectorized Alexander votes from data and edge sample trains.

    Parameters
    ----------
    samples_data:
        Sliced analog samples at the data instants: length N, or a
        ``(n_rows, N)`` stack of trains.
    samples_edge:
        Sliced analog samples at the crossing instants *between*
        consecutive data samples (N-1 per train): ``samples_edge[..., k]``
        lies between ``samples_data[..., k]`` and ``samples_data[..., k+1]``.

    Returns
    -------
    N-1 votes per train in {-1, 0, +1} (LATE/HOLD/EARLY).
    """
    samples_data = np.asarray(samples_data, dtype=float)
    samples_edge = np.asarray(samples_edge, dtype=float)
    if samples_edge.shape != samples_data.shape[:-1] + (
            samples_data.shape[-1] - 1,):
        raise ValueError(
            f"edge samples must number data samples - 1 per train: "
            f"{samples_edge.shape} vs {samples_data.shape}"
        )
    return vote_step(samples_data[..., :-1], samples_edge,
                     samples_data[..., 1:])
