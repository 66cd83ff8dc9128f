"""Decision-feedback equalizer baseline (receiver-side digital EQ).

The receiver-side counterpart of the digital pre-emphasis baseline: a
DFE cancels *post-cursor* ISI by subtracting, from the analog input,
tap-weighted copies of the bits already decided.  Unlike a linear
equalizer it amplifies no noise or crosstalk — but it cannot touch
pre-cursor ISI and it needs a decision clock (a CDR) to exist.

The paper's receive equalization is purely analog (the Cherry-Hooper
high-pass); this baseline quantifies what a small DFE would add on the
same channels — the road the field took in the years after the paper.

The decision-feedback loop runs in one batched kernel,
:func:`repro.kernels.dfe_equalize_batch`, with a per-row decision
history.  :meth:`DecisionFeedbackEqualizer.equalize` is its one entry
point (and :meth:`~DecisionFeedbackEqualizer.inner_eye_height` the one
measurement on it): a :class:`~repro.signals.batch.WaveformBatch` in
gives per-row arrays, a single waveform runs as a batch of one.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence, Tuple

import numpy as np

from .. import kernels
from ..analysis.isi import pulse_response
from ..lti.blocks import Block
from ..signals.batch import WaveformBatch, _lift
from ..signals.modulation import Modulation, Nrz
from ..signals.waveform import Waveform

__all__ = ["DecisionFeedbackEqualizer", "dfe_taps_from_channel",
           "inner_eye_height_from_corrected"]


def inner_eye_height_from_corrected(corrected: np.ndarray,
                                    skip_bits: int = 16,
                                    thresholds=None):
    """Worst-case vertical opening of DFE-corrected samples.

    Per sub-eye ``min(upper cluster) - max(lower cluster)`` after
    dropping the first ``skip_bits`` decisions (feedback-history fill),
    reporting the worst sub-eye.  ``thresholds`` is the DFE's sorted
    decision-threshold vector; the default ``[0.0]`` is the historical
    binary inner eye.  1-D input returns a float; 2-D
    ``(n_scenarios, n_bits)`` input returns a per-row array.  Rows
    missing a level cluster report ``-inf`` (no eye to measure).
    """
    corrected = np.asarray(corrected, dtype=float)
    thresholds = (np.zeros(1) if thresholds is None
                  else np.asarray(thresholds, dtype=float))
    usable = corrected[..., skip_bits:]
    counts = np.zeros(usable.shape, dtype=np.int8)
    for threshold in thresholds:
        counts += usable > threshold
    worst = None
    for e in range(len(thresholds)):
        upper_mask = counts == e + 1
        lower_mask = counts == e
        # ``initial`` lets an empty span (everything skipped) reduce;
        # it then reads as a missing cluster, hence no eye.
        upper_min = np.min(np.where(upper_mask, usable, np.inf), axis=-1,
                           initial=np.inf)
        lower_max = np.max(np.where(lower_mask, usable, -np.inf), axis=-1,
                           initial=-np.inf)
        valid = upper_mask.any(axis=-1) & lower_mask.any(axis=-1)
        height = np.where(valid, upper_min - lower_max, -np.inf)
        worst = height if worst is None else np.minimum(worst, height)
    return float(worst) if corrected.ndim == 1 else worst


@dataclasses.dataclass
class DecisionFeedbackEqualizer:
    """A baud-rate N-tap DFE with ideal decision timing.

    Parameters
    ----------
    taps:
        Post-cursor tap weights in volts (the amount subtracted per
        decided one-bit; sign convention: positive taps cancel positive
        post-cursor ISI).
    bit_rate:
        The baud (symbol) rate.
    decision_amplitude:
        Half the peak-to-peak swing the slicer assumes for decided
        symbols: the outer decided levels are ``+-decision_amplitude``
        (for NRZ, the classic decided-bit amplitude).
    sample_phase_ui:
        Sampling phase within the UI (0.5 = centre).
    modulation:
        Level alphabet to slice against; defaults to two-level NRZ
        (bit-exact with the historical sign slicer).  Decided symbols
        feed back their level value scaled to the
        ``2 * decision_amplitude`` swing, and decisions are level
        indices (0/1 for NRZ).
    """

    taps: Sequence[float]
    bit_rate: float
    decision_amplitude: float = 1.0
    sample_phase_ui: float = 0.5
    modulation: Modulation = Nrz()

    def __post_init__(self) -> None:
        taps = np.asarray(self.taps, dtype=float)
        if taps.size == 0:
            raise ValueError("DFE needs at least one tap")
        if self.bit_rate <= 0:
            raise ValueError(f"bit_rate must be positive, got {self.bit_rate}")
        if self.decision_amplitude <= 0:
            raise ValueError("decision_amplitude must be positive")
        if not 0.0 < self.sample_phase_ui < 1.0:
            raise ValueError(
                f"sample_phase_ui must be in (0,1), got {self.sample_phase_ui}"
            )
        self.taps = taps
        # Slicer geometry at the decided swing.  The normalized outer
        # levels are +-0.5, so a 2*decision_amplitude swing puts them at
        # exactly +-decision_amplitude — for NRZ these are bitwise the
        # historical +-A feedback values, and the single threshold is
        # exactly 0.0.
        swing = 2.0 * self.decision_amplitude
        self.decision_thresholds = self.modulation.threshold_values(swing)
        self.decision_levels = self.modulation.level_values(swing)

    def _n_bits(self, n_samples: int, ui_samples: float) -> int:
        """Decidable bits: every UI whose sampling instant
        ``(k + sample_phase_ui) * ui_samples`` lies on the sample grid.

        ``int((n_samples - 1) / ui_samples)`` — the old formula —
        silently dropped the final UI when the waveform ends exactly on
        a bit boundary: its mid-UI sampling instant is on the grid even
        though the boundary itself is one sample past it.
        """
        n_bits = int(np.floor((n_samples - 1) / ui_samples
                              - self.sample_phase_ui)) + 1
        if n_bits < self._min_bits():
            raise ValueError("waveform too short for the tap count")
        return n_bits

    def _min_bits(self) -> int:
        return len(self.taps) + 4

    def min_ui(self, samples_per_ui: float) -> float:
        """Shortest waveform, in UI, that :meth:`equalize` accepts: the
        last of its minimum decidable bits is sampled
        ``sample_phase_ui`` into its UI, one sample before the end."""
        return (self._min_bits() - 1 + self.sample_phase_ui
                + 1.0 / samples_per_ui)

    def equalize(self, signal: "Waveform | WaveformBatch"
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Run the DFE over a signal.

        Returns ``(decisions, corrected_samples)``: the sliced symbols
        (level indices; 0/1 bits for NRZ) and the ISI-corrected analog
        samples at the decision instants (the quantity whose histogram
        is the DFE's "inner eye").  A :class:`WaveformBatch` runs N
        independent DFEs through the kernel and gives
        ``(n_scenarios, n_bits)`` arrays; a :class:`Waveform` runs as a
        batch of one and gives its 1-D row.
        """
        batch, was_single = _lift(signal)
        ui_samples = batch.sample_rate / self.bit_rate
        n_bits = self._n_bits(batch.n_samples, ui_samples)
        decisions, corrected = kernels.dfe_equalize_batch(
            batch.data, np.asarray(self.taps, dtype=float), ui_samples,
            self.sample_phase_ui, self.decision_amplitude, n_bits,
            self.decision_thresholds, self.decision_levels,
        )
        if was_single:
            return decisions[0], corrected[0]
        return decisions, corrected

    def inner_eye_height(self, signal: "Waveform | WaveformBatch",
                         skip_bits: int = 16):
        """Worst-case vertical opening of the corrected samples (worst
        sub-eye for multi-level modulations): a float for a waveform, a
        per-row array for a batch."""
        _, corrected = self.equalize(signal)
        return inner_eye_height_from_corrected(
            corrected, skip_bits, thresholds=self.decision_thresholds)


def dfe_taps_from_channel(channel: Block, bit_rate: float, n_taps: int = 2,
                          amplitude: float = 1.0,
                          decision_amplitude: float = 1.0,
                          samples_per_bit: int = 16) -> np.ndarray:
    """Provision DFE taps from the channel's measured post-cursors.

    For NRZ decomposed as ``y[n] = sum_k s_k h[n-k]/2`` (``s_k`` in
    {-1, +1}, ``h`` the single-bit pulse cursors at drive swing
    ``amplitude`` pp), the zero-forcing tap j must subtract
    ``s_{n-j} h[j]/2``; with decided values stored as
    ``+-decision_amplitude`` the tap weight is
    ``h[j] / (2 * decision_amplitude)``.
    """
    if n_taps < 1:
        raise ValueError(f"n_taps must be >= 1, got {n_taps}")
    if decision_amplitude <= 0:
        raise ValueError(
            f"decision_amplitude must be positive, got {decision_amplitude}"
        )
    pulse = pulse_response(channel, bit_rate,
                           samples_per_bit=samples_per_bit,
                           amplitude=amplitude)
    post = pulse.postcursors()[:n_taps]
    if len(post) < n_taps:
        raise ValueError("pulse response too short for the tap count")
    return np.asarray(post) / (2.0 * decision_amplitude)
