"""Eye-diagram construction and measurement.

The sampling-oscilloscope substitute: fold a waveform at the unit
interval, locate the optimum sampling phase, and extract the metrics the
paper's Figs 14-16 are read by eye — vertical opening (eye height),
horizontal opening (eye width), crossing jitter and the Q-factor that
connects the eye to a bit-error ratio.

Multi-level signals (:class:`~repro.signals.modulation.Modulation`) fold
into ``L - 1`` stacked sub-eyes; every vertical metric is then computed
per sub-eye and the scalar fields of :class:`EyeMeasurement` report the
*worst* sub-eye (the one that limits the link), with the per-eye values
kept alongside.  For the default two-level NRZ the decision threshold is
exactly 0 V (differential signaling) and everything reduces to the
classic single-eye measurement.  For ``L > 2`` thresholds are estimated
from the folded traces themselves (min/max swing fit plus one Lloyd
refinement of the level clusters), since the received swing is
generally unknown after a lossy channel.

Every measurement runs as one vectorized pass over a batch of folded
rows (:class:`EyeDiagramBatch`); :class:`EyeDiagram` is a batch of one.
A sample rate that is not a whole multiple of the bit rate is resampled
row by row to ``max(8, ceil(samples/UI))`` samples per UI before folding.

NaN samples count low, as in the CDR and DFE kernels: the level slicer
files a NaN in the lowest level and the crossing detector treats it as
below the threshold.  Statistics that include a NaN sample (a level's
mean and extremes, a crossing interpolated from it) are NaN.  A
multi-level row holding a NaN gets NaN thresholds, so all its samples
slice low and it reports the closed eye of a degenerate signal.

All horizontal quantities can be read in seconds or unit intervals (UI).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..signals.batch import WaveformBatch, _lift
from ..signals.modulation import Modulation, Nrz
from ..signals.waveform import Waveform

__all__ = ["EyeMeasurement", "EyeDiagram", "EyeDiagramBatch",
           "measure_eye_batch"]

#: Whole UI an eye needs after ``skip_ui``.
MIN_EYE_UI = 8


def _slice_levels(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Level index of every sample: the count of the row's thresholds
    strictly below it (NaN counts low).

    ``values`` has one row per scenario and ``thresholds`` is
    ``(n_rows, L - 1)``.
    """
    level = np.zeros(values.shape,
                     dtype=np.min_scalar_type(thresholds.shape[1]))
    shape = (-1,) + (1,) * (values.ndim - 1)
    for e in range(thresholds.shape[1]):
        level += values > thresholds[:, e].reshape(shape)
    return level


def _fill_cluster_means(means: np.ndarray, flat: np.ndarray,
                        level: np.ndarray) -> None:
    """Set ``means[row, i]`` to ``flat[row][level[row] == i].mean()``
    for every non-empty cluster, bit for bit.

    A masked row sum adds the same samples in another order, and a
    shallow crossing amplifies the last bits into the threshold.  So
    each level's samples are gathered row-major (each row's cluster
    contiguous, in sample order) and the clusters of one size are
    stacked into the rows of one array: summing along them adds in the
    same pairwise order as the 1-D ``mean``, one pass per distinct size.
    """
    for i in range(means.shape[1]):
        mask = level == i
        values = flat[mask]
        counts = np.count_nonzero(mask, axis=1)
        starts = np.cumsum(counts) - counts
        for size in np.unique(counts[counts > 0]):
            rows = np.flatnonzero(counts == size)
            cluster = values[starts[rows, np.newaxis] + np.arange(size)]
            means[rows, i] = cluster.sum(axis=1) / size


def _estimate_thresholds(traces: np.ndarray,
                         modulation: Modulation) -> np.ndarray:
    """Estimate per-row sub-eye decision thresholds from folded traces.

    Nominal thresholds from each row's observed min/max swing, then one
    Lloyd refinement: slice, take the mean of each level cluster (the
    nominal level when the cluster is empty), re-midpoint.  Rows with no
    swing get zero thresholds.  Only used for ``L > 2`` — the NRZ
    threshold is exactly 0 V and is never estimated.  Returns
    ``(n_rows, L - 1)``.
    """
    flat = traces.reshape(len(traces), -1)
    lo = flat.min(axis=1, keepdims=True)
    hi = flat.max(axis=1, keepdims=True)
    swing = hi - lo
    center = 0.5 * (lo + hi)
    level = _slice_levels(flat, center + modulation.threshold_values(swing))
    means = center + modulation.level_values(swing)
    _fill_cluster_means(means, flat, level)
    thresholds = (means[:, :-1] + means[:, 1:]) / 2.0
    thresholds[swing[:, 0] <= 0] = 0.0
    return thresholds


@dataclasses.dataclass(frozen=True)
class EyeMeasurement:
    """The numbers a scope's eye-mask panel reports.

    All voltages in volts, times in seconds unless suffixed ``_ui``.
    For multi-level signals the scalar fields report the *worst* of the
    ``L - 1`` sub-eyes (index :attr:`worst_eye`) and the per-eye values
    are kept in the ``*_by_eye``-style tuples; ``level_one`` /
    ``level_zero`` are the outermost level means and :attr:`levels`
    holds all of them.  For NRZ (the default) there is a single eye and
    the scalars are the classic measurement.
    """

    eye_height: float
    eye_width_ui: float
    eye_amplitude: float
    level_one: float
    level_zero: float
    jitter_rms: float
    jitter_pp: float
    q_factor: float
    sampling_phase_ui: float
    n_ui: int
    n_levels: int = 2
    worst_eye: int = 0
    eye_heights: Optional[Tuple[float, ...]] = None
    eye_widths_ui: Optional[Tuple[float, ...]] = None
    eye_jitter_rms_ui: Optional[Tuple[float, ...]] = None
    eye_jitter_pp_ui: Optional[Tuple[float, ...]] = None
    q_factors: Optional[Tuple[float, ...]] = None
    levels: Optional[Tuple[float, ...]] = None

    @property
    def n_eyes(self) -> int:
        """Number of vertical sub-eyes (1 for NRZ, 3 for PAM4)."""
        return self.n_levels - 1

    @property
    def eye_opening_fraction(self) -> float:
        """Vertical opening relative to the eye amplitude (0..1)."""
        if self.eye_amplitude <= 0:
            return 0.0
        return max(0.0, self.eye_height) / self.eye_amplitude

    @property
    def is_open(self) -> bool:
        """True when both height and width are positive (every sub-eye:
        the scalars are the worst one)."""
        return self.eye_height > 0 and self.eye_width_ui > 0


class EyeDiagram:
    """A waveform folded at the unit interval.

    Every measurement is that of an :class:`EyeDiagramBatch` of one row,
    so it equals the matching row of a batched measurement exactly.

    Parameters
    ----------
    wave:
        The waveform to fold (resampled as :class:`EyeDiagramBatch`
        does when its rate is not a whole multiple of ``bit_rate``).
    bit_rate:
        The symbol (UI) rate defining the unit interval.
    skip_ui:
        Unit intervals dropped from the start (filter settling).  The
        default drops 8 UI.
    modulation:
        Level alphabet of the signal; ``None`` means two-level NRZ.
    """

    def __init__(self, wave: Waveform, bit_rate: float, skip_ui: int = 8,
                 modulation: Optional[Modulation] = None):
        self._batch = EyeDiagramBatch(_lift(wave)[0], bit_rate,
                                      skip_ui=skip_ui, modulation=modulation)
        self.samples_per_ui = self._batch.samples_per_ui
        self.bit_rate = bit_rate
        self.unit_interval = self._batch.unit_interval
        self.modulation = self._batch.modulation
        self.traces = self._batch.traces[0]
        self.n_ui = self._batch.n_ui

    # -- folded views ---------------------------------------------------------
    def two_ui_traces(self) -> np.ndarray:
        """Traces spanning two UI (the customary scope display window)."""
        flat = self.traces.reshape(-1)
        n_pairs = self.n_ui - 1
        window = 2 * self.samples_per_ui
        return np.stack([flat[i * self.samples_per_ui:
                              i * self.samples_per_ui + window]
                         for i in range(n_pairs)])

    def phase_axis_ui(self) -> np.ndarray:
        """Phase positions (0..1) of the samples within a UI."""
        return (np.arange(self.samples_per_ui) + 0.5) / self.samples_per_ui

    # -- vertical measurements --------------------------------------------
    def decision_thresholds(self) -> np.ndarray:
        """Per-sub-eye decision thresholds, in volts (exactly ``[0.0]``
        for two-level signaling)."""
        return self._batch.decision_thresholds()[0]

    def eye_heights_at(self, phase_index: int) -> np.ndarray:
        """Per-sub-eye vertical opening at a sampling phase (negative
        when that sub-eye is closed, ``-inf`` when a level is missing)."""
        phases = np.array([phase_index], dtype=np.intp)
        return self._batch._level_stats(phases)[3][:, 0]

    def eye_height_at(self, phase_index: int) -> float:
        """Worst-sub-eye vertical opening at a sampling phase."""
        return float(np.min(self.eye_heights_at(phase_index)))

    def best_phase_index(self) -> int:
        """The sampling phase maximizing the (worst-sub-eye) opening."""
        return int(self._batch.best_phase_indices()[0])

    # -- horizontal measurements ----------------------------------------------
    def crossing_times_ui(self, eye: Optional[int] = None) -> np.ndarray:
        """Threshold-crossing positions of all edges, in UI modulo 1,
        centred on their circular mean (middle sub-eye by default)."""
        return self._batch.crossing_times_ui(eye)[0]

    def jitter_rms_ui(self, eye: Optional[int] = None) -> float:
        """RMS crossing jitter in UI (middle sub-eye by default)."""
        return float(self._batch.jitter_rms_ui(eye)[0])

    def jitter_pp_ui(self, eye: Optional[int] = None) -> float:
        """Peak-to-peak crossing jitter in UI (middle eye by default)."""
        return float(self._batch.jitter_pp_ui(eye)[0])

    def eye_width_ui(self, eye: Optional[int] = None) -> float:
        """Horizontal opening: 1 UI minus the peak-to-peak jitter."""
        return float(self._batch.eye_width_ui(eye)[0])

    # -- composite measurement ------------------------------------------------
    def measure(self) -> EyeMeasurement:
        """Full scope-style measurement at the optimum sampling phase."""
        return self._batch.measure_all()[0]

    def measure_at(self, phase: int) -> EyeMeasurement:
        """Scope-style measurement at a given sampling-phase index."""
        return self._batch.measure_at(phase)[0]

    # -- convenience ----------------------------------------------------------
    @classmethod
    def measure_waveform(cls, wave: Waveform, bit_rate: float,
                         skip_ui: int = 8,
                         modulation: Optional[Modulation] = None
                         ) -> EyeMeasurement:
        """One-call fold-and-measure."""
        return cls(wave, bit_rate, skip_ui=skip_ui,
                   modulation=modulation).measure()


class EyeDiagramBatch:
    """Every row of a :class:`WaveformBatch` folded at the unit interval.

    Each measurement is one vectorized pass over all scenarios: the
    per-phase vertical-opening search, the level statistics at each
    row's sampling phase, the crossing extraction and its circular
    centring.  Only the final :class:`EyeMeasurement` records are built
    row by row.  Multi-level batches estimate decision thresholds per
    row from that row's own traces, so a row's results do not depend on
    the other rows in the batch.

    A sample rate that is not an integer multiple of ``bit_rate`` (the
    encoder always gives one) is first resampled row by row through
    :meth:`Waveform.resampled <repro.signals.waveform.Waveform.resampled>`
    to ``max(8, ceil(samples/UI))`` samples per UI.
    """

    def __init__(self, batch: WaveformBatch, bit_rate: float,
                 skip_ui: int = 8,
                 modulation: Optional[Modulation] = None):
        if bit_rate <= 0:
            raise ValueError(f"bit_rate must be positive, got {bit_rate}")
        if skip_ui < 0:
            raise ValueError(f"skip_ui must be >= 0, got {skip_ui}")
        samples_per_ui = batch.sample_rate / bit_rate
        if abs(samples_per_ui - round(samples_per_ui)) > 1e-6:
            samples_per_ui = max(8, math.ceil(samples_per_ui))
            rows = [row.resampled(bit_rate * samples_per_ui).data
                    for row in batch]
            batch = WaveformBatch(np.stack(rows), bit_rate * samples_per_ui,
                                  t0=batch.t0)
        self.samples_per_ui = int(round(samples_per_ui))
        if self.samples_per_ui < 4:
            raise ValueError(
                "need at least 4 samples per UI for eye analysis, got "
                f"{self.samples_per_ui}"
            )
        self.bit_rate = bit_rate
        self.unit_interval = 1.0 / bit_rate
        self.modulation = Nrz() if modulation is None else modulation

        data = batch.data[:, skip_ui * self.samples_per_ui:]
        n_ui = data.shape[1] // self.samples_per_ui
        if n_ui < MIN_EYE_UI:
            raise ValueError(
                f"too short for an eye: {n_ui} UI after skipping"
            )
        self.traces = data[:, : n_ui * self.samples_per_ui].reshape(
            batch.n_scenarios, n_ui, self.samples_per_ui
        )
        self.n_ui = n_ui
        self.n_scenarios = batch.n_scenarios
        self._thresholds: Optional[np.ndarray] = None
        self._crossings: Dict[int, Tuple[np.ndarray, ...]] = {}

    # -- vertical measurements ---------------------------------------------
    def decision_thresholds(self) -> np.ndarray:
        """Per-row decision thresholds, shape ``(n_scenarios, L - 1)``.

        Exactly zero for two-level signaling (differential NRZ slices at
        zero by construction); estimated per row from that row's folded
        traces for ``L > 2`` (see :func:`_estimate_thresholds`)."""
        if self._thresholds is None:
            if self.modulation.n_levels == 2:
                self._thresholds = np.zeros((self.n_scenarios, 1))
            else:
                self._thresholds = _estimate_thresholds(self.traces,
                                                        self.modulation)
        return self._thresholds

    def eye_heights(self) -> np.ndarray:
        """Worst-sub-eye vertical opening per (scenario, phase), shape
        ``(n_scenarios, samples_per_ui)`` — one vectorized pass.

        Sub-eye ``e`` opens between level clusters ``e`` and ``e + 1``:
        ``min(upper cluster) - max(lower cluster)``, negative when that
        sub-eye is closed and ``-inf`` when a cluster is empty."""
        if self.modulation.n_levels == 2:
            # Binary fast path: threshold exactly 0, single sub-eye.
            ones_mask = self.traces > 0
            ones_min = np.min(np.where(ones_mask, self.traces, np.inf),
                              axis=1)
            zeros_max = np.max(np.where(ones_mask, -np.inf, self.traces),
                               axis=1)
            valid = ones_mask.any(axis=1) & (~ones_mask).any(axis=1)
            return np.where(valid, ones_min - zeros_max, -np.inf)
        counts = _slice_levels(self.traces, self.decision_thresholds())
        worst: Optional[np.ndarray] = None
        for e in range(self.modulation.n_eyes):
            upper_mask = counts == e + 1
            lower_mask = counts == e
            upper_min = np.min(np.where(upper_mask, self.traces, np.inf),
                               axis=1)
            lower_max = np.max(np.where(lower_mask, self.traces, -np.inf),
                               axis=1)
            valid = upper_mask.any(axis=1) & lower_mask.any(axis=1)
            height = np.where(valid, upper_min - lower_max, -np.inf)
            worst = height if worst is None else np.minimum(worst, height)
        return worst

    def best_phase_indices(self) -> np.ndarray:
        """Per-scenario sampling phase maximizing the vertical opening."""
        return np.argmax(self.eye_heights(), axis=1)

    def _level_stats(self, phases: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
        """Level clusters of each row's samples at its sampling phase.

        Returns per-level ``counts``, ``means`` and ``sigmas``, shape
        ``(L, n_scenarios)``, and per-sub-eye ``heights``, shape
        ``(L - 1, n_scenarios)`` (``-inf`` where a cluster is empty).
        """
        columns = np.take_along_axis(self.traces, phases[:, None, None],
                                     axis=2)[:, :, 0]
        level = _slice_levels(columns, self.decision_thresholds())
        masks = level == np.arange(self.modulation.n_levels)[:, None, None]
        counts = masks.sum(axis=2)
        n = np.maximum(counts, 1)
        means = np.where(masks, columns, 0.0).sum(axis=2) / n
        deviation = np.where(masks, columns - means[:, :, None], 0.0)
        sigmas = np.sqrt((deviation * deviation).sum(axis=2) / n)
        lowest = np.where(masks, columns, np.inf).min(axis=2)
        highest = np.where(masks, columns, -np.inf).max(axis=2)
        observed = counts > 0
        heights = np.where(observed[1:] & observed[:-1],
                           lowest[1:] - highest[:-1], -np.inf)
        return counts, means, sigmas, heights

    # -- horizontal measurements (vectorized extraction) -------------------
    def _eye_index(self, eye: Optional[int]) -> int:
        if eye is None:
            return self.modulation.center_threshold_index
        if not 0 <= eye < self.modulation.n_eyes:
            raise ValueError(
                f"eye must be in 0..{self.modulation.n_eyes - 1}, got {eye}"
            )
        return int(eye)

    def _crossing_pass(self, e: int) -> Tuple[np.ndarray, ...]:
        """Centred crossings of sub-eye ``e`` for every row, cached.

        Returns the flat crossing positions (row-major, in UI), the row
        offsets into them, and per-row RMS and peak-to-peak spread (0
        for rows with fewer than two crossings).
        """
        if e in self._crossings:
            return self._crossings[e]
        n_rows = self.n_scenarios
        flat = self.traces.reshape(n_rows, -1)
        thresholds = self.decision_thresholds()[:, e]
        if np.any(thresholds != 0.0):
            flat = flat - thresholds[:, None]
        high = flat >= 0.0
        rows, cols = np.nonzero(high[:, 1:] != high[:, :-1])
        v0 = flat[rows, cols]
        v1 = flat[rows, cols + 1]
        times = np.mod((cols + v0 / (v0 - v1)) / self.samples_per_ui, 1.0)
        # Crossing positions live on the UI circle: a cluster straddling
        # the 0/1 seam defeats any linear centring (its median lands
        # mid-range).  The circular mean always points at the cluster, so
        # moving the seam half a UI away from it unwraps every cluster.
        angles = 2.0 * np.pi * times
        counts = np.bincount(rows, minlength=n_rows)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        sin_sum = np.bincount(rows, np.sin(angles), minlength=n_rows)
        cos_sum = np.bincount(rows, np.cos(angles), minlength=n_rows)
        center = np.mod(np.arctan2(sin_sum, cos_sum) / (2.0 * np.pi), 1.0)
        # Where the resultant nearly cancels (crossings spread evenly
        # round the circle) the centre is set by rounding, a crossing
        # within rounding of the seam wraps either way, and a centre
        # within rounding of 0 UI lands on 0 or 1, shifting the row's
        # crossings by a whole UI.  Recompute such rows with the per-row
        # mean, so the result does not depend on the batch's summation
        # order.
        seam = np.abs(np.mod(times - center[rows], 1.0) - 0.5)
        near_seam = np.bincount(rows, seam < 1e-9, minlength=n_rows) > 0
        weak = np.hypot(sin_sum, cos_sum) < 1e-6 * counts
        edge = (counts > 0) & (np.minimum(center, 1.0 - center) < 1e-9)
        for row in np.flatnonzero(near_seam | weak | edge):
            row_angles = angles[offsets[row]:offsets[row + 1]]
            center[row] = np.mod(np.arctan2(
                np.mean(np.sin(row_angles)), np.mean(np.cos(row_angles)),
            ) / (2.0 * np.pi), 1.0)
        center = center[rows]
        times = np.mod(times - center + 0.5, 1.0) - 0.5 + center

        n = np.maximum(counts, 1)
        mean = np.bincount(rows, times, minlength=n_rows) / n
        rms = np.sqrt(np.bincount(rows, (times - mean[rows]) ** 2,
                                  minlength=n_rows) / n)
        pp = np.zeros(n_rows)
        seen = counts > 0
        if times.size:
            starts = offsets[:-1][seen]
            pp[seen] = (np.maximum.reduceat(times, starts)
                        - np.minimum.reduceat(times, starts))
        spread = counts >= 2
        result = (times, offsets, np.where(spread, rms, 0.0),
                  np.where(spread, pp, 0.0))
        self._crossings[e] = result
        return result

    def crossing_times_ui(self, eye: Optional[int] = None
                          ) -> List[np.ndarray]:
        """Per-scenario threshold-crossing positions in UI modulo 1.

        Linear interpolation between the bracketing samples, each row's
        cluster centred on its circular mean; the distribution's spread
        is the crossing jitter.  One vectorized pass over the whole
        batch, cached across the horizontal-metric accessors.  ``eye``
        selects the sub-eye threshold; the default is the middle eye
        (the zero crossing for NRZ — the edge the bang-bang CDR locks
        to).
        """
        times, offsets, _, _ = self._crossing_pass(self._eye_index(eye))
        return np.split(times, offsets[1:-1])

    def jitter_rms_ui(self, eye: Optional[int] = None) -> np.ndarray:
        """Per-row RMS crossing jitter in UI (middle eye by default)."""
        return self._crossing_pass(self._eye_index(eye))[2]

    def jitter_pp_ui(self, eye: Optional[int] = None) -> np.ndarray:
        """Per-row peak-to-peak crossing jitter in UI."""
        return self._crossing_pass(self._eye_index(eye))[3]

    def eye_width_ui(self, eye: Optional[int] = None) -> np.ndarray:
        """Per-row horizontal opening: 1 UI minus the p-p jitter."""
        return np.maximum(0.0, 1.0 - self.jitter_pp_ui(eye))

    # -- composite measurement ---------------------------------------------
    def measure_all(self) -> List[EyeMeasurement]:
        """One :class:`EyeMeasurement` per scenario, each at its row's
        optimum sampling phase."""
        return self.measure_at(self.best_phase_indices())

    def measure_at(self, phases) -> List[EyeMeasurement]:
        """One :class:`EyeMeasurement` per scenario at the given
        sampling-phase index (a scalar, or one per row)."""
        phases = np.broadcast_to(np.asarray(phases, dtype=np.intp),
                                 (self.n_scenarios,))
        counts, means, sigmas, heights = self._level_stats(phases)
        n_eyes = self.modulation.n_eyes
        rms = np.empty((n_eyes, self.n_scenarios))
        pp = np.empty((n_eyes, self.n_scenarios))
        for e in range(n_eyes):
            rms[e], pp[e] = self._crossing_pass(e)[2:]
        widths = np.maximum(0.0, 1.0 - pp)
        separation = means[1:] - means[:-1]
        spread = sigmas[1:] + sigmas[:-1]
        q_factors = np.divide(separation, spread,
                              out=np.full_like(separation, np.inf),
                              where=spread != 0)
        columns = zip(
            heights.min(axis=0).tolist(), widths.min(axis=0).tolist(),
            (means[-1] - means[0]).tolist(), means[-1].tolist(),
            means[0].tolist(),
            (rms.max(axis=0) * self.unit_interval).tolist(),
            (pp.max(axis=0) * self.unit_interval).tolist(),
            q_factors.min(axis=0).tolist(),
            ((phases + 0.5) / self.samples_per_ui).tolist(),
            heights.argmin(axis=0).tolist(), heights.T.tolist(),
            widths.T.tolist(), rms.T.tolist(), pp.T.tolist(),
            q_factors.T.tolist(), means.T.tolist(),
        )
        # A level never observed at the sampling phase: the signal is
        # degenerate, report a closed eye at the row's mean level.
        degenerate = (counts == 0).any(axis=0)
        mean_level = np.zeros(self.n_scenarios)
        if degenerate.any():
            mean_level[degenerate] = self.traces[degenerate].reshape(
                int(degenerate.sum()), -1).mean(axis=1)
        n_levels = self.modulation.n_levels
        out = []
        for row, (height, width, amplitude, one, zero, jitter_rms,
                  jitter_pp, q, phase_ui, worst, by_height, by_width,
                  by_rms, by_pp, by_q, levels) in enumerate(columns):
            if degenerate[row]:
                level = float(mean_level[row])
                out.append(EyeMeasurement(
                    eye_height=-float("inf"), eye_width_ui=0.0,
                    eye_amplitude=0.0, level_one=level, level_zero=level,
                    jitter_rms=0.0, jitter_pp=0.0, q_factor=0.0,
                    sampling_phase_ui=phase_ui, n_ui=self.n_ui,
                    n_levels=n_levels,
                ))
                continue
            out.append(EyeMeasurement(
                eye_height=height, eye_width_ui=width,
                eye_amplitude=amplitude, level_one=one, level_zero=zero,
                jitter_rms=jitter_rms, jitter_pp=jitter_pp, q_factor=q,
                sampling_phase_ui=phase_ui, n_ui=self.n_ui,
                n_levels=n_levels, worst_eye=worst,
                eye_heights=tuple(by_height), eye_widths_ui=tuple(by_width),
                eye_jitter_rms_ui=tuple(by_rms),
                eye_jitter_pp_ui=tuple(by_pp), q_factors=tuple(by_q),
                levels=tuple(levels),
            ))
        return out


def measure_eye_batch(batch: WaveformBatch, bit_rate: float,
                      skip_ui: int = 8,
                      modulation: Optional[Modulation] = None
                      ) -> List[EyeMeasurement]:
    """One-call batched fold-and-measure: one measurement per scenario.

    Equivalent to ``[EyeDiagram.measure_waveform(row, bit_rate, skip_ui,
    modulation=modulation) for row in batch.rows()]`` but with every
    step vectorized across the whole batch.
    """
    return EyeDiagramBatch(batch, bit_rate, skip_ui=skip_ui,
                           modulation=modulation).measure_all()
