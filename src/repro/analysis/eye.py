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

A batch computes three things once and caches them:

* **The fold**: every sub-eye's vertical opening at every (row, phase).
  Each level cluster's extremes are a minimum or maximum over the UI of
  a masked copy of the traces.  The copy is laid out so that the UI axis
  is either outermost, ``(UI, rows, phase)``, or contiguous,
  ``(rows, phase, UI)``, whichever gives the reduction the longer
  contiguous runs.  A wide batch folds UI-major and one long record
  folds phase-major.  One masked copy is alive at a time.
* **The decision thresholds** (estimated from the traces for ``L > 2``).
* **Each sub-eye's crossing pass**: the crossings, their circular
  centring and each row's spread.

A measurement at given phases then takes its heights from the fold and
its level means and sigmas from one ``(rows, UI)`` column of samples,
and it builds each record field as one column for the whole batch.

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


def _slice_levels(values: np.ndarray, thresholds: np.ndarray,
                  axis: int = 0) -> np.ndarray:
    """Level index of every sample: the count of the row's thresholds
    strictly below it (NaN counts low), C-ordered.

    ``values`` has one row per scenario along ``axis`` and
    ``thresholds`` is ``(n_rows, L - 1)``.
    """
    level = np.zeros(values.shape,
                     dtype=np.min_scalar_type(thresholds.shape[1]))
    shape = [1] * values.ndim
    shape[axis] = -1
    for e in range(thresholds.shape[1]):
        level += np.greater(values, thresholds[:, e].reshape(shape),
                            order="C")
    return level


def _wrap(x: np.ndarray) -> np.ndarray:
    """``x`` modulo 1, bit for bit as ``np.mod(x, 1.0)`` gives it.

    For finite ``x`` both round ``x + k`` once, where ``k`` is the
    integer that puts the exact sum in ``[0, 1]``.  NaN and ``inf`` give
    NaN in both.
    """
    return x - np.floor(x)


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


_FIELD_NAMES = tuple(field.name
                     for field in dataclasses.fields(EyeMeasurement))
#: A degenerate (closed) record's fields from ``worst_eye`` on: defaults.
_CLOSED_TAIL = tuple(field.default for field in dataclasses.fields(
    EyeMeasurement)[_FIELD_NAMES.index("worst_eye"):])


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
        return self._batch._fold()[:, 0, phase_index].copy()

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
    per-phase vertical-opening search (the fold), the level statistics
    at each row's sampling phase, the crossing extraction and its
    circular centring.  The fold, thresholds and crossings are computed
    once per batch, and each :class:`EyeMeasurement` field is built as
    one column for the batch.  Multi-level batches estimate decision
    thresholds per row from that row's own traces, so a row's results
    do not depend on the other rows in the batch.

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
        self._heights: Optional[np.ndarray] = None
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

    def _fold(self) -> np.ndarray:
        """Per-sub-eye vertical opening per (scenario, phase), shape
        ``(L - 1, n_scenarios, samples_per_ui)``, computed once.

        Sub-eye ``e`` opens between level clusters ``e`` and ``e + 1``:
        ``min(upper cluster) - max(lower cluster)``, negative when that
        sub-eye is closed and ``-inf`` when a cluster is empty.
        """
        if self._heights is not None:
            return self._heights
        n_rows, n_ui, samples_per_ui = self.traces.shape
        # Masked copies follow the C-ordered mask's layout.  A reduction
        # over the UI is cheapest along long contiguous runs: over
        # whole UI-slices of the batch (UI-major) when a slice holds at
        # least as many samples as a row has UI, else along each
        # (row, phase)'s run of UI (phase-major).
        if n_rows * samples_per_ui >= n_ui:
            folded, ui_axis, row_axis = self.traces.transpose(1, 0, 2), 0, 1
        else:
            folded, ui_axis, row_axis = self.traces.transpose(0, 2, 1), 2, 0
        if self.modulation.n_levels == 2:
            # Binary fast path: threshold exactly 0, single sub-eye.
            high = np.greater(folded, 0.0, order="C")
            upper_min = np.where(high, folded, np.inf).min(axis=ui_axis)
            lower_max = np.where(high, -np.inf, folded).max(axis=ui_axis)
            valid = high.any(axis=ui_axis) & ~high.all(axis=ui_axis)
            self._heights = np.where(valid, upper_min - lower_max,
                                     -np.inf)[np.newaxis]
            return self._heights
        level = _slice_levels(folded, self.decision_thresholds(), row_axis)
        self._heights = np.empty((self.modulation.n_eyes, n_rows,
                                  samples_per_ui))
        upper = level == 0
        for e, heights in enumerate(self._heights):
            lower, upper = upper, level == e + 1
            upper_min = np.where(upper, folded, np.inf).min(axis=ui_axis)
            lower_max = np.where(lower, folded, -np.inf).max(axis=ui_axis)
            valid = upper.any(axis=ui_axis) & lower.any(axis=ui_axis)
            heights[...] = np.where(valid, upper_min - lower_max, -np.inf)
        return self._heights

    def eye_heights(self) -> np.ndarray:
        """Worst-sub-eye vertical opening per (scenario, phase), shape
        ``(n_scenarios, samples_per_ui)`` (see :meth:`_fold`)."""
        return self._fold().min(axis=0)

    def best_phase_indices(self) -> np.ndarray:
        """Per-scenario sampling phase maximizing the vertical opening."""
        return np.argmax(self.eye_heights(), axis=1)

    def _level_stats(self, phases: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Level clusters of each row's samples at its sampling phase.

        Returns per-level ``counts``, ``means`` and ``sigmas``, shape
        ``(L, n_scenarios)``, from the ``(n_scenarios, n_ui)`` column of
        samples at the rows' phases.  Each level sums the whole column
        with zeros outside the level, so the pairwise summation order
        does not depend on which samples the level holds.
        """
        columns = self.traces[np.arange(self.n_scenarios), :, phases]
        level = _slice_levels(columns, self.decision_thresholds())
        masks = level == np.arange(self.modulation.n_levels,
                                   dtype=level.dtype)[:, None, None]
        counts = np.count_nonzero(masks, axis=2)
        n = np.maximum(counts, 1)
        means = np.where(masks, columns, 0.0).sum(axis=2) / n
        deviation = np.where(masks, columns - means[:, :, None], 0.0)
        sigmas = np.sqrt((deviation * deviation).sum(axis=2) / n)
        return counts, means, sigmas

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
        # The edges' flat indices into the (rows, samples - 1) change
        # mask come sorted, so row starts are a search away.
        span = flat.shape[1] - 1
        edges = np.flatnonzero(high[:, 1:] != high[:, :-1])
        rows, cols = np.divmod(edges, span)
        offsets = np.searchsorted(edges, np.arange(0, n_rows * span + 1, span))
        counts = np.diff(offsets)
        v0 = flat[rows, cols]
        v1 = flat[rows, cols + 1]
        times = _wrap((cols + v0 / (v0 - v1)) / self.samples_per_ui)
        # Crossing positions live on the UI circle: a cluster straddling
        # the 0/1 seam defeats any linear centring (its median lands
        # mid-range).  The circular mean always points at the cluster, so
        # moving the seam half a UI away from it unwraps every cluster.
        angles = 2.0 * np.pi * times
        sin_sum = np.bincount(rows, np.sin(angles), minlength=n_rows)
        cos_sum = np.bincount(rows, np.cos(angles), minlength=n_rows)
        center = _wrap(np.arctan2(sin_sum, cos_sum) / (2.0 * np.pi))
        # Where the resultant nearly cancels (crossings spread evenly
        # round the circle) the centre is set by rounding, a crossing
        # within rounding of the seam wraps either way, and a centre
        # within rounding of 0 UI lands on 0 or 1, shifting the row's
        # crossings by a whole UI.  Recompute such rows with the per-row
        # mean, so the result does not depend on the batch's summation
        # order.
        centers = center.take(rows)
        seam = np.abs(_wrap(times - centers) - 0.5)
        suspect = np.hypot(sin_sum, cos_sum) < 1e-6 * counts
        suspect |= (counts > 0) & (np.minimum(center, 1.0 - center) < 1e-9)
        suspect[rows[seam < 1e-9]] = True
        if suspect.any():
            for row in np.flatnonzero(suspect):
                row_angles = angles[offsets[row]:offsets[row + 1]]
                center[row] = _wrap(np.arctan2(
                    np.mean(np.sin(row_angles)), np.mean(np.cos(row_angles)),
                ) / (2.0 * np.pi))
            centers = center.take(rows)
        times = _wrap(times - centers + 0.5) - 0.5 + centers

        n = np.maximum(counts, 1)
        mean = np.bincount(rows, times, minlength=n_rows) / n
        rms = np.sqrt(np.bincount(rows, (times - mean.take(rows)) ** 2,
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
        phases = np.asarray(phases, dtype=np.intp)
        if phases.shape != (self.n_scenarios,):
            phases = np.broadcast_to(phases, (self.n_scenarios,))
        counts, means, sigmas = self._level_stats(phases)
        heights = self._fold()[:, np.arange(self.n_scenarios), phases]
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
        # One list per field, in field order.
        columns = [
            heights.min(axis=0).tolist(), widths.min(axis=0).tolist(),
            (means[-1] - means[0]).tolist(), means[-1].tolist(),
            means[0].tolist(),
            (rms.max(axis=0) * self.unit_interval).tolist(),
            (pp.max(axis=0) * self.unit_interval).tolist(),
            q_factors.min(axis=0).tolist(),
            ((phases + 0.5) / self.samples_per_ui).tolist(),
            [self.n_ui] * self.n_scenarios,
            [self.modulation.n_levels] * self.n_scenarios,
            heights.argmin(axis=0).tolist(),
        ] + [list(zip(*by_eye.tolist()))
             for by_eye in (heights, widths, rms, pp, q_factors, means)]
        # A level never observed at the sampling phase: the signal is
        # degenerate, report a closed eye at the row's mean level.
        degenerate = np.flatnonzero((counts == 0).any(axis=0))
        if degenerate.size:
            mean_level = self.traces[degenerate].reshape(
                degenerate.size, -1).mean(axis=1).tolist()
            for row, level in zip(degenerate.tolist(), mean_level):
                # eye_height .. q_factor, then the defaults' tail.
                closed = (-float("inf"), 0.0, 0.0, level, level, 0.0, 0.0,
                          0.0)
                for column, value in zip(columns, closed):
                    column[row] = value
                for column, value in zip(columns[-len(_CLOSED_TAIL):],
                                         _CLOSED_TAIL):
                    column[row] = value
        # Each record's ``__dict__`` is filled in one call, in field
        # order, not through the frozen ``__init__``: the records are
        # equal, hashable and picklable as ``__init__`` builds them.
        out = []
        for values in zip(*columns):
            record = object.__new__(EyeMeasurement)
            record.__dict__.update(zip(_FIELD_NAMES, values))
            out.append(record)
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
