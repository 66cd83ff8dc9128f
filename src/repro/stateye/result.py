"""Typed results of the statistical eye engine.

Every compliance summary — the combined BER, the optimum sampling point,
fixed-threshold bathtub curves, eye contours at a target BER and the eye
height and width they give — has one implementation here, written over a
surface stack ``S[r, e, p, v]`` (rows, sub-eyes, phases, voltages).
:class:`StatEyeBatchResult` holds the per-row summary columns of a stack
(and, optionally, the stack itself; ``keep_surfaces=False`` drops it for
flat-memory mega-sweeps).  :class:`StatEyeResult` is one row: it keeps
that row's surfaces, and each accessor is a one-row call of the same
functions, so it can ask for any target BER or sub-eye.

Conventions
-----------
* ``surfaces[e, p, m]`` is the *conditional adjacent-pair* error
  probability of sub-eye ``e``: given the transmitted symbol is one of
  the two levels bounding the sub-eye (each with probability 1/2), the
  probability that a slicer at phase ``phases_ui[p]`` / threshold
  ``voltages[m]`` decides wrongly —
  ``0.5 * (P(upper <= v) + P(lower > v))``.  Its Gaussian limit is
  ``0.5 * erfc(Q / sqrt(2))``, the per-eye term of
  :func:`repro.analysis.ber.ber_from_q_factors`, so the combined BER
  here follows that function's convention exactly:
  ``BER = (2/L) * sum_e surface_e / bits_per_symbol``.
* ``eye=None`` selects the *worst* sub-eye for contour/height/width
  accessors (matching :class:`~repro.analysis.eye.EyeMeasurement`'s
  worst-sub-eye scalars) and the *combined* curve for :meth:`bathtub`
  and :meth:`StatEyeResult.min_ber`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from ..analysis.ber import BathtubCurve
from ..signals.batch import SHARED, RowStack
from ..signals.modulation import Modulation

__all__ = ["StatEyeResult", "StatEyeBatchResult"]


# -- summaries over a surface stack S[r, e, p, v] -----------------------------

def _flat_center_argmin(values: np.ndarray) -> np.ndarray:
    """Centre index of the (possibly flat) minimum region along the last
    axis.

    Probability floors produce plateaus; the centre is the robust pick
    (as a CDR would make).  Values within ``1e-12`` relative *or*
    ``1e-15`` absolute of the minimum are tied — the engine's FFT path
    carries ~1e-16 of round-off, so finer distinctions are numerical
    noise and tie-breaking on them would make the pick depend on batch
    shape.  :meth:`~repro.analysis.ber.BathtubCurve.best_phase_ui` ties
    on the relative term only, so on a curve whose minimum is below
    ~1e-3 it can see a narrower plateau and pick another phase.  The
    ties need not be contiguous: the pick is the middle one of them.
    """
    flat = values <= values.min(axis=-1, keepdims=True) * (1.0 + 1e-12) \
        + 1e-15
    rank = np.cumsum(flat, axis=-1)
    return np.argmax(rank > rank[..., -1:] // 2, axis=-1)


def _combine(per_eye: np.ndarray, modulation: Modulation) -> np.ndarray:
    """Per-sub-eye conditional error probabilities (sub-eyes on axis 1)
    -> combined BER, the :func:`ber_from_q_factors` convention."""
    ser = (2.0 / modulation.n_levels) * per_eye.sum(axis=1)
    return ser / modulation.bits_per_symbol


def _optimum(surfaces: np.ndarray, modulation: Modulation
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The combined BER per phase with per-eye *per-phase-optimal*
    thresholds ``(r, p)``, the phase index minimizing it ``(r,)`` and
    the per-eye best threshold indices at that phase ``(r, e)``."""
    phase_ber = _combine(surfaces.min(axis=-1), modulation)
    best = _flat_center_argmin(phase_ber)
    rows = np.arange(len(surfaces))
    return phase_ber, best, _flat_center_argmin(surfaces[rows, :, best])


def _fixed_bathtubs(surfaces: np.ndarray,
                    thresholds: np.ndarray) -> np.ndarray:
    """Per-eye BER versus phase at the fixed threshold indices
    ``(r, e)``: ``(r, e, p)``."""
    return np.take_along_axis(surfaces, thresholds[:, :, None, None],
                              axis=-1)[..., 0]


def _worst_eye(surfaces: np.ndarray) -> np.ndarray:
    """Per row, the sub-eye with the highest best-case BER (the
    compliance limiter), ``(r,)``."""
    return surfaces.min(axis=(2, 3)).argmax(axis=1)


def _contours(surfaces: np.ndarray, anchor: np.ndarray,
              voltages: np.ndarray, target: float
              ) -> Tuple[np.ndarray, np.ndarray]:
    """``(lower, upper)`` voltage bounds of the contiguous run of
    ``surfaces[..., v] <= target`` around threshold index ``anchor``
    (broadcast over ``surfaces.shape[:-1]``); NaN where closed.

    Where the anchor bin itself misses the target (its value can hover
    at the engine's float noise floor for targets near 1e-15), the run
    is anchored at that row's own best threshold instead.  The run is
    bounded by the last miss at or before the anchor and the first miss
    after it.
    """
    good = surfaces <= target
    anchor = np.array(np.broadcast_to(anchor, good.shape[:-1]))
    miss = ~np.take_along_axis(good, anchor[..., None], axis=-1)[..., 0]
    anchor[miss] = _flat_center_argmin(surfaces[miss])
    index = np.arange(good.shape[-1])
    lo = np.where(~good & (index <= anchor[..., None]), index,
                  -1).max(axis=-1) + 1
    hi = np.where(~good & (index > anchor[..., None]), index,
                  good.shape[-1]).min(axis=-1) - 1
    shut = lo > anchor
    return (np.where(shut, np.nan, voltages[np.where(shut, 0, lo)]),
            np.where(shut, np.nan, voltages[hi]))


def _eye_heights(surfaces: np.ndarray, anchor: np.ndarray,
                 voltages: np.ndarray, target: float) -> np.ndarray:
    """Height of each :func:`_contours` run; zero where closed."""
    lower, upper = _contours(surfaces, anchor, voltages, target)
    return np.where(np.isfinite(lower), upper - lower, 0.0)


def _eye_widths(bathtubs: np.ndarray, target: float) -> np.ndarray:
    """Fraction of the UI where each (floored) bathtub stays below
    ``target``, the :meth:`BathtubCurve.eye_opening_at` rule."""
    return np.sum(bathtubs < target, axis=-1) / bathtubs.shape[-1]


def _summaries(surfaces: np.ndarray, modulation: Modulation,
               phases_ui: np.ndarray, voltages: np.ndarray,
               target_ber: float, ber_floor: float) -> Dict[str, np.ndarray]:
    """The summary columns of :class:`StatEyeBatchResult` for a stack:
    combined BER and fixed-threshold bathtub, optimum point, and the
    worst sub-eye's height (at the best phase) and width at
    ``target_ber``."""
    phase_ber, best, thresholds = _optimum(surfaces, modulation)
    fixed = _fixed_bathtubs(surfaces, thresholds)
    rows = np.arange(len(surfaces))
    worst = _worst_eye(surfaces)
    return dict(
        min_bers=phase_ber.min(axis=-1),
        best_phases_ui=phases_ui[best],
        best_thresholds=voltages[thresholds],
        eye_heights=_eye_heights(surfaces[rows, worst, best],
                                 thresholds[rows, worst], voltages,
                                 target_ber),
        eye_widths_ui=_eye_widths(
            np.clip(fixed[rows, worst], ber_floor, 0.5), target_ber),
        bathtubs=np.clip(_combine(fixed, modulation), ber_floor, 0.5),
    )


@dataclasses.dataclass(frozen=True, eq=False)
class StatEyeResult:
    """One scenario's statistical eye: per-sub-eye BER(t, v) surfaces.

    Parameters
    ----------
    modulation:
        The line code the surfaces were built for (``n_eyes`` sub-eyes).
    phases_ui:
        Sampling phases across one UI, ``(n_phases,)``; the pulse peak
        sits at phase 0.5 (eye centre).
    voltages:
        Decision-threshold grid in volts, ``(n_voltages,)`` ascending.
    surfaces:
        ``(n_eyes, n_phases, n_voltages)`` conditional adjacent-pair
        error probabilities (see module docstring).
    """

    modulation: Modulation
    phases_ui: np.ndarray
    voltages: np.ndarray
    surfaces: np.ndarray
    noise_rms: float = 0.0
    rj_rms_ui: float = 0.0
    dj_pp_ui: float = 0.0
    target_ber: float = 1e-12
    ber_floor: float = 1e-18

    def __post_init__(self) -> None:
        expected = (self.modulation.n_eyes, len(self.phases_ui),
                    len(self.voltages))
        if np.shape(self.surfaces) != expected:
            raise ValueError(
                f"surfaces must have shape (n_eyes, n_phases, n_voltages) "
                f"= {expected}, got {np.shape(self.surfaces)}"
            )

    # -- geometry ----------------------------------------------------------
    @property
    def n_eyes(self) -> int:
        """Number of vertical sub-eyes (1 for NRZ, 3 for PAM4)."""
        return self.modulation.n_eyes

    @property
    def n_phases(self) -> int:
        """Phase-grid resolution across one UI."""
        return len(self.phases_ui)

    @property
    def n_voltages(self) -> int:
        """Voltage-grid resolution."""
        return len(self.voltages)

    def _eye_index(self, eye: Optional[int]) -> int:
        if eye is None:
            return self.worst_eye_index()
        if not 0 <= eye < self.n_eyes:
            raise ValueError(
                f"eye must be in 0..{self.n_eyes - 1} for "
                f"{self.modulation.name}, got {eye}"
            )
        return int(eye)

    def _target(self, target_ber: Optional[float]) -> float:
        target = self.target_ber if target_ber is None else target_ber
        if not 0.0 < target < 0.5:
            raise ValueError(f"target_ber must be in (0, 0.5), got {target}")
        return target

    def _optimum(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`_optimum` of this row, as a one-row stack."""
        return _optimum(self.surfaces[np.newaxis], self.modulation)

    def worst_eye_index(self) -> int:
        """Sub-eye with the highest best-case BER (the compliance
        limiter)."""
        return int(_worst_eye(self.surfaces[np.newaxis])[0])

    # -- optimum sampling point --------------------------------------------
    def combined_phase_ber(self) -> np.ndarray:
        """Combined BER per phase with per-eye *per-phase-optimal*
        thresholds, ``(n_phases,)``."""
        return self._optimum()[0][0]

    @property
    def best_phase_ui(self) -> float:
        """Sampling phase minimizing the combined BER."""
        return float(self.phases_ui[self._optimum()[1][0]])

    def best_threshold_indices(self) -> np.ndarray:
        """Per-sub-eye optimal threshold grid indices at the best
        phase, ``(n_eyes,)``."""
        return self._optimum()[2][0]

    @property
    def best_thresholds(self) -> np.ndarray:
        """Per-sub-eye optimal threshold voltages at the best phase."""
        return self.voltages[self.best_threshold_indices()]

    @property
    def ber(self) -> float:
        """Combined BER at the optimum sampling phase/thresholds."""
        return float(np.min(self.combined_phase_ber()))

    def min_ber(self, eye: Optional[int] = None) -> float:
        """Best achievable BER: combined (``eye=None``) or one
        sub-eye's conditional error probability."""
        if eye is None:
            return self.ber
        return float(np.min(self.surfaces[self._eye_index(eye)]))

    # -- derived compliance views ------------------------------------------
    def ber_surface(self, eye: Optional[int] = None) -> np.ndarray:
        """One sub-eye's BER(t, v) surface (default: worst sub-eye)."""
        return self.surfaces[self._eye_index(eye)]

    def bathtub(self, eye: Optional[int] = None) -> BathtubCurve:
        """BER versus sampling phase at the *fixed* optimal thresholds.

        ``eye=None`` combines all sub-eyes into the link BER (exactly
        the single sub-eye curve for NRZ); an integer selects one
        sub-eye's conditional curve.  The BER is floored at
        :attr:`ber_floor` so log-domain consumers never see zero.
        """
        fixed = _fixed_bathtubs(self.surfaces[np.newaxis],
                                self._optimum()[2])
        if eye is None:
            ber = _combine(fixed, self.modulation)[0]
        else:
            ber = fixed[0, self._eye_index(eye)]
        return BathtubCurve(phases_ui=np.array(self.phases_ui),
                            ber=np.clip(ber, self.ber_floor, 0.5))

    def contour(self, target_ber: Optional[float] = None,
                eye: Optional[int] = None
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Statistical eye contour at ``target_ber``.

        Returns per-phase ``(lower, upper)`` voltage bounds of the
        region where the sub-eye's BER stays at or below the target —
        the contiguous open region around the optimal threshold.  NaN
        where the eye is closed at that phase.  When the fixed optimal
        threshold bin itself misses the target (its value can hover at
        the engine's float noise floor for targets near 1e-15), the
        run is anchored at that phase's own best threshold instead.
        """
        target = self._target(target_ber)
        e = self._eye_index(eye)
        return _contours(self.surfaces[e], self.best_threshold_indices()[e],
                         self.voltages, target)

    def eye_height_at(self, target_ber: Optional[float] = None,
                      eye: Optional[int] = None) -> float:
        """Vertical eye opening (V) at ``target_ber``, measured at the
        best phase.  Zero when closed."""
        target = self._target(target_ber)
        e = self._eye_index(eye)
        _, best, thresholds = self._optimum()
        return float(_eye_heights(self.surfaces[e, best], thresholds[:, e],
                                  self.voltages, target)[0])

    def eye_width_ui_at(self, target_ber: Optional[float] = None,
                        eye: Optional[int] = None) -> float:
        """Horizontal eye opening (UI) at ``target_ber`` with the fixed
        optimal threshold.  Zero when closed."""
        target = self._target(target_ber)
        return float(_eye_widths(self.bathtub(self._eye_index(eye)).ber,
                                 target))


@dataclasses.dataclass(frozen=True, eq=False)
class StatEyeBatchResult(RowStack):
    """N scenarios' statistical eyes from one vectorized pass.

    Per-scenario summaries are always present; the stacked surfaces are
    ``None`` when the engine ran with ``keep_surfaces=False`` (the
    flat-memory mode).  Row ``i`` (:meth:`row`) equals
    :meth:`StatEye.analyze` of the same pulse *when the voltage grid is
    pinned* (``v_half_span=...``); without pinning the batch shares one
    grid sized to all scenarios.  Every row shares ``phases_ui`` and
    ``voltages``, so :meth:`concatenate` keeps one copy of each and
    refuses chunks whose grids differ.
    """

    min_bers: np.ndarray
    best_phases_ui: np.ndarray
    best_thresholds: np.ndarray
    eye_heights: np.ndarray
    eye_widths_ui: np.ndarray
    bathtubs: np.ndarray
    modulation: Modulation
    phases_ui: np.ndarray = dataclasses.field(metadata=SHARED)
    voltages: np.ndarray = dataclasses.field(metadata=SHARED)
    surfaces: Optional[np.ndarray] = None
    noise_rms: float = 0.0
    rj_rms_ui: float = 0.0
    dj_pp_ui: float = 0.0
    target_ber: float = 1e-12
    ber_floor: float = 1e-18

    def row(self, index: int) -> StatEyeResult:
        """Scenario ``index`` unpacked into the single-scenario form
        (requires the surfaces: run with ``keep_surfaces=True``)."""
        if self.surfaces is None:
            raise ValueError(
                "surfaces were dropped (keep_surfaces=False); re-run "
                "with keep_surfaces=True to unpack per-scenario results"
            )
        shared = {field.name: getattr(self, field.name)
                  for field in dataclasses.fields(StatEyeResult)}
        return StatEyeResult(**{**shared, "surfaces": self.surfaces[index]})

    def bathtub(self, index: int) -> BathtubCurve:
        """Scenario ``index``'s combined fixed-threshold bathtub curve
        (available even when the surfaces were dropped)."""
        return BathtubCurve(phases_ui=np.array(self.phases_ui),
                            ber=np.array(self.bathtubs[index]))
