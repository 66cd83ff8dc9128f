"""Typed results of the statistical eye engine.

A :class:`StatEyeResult` carries the full per-sub-eye BER(t, v) surfaces
of one scenario on the engine's phase × voltage grid, plus the derived
compliance views: bathtub curves, eye contours at a target BER, optimum
sampling point and the combined BER.  :class:`StatEyeBatchResult` is the
vectorized form — per-scenario summary arrays always, the stacked
surfaces optionally (``keep_surfaces=False`` drops them for flat-memory
mega-sweeps).

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
from typing import List, Optional, Tuple

import numpy as np

from ..analysis.ber import BathtubCurve
from ..signals.modulation import Modulation

__all__ = ["StatEyeResult", "StatEyeBatchResult"]


def _flat_center_argmin(values: np.ndarray) -> int:
    """Centre index of the (possibly flat) minimum region.

    Probability floors produce plateaus; the centre is the robust pick
    (as a CDR would make), matching
    :meth:`~repro.analysis.ber.BathtubCurve.best_phase_ui`.  Values
    within 1e-15 absolute are tied — the engine's FFT path carries
    ~1e-16 of round-off, so finer distinctions are numerical noise and
    tie-breaking on them would make the pick depend on batch shape.
    """
    minimum = float(np.min(values))
    flat = np.flatnonzero(values <= minimum * (1.0 + 1e-12) + 1e-15)
    return int(flat[len(flat) // 2])


def _combine_per_eye(per_eye: np.ndarray,
                     modulation: Modulation) -> np.ndarray:
    """Per-sub-eye conditional error probabilities (leading axis ``e``)
    -> combined BER, the :func:`ber_from_q_factors` convention."""
    ser = (2.0 / modulation.n_levels) * per_eye.sum(axis=0)
    return ser / modulation.bits_per_symbol


def _open_run(mask: np.ndarray, start: int) -> Optional[Tuple[int, int]]:
    """The contiguous True run of ``mask`` containing ``start``."""
    if not mask[start]:
        return None
    lo = start
    while lo > 0 and mask[lo - 1]:
        lo -= 1
    hi = start
    while hi < mask.size - 1 and mask[hi + 1]:
        hi += 1
    return lo, hi


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

    def worst_eye_index(self) -> int:
        """Sub-eye with the highest best-case BER (the compliance
        limiter)."""
        return int(np.argmax(self.surfaces.min(axis=(1, 2))))

    # -- optimum sampling point --------------------------------------------
    def combined_phase_ber(self) -> np.ndarray:
        """Combined BER per phase with per-eye *per-phase-optimal*
        thresholds, ``(n_phases,)``."""
        return _combine_per_eye(self.surfaces.min(axis=-1), self.modulation)

    @property
    def best_phase_ui(self) -> float:
        """Sampling phase minimizing the combined BER."""
        return float(self.phases_ui[_flat_center_argmin(
            self.combined_phase_ber())])

    def best_threshold_indices(self) -> np.ndarray:
        """Per-sub-eye optimal threshold grid indices at the best
        phase, ``(n_eyes,)``."""
        p = _flat_center_argmin(self.combined_phase_ber())
        return np.array([_flat_center_argmin(self.surfaces[e, p])
                         for e in range(self.n_eyes)])

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
        vi = self.best_threshold_indices()
        fixed = np.stack([self.surfaces[e, :, vi[e]]
                          for e in range(self.n_eyes)])
        if eye is None:
            ber = _combine_per_eye(fixed, self.modulation)
        else:
            ber = fixed[self._eye_index(eye)]
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
        target = self.target_ber if target_ber is None else target_ber
        if not 0.0 < target < 0.5:
            raise ValueError(
                f"target_ber must be in (0, 0.5), got {target}"
            )
        e = self._eye_index(eye)
        vi = int(self.best_threshold_indices()[e])
        surf = self.surfaces[e]
        lower = np.full(self.n_phases, np.nan)
        upper = np.full(self.n_phases, np.nan)
        for p in range(self.n_phases):
            mask = surf[p] <= target
            run = _open_run(mask, vi)
            if run is None:
                anchor = _flat_center_argmin(surf[p])
                run = _open_run(mask, anchor)
            if run is not None:
                lower[p] = self.voltages[run[0]]
                upper[p] = self.voltages[run[1]]
        return lower, upper

    def eye_height_at(self, target_ber: Optional[float] = None,
                      eye: Optional[int] = None) -> float:
        """Vertical eye opening (V) at ``target_ber``, measured at the
        best phase.  Zero when closed."""
        lower, upper = self.contour(target_ber, eye)
        p = _flat_center_argmin(self.combined_phase_ber())
        if not np.isfinite(lower[p]):
            return 0.0
        return float(upper[p] - lower[p])

    def eye_width_ui_at(self, target_ber: Optional[float] = None,
                        eye: Optional[int] = None) -> float:
        """Horizontal eye opening (UI) at ``target_ber`` with the fixed
        optimal threshold.  Zero when closed."""
        target = self.target_ber if target_ber is None else target_ber
        curve = self.bathtub(eye=self._eye_index(eye))
        return curve.eye_opening_at(target)


@dataclasses.dataclass(frozen=True, eq=False)
class StatEyeBatchResult:
    """N scenarios' statistical eyes from one vectorized pass.

    Per-scenario summaries are always present; the stacked surfaces are
    ``None`` when the engine ran with ``keep_surfaces=False`` (the
    flat-memory mode).  Row ``i`` (:meth:`row`) equals
    :meth:`StatEye.analyze` of the same pulse *when the voltage grid is
    pinned* (``v_half_span=...``); without pinning the batch shares one
    grid sized to all scenarios.
    """

    modulation: Modulation
    phases_ui: np.ndarray
    voltages: np.ndarray
    min_bers: np.ndarray
    best_phases_ui: np.ndarray
    best_thresholds: np.ndarray
    eye_heights: np.ndarray
    eye_widths_ui: np.ndarray
    bathtubs: np.ndarray
    surfaces: Optional[np.ndarray] = None
    noise_rms: float = 0.0
    rj_rms_ui: float = 0.0
    dj_pp_ui: float = 0.0
    target_ber: float = 1e-12
    ber_floor: float = 1e-18

    @property
    def n_scenarios(self) -> int:
        """Number of scenarios in the batch."""
        return len(self.min_bers)

    def __len__(self) -> int:
        return self.n_scenarios

    def row(self, index: int) -> StatEyeResult:
        """Scenario ``index`` unpacked into the single-scenario form
        (requires the surfaces: run with ``keep_surfaces=True``)."""
        if index < 0:
            index += self.n_scenarios
        if not 0 <= index < self.n_scenarios:
            raise IndexError(f"scenario {index} out of range")
        if self.surfaces is None:
            raise ValueError(
                "surfaces were dropped (keep_surfaces=False); re-run "
                "with keep_surfaces=True to unpack per-scenario results"
            )
        return StatEyeResult(
            modulation=self.modulation, phases_ui=self.phases_ui,
            voltages=self.voltages, surfaces=self.surfaces[index],
            noise_rms=self.noise_rms, rj_rms_ui=self.rj_rms_ui,
            dj_pp_ui=self.dj_pp_ui, target_ber=self.target_ber,
            ber_floor=self.ber_floor,
        )

    def rows(self) -> List[StatEyeResult]:
        """Every scenario unpacked (see :meth:`row`)."""
        return [self.row(i) for i in range(self.n_scenarios)]

    def __iter__(self):
        return iter(self.rows())

    @classmethod
    def concatenate(cls, parts: "List[StatEyeBatchResult]"
                    ) -> "StatEyeBatchResult":
        """Stack scenario-chunks back into one batch result.

        All parts must share the engine configuration and therefore the
        phase/voltage grids (the engine guarantees this by sizing the
        grid once across every chunk)."""
        if not parts:
            raise ValueError("cannot concatenate zero StatEyeBatchResults")
        if len(parts) == 1:
            return parts[0]
        first = parts[0]
        for part in parts[1:]:
            for name in ("modulation", "noise_rms", "rj_rms_ui", "dj_pp_ui",
                         "target_ber", "ber_floor"):
                if getattr(part, name) != getattr(first, name):
                    raise ValueError(
                        f"chunks disagree on {name}; they must come from "
                        f"one engine configuration")
            if (not np.array_equal(part.phases_ui, first.phases_ui)
                    or not np.array_equal(part.voltages, first.voltages)
                    or (part.surfaces is None) != (first.surfaces is None)):
                raise ValueError(
                    "chunks disagree on grid/surfaces; they must come "
                    "from one engine configuration"
                )
        surfaces = (None if first.surfaces is None else
                    np.concatenate([part.surfaces for part in parts], axis=0))
        return cls(
            modulation=first.modulation, phases_ui=first.phases_ui,
            voltages=first.voltages,
            min_bers=np.concatenate([p.min_bers for p in parts]),
            best_phases_ui=np.concatenate(
                [p.best_phases_ui for p in parts]),
            best_thresholds=np.concatenate(
                [p.best_thresholds for p in parts], axis=0),
            eye_heights=np.concatenate([p.eye_heights for p in parts]),
            eye_widths_ui=np.concatenate(
                [p.eye_widths_ui for p in parts]),
            bathtubs=np.concatenate([p.bathtubs for p in parts], axis=0),
            surfaces=surfaces, noise_rms=first.noise_rms,
            rj_rms_ui=first.rj_rms_ui, dj_pp_ui=first.dj_pp_ui,
            target_ber=first.target_ber, ber_floor=first.ber_floor,
        )

    def bathtub(self, index: int) -> BathtubCurve:
        """Scenario ``index``'s combined fixed-threshold bathtub curve
        (available even when the surfaces were dropped)."""
        if index < 0:
            index += self.n_scenarios
        if not 0 <= index < self.n_scenarios:
            raise IndexError(f"scenario {index} out of range")
        return BathtubCurve(
            phases_ui=np.array(self.phases_ui),
            ber=np.clip(self.bathtubs[index], self.ber_floor, 0.5))
