"""The spiral-inductor baseline.

The spiral inductor model exists to ground the paper's headline area
claim: "these techniques can reduce 80 % of the circuit area compared to
the circuit area with on-chip inductors" and "the total core area ...
0.028 mm^2 ... is almost equal to an on-chip spiral inductor".  The area
model below makes a few-nH spiral come out at roughly that size, so the
area ablation bench reproduces the claim mechanically rather than by
assertion.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .._units import MICRO

__all__ = ["SpiralInductor"]


@dataclasses.dataclass(frozen=True)
class SpiralInductor:
    """An on-chip spiral inductor with a first-order area/parasitic model.

    Area model: a square spiral of inductance L needs an outer dimension
    that empirically scales like ``d = d_ref * sqrt(L / L_ref)`` with a
    2 nH spiral at ~150 um outer dimension in a 0.18 um back-end —
    i.e. ~0.0225 mm^2 for 2 nH, matching the paper's remark that its
    whole 0.028 mm^2 core is "almost equal to an on-chip spiral
    inductor".
    """

    inductance: float
    q_factor: float = 8.0
    self_resonance_hz: float = 25e9
    _d_ref: float = 150.0 * MICRO
    _l_ref: float = 2e-9

    def __post_init__(self) -> None:
        if self.inductance <= 0:
            raise ValueError(f"inductance must be positive, got {self.inductance}")
        if self.q_factor <= 0:
            raise ValueError(f"q_factor must be positive, got {self.q_factor}")
        if self.self_resonance_hz <= 0:
            raise ValueError("self_resonance_hz must be positive")

    @property
    def outer_dimension(self) -> float:
        """Outer side length of the square spiral in metres."""
        return self._d_ref * math.sqrt(self.inductance / self._l_ref)

    @property
    def area(self) -> float:
        """Layout area in m^2 (the quantity the 80 % claim is about)."""
        return self.outer_dimension**2

    @property
    def series_resistance(self) -> float:
        """Series loss resistance from Q at the self-resonance/4 point."""
        f_q = self.self_resonance_hz / 4.0
        return 2.0 * math.pi * f_q * self.inductance / self.q_factor

    def impedance(self, freq_hz: np.ndarray) -> np.ndarray:
        """Complex impedance including loss and the parallel SRF cap."""
        freq_hz = np.asarray(freq_hz, dtype=float)
        w = 2.0 * np.pi * freq_hz
        z_series = self.series_resistance + 1j * w * self.inductance
        c_par = 1.0 / ((2.0 * np.pi * self.self_resonance_hz) ** 2
                       * self.inductance)
        y = 1.0 / z_series + 1j * w * c_par
        return 1.0 / y
