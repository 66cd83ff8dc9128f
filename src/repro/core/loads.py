"""Load elements for CML stages and the node-impedance algebra.

A CML stage is a differential transconductance pushing current into a
load network; its small-signal response is ``gm * Z_node(s)`` where
``Z_node`` is the load element in parallel with the node capacitance.
This module provides the load elements the paper uses — plain pull-up
resistors (gain stages, Fig 9), PMOS active inductors (buffers, Fig 6),
spiral inductors (the area baseline) — and the parallel-combination
algebra that turns them into transfer functions.
"""

from __future__ import annotations

import dataclasses
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ..devices.active_inductor import ActiveInductor
from ..devices.passives import SpiralInductor
from ..lti.transfer_function import RationalTF, _polyadd, _polymul

__all__ = [
    "LoadElement",
    "ResistiveLoad",
    "ActiveInductorLoad",
    "SpiralInductorLoad",
    "ParallelLoad",
    "node_impedance",
    "stage_tf",
]


@runtime_checkable
class LoadElement(Protocol):
    """Anything that can hang off a CML output node."""

    def impedance_tf(self) -> RationalTF:
        """Z(s) of the element alone (no node capacitance)."""
        ...

    @property
    def r_dc(self) -> float:
        """DC resistance (sets the stage's DC gain)."""
        ...

    @property
    def area(self) -> float:
        """Layout area in m^2 (for the power/area bookkeeping)."""
        ...


@dataclasses.dataclass(frozen=True)
class ResistiveLoad:
    """A poly pull-up resistor — the gain-stage load of Fig 9."""

    resistance: float
    #: Poly resistors are small; a few hundred ohms is ~30 um^2.
    area_per_ohm: float = 0.1e-12

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise ValueError(f"resistance must be positive, got {self.resistance}")

    def impedance_tf(self) -> RationalTF:
        return RationalTF.constant(self.resistance)

    @property
    def r_dc(self) -> float:
        return self.resistance

    @property
    def area(self) -> float:
        return self.resistance * self.area_per_ohm


@dataclasses.dataclass(frozen=True)
class ActiveInductorLoad:
    """The paper's PMOS active-inductor load (Fig 6).

    Wraps :class:`~repro.devices.active_inductor.ActiveInductor` and adds
    the layout-area model: the whole element is one PMOS plus a gate
    resistor — a few tens of um^2, the source of the 80 % area saving
    versus spirals.
    """

    inductor: ActiveInductor
    #: Area of the PMOS + gate resistor, dominated by the device width.
    area_per_width: float = 2.5e-6  # m^2 per metre of width  (2.5 um height)

    def impedance_tf(self) -> RationalTF:
        return self.inductor.impedance_tf()

    @property
    def r_dc(self) -> float:
        return self.inductor.r_dc

    @property
    def area(self) -> float:
        return self.inductor.device.width * self.area_per_width

    def scaled(self, width_factor: float) -> "ActiveInductorLoad":
        """Scale the PMOS width — the Fig 7 bandwidth-control knob."""
        return dataclasses.replace(self,
                                   inductor=self.inductor.scaled(width_factor))


@dataclasses.dataclass(frozen=True)
class SpiralInductorLoad:
    """Series R + spiral L load — the on-chip-inductor baseline.

    The classic shunt-peaked load the paper's techniques replace:
    same response family, ~50x the area per element.
    """

    resistance: float
    spiral: SpiralInductor

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise ValueError(f"resistance must be positive, got {self.resistance}")

    def impedance_tf(self) -> RationalTF:
        # R + sL (spiral loss folded into R; SRF ignored in-band).
        return RationalTF(np.array([self.spiral.inductance, self.resistance]),
                          np.array([1.0]))

    @property
    def r_dc(self) -> float:
        return self.resistance

    @property
    def area(self) -> float:
        return self.spiral.area


@dataclasses.dataclass(frozen=True)
class ParallelLoad:
    """Several load elements in parallel on one node."""

    elements: Sequence[LoadElement]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("ParallelLoad needs at least one element")
        # A tuple keeps the load hashable (stage lowerings are cached by
        # field value, see repro.core.cml_buffer).
        object.__setattr__(self, "elements", tuple(self.elements))

    def impedance_tf(self) -> RationalTF:
        # 1/Z = sum(1/Z_i): accumulate admittances as rationals.
        y_num = np.array([0.0])
        y_den = np.array([1.0])
        for element in self.elements:
            z = element.impedance_tf()
            # y_i = z.den / z.num
            y_num = _polyadd(_polymul(y_num, z.num), _polymul(z.den, y_den))
            y_den = _polymul(y_den, z.num)
        return RationalTF(y_den, y_num)

    @property
    def r_dc(self) -> float:
        conductance = sum(1.0 / e.r_dc for e in self.elements)
        return 1.0 / conductance

    @property
    def area(self) -> float:
        return sum(e.area for e in self.elements)


def node_impedance(load: LoadElement, node_capacitance: float) -> RationalTF:
    """Z_node(s) = Z_load(s) || 1/(s C).

    With ``Z = n/d``:  Z_node = n / (d + s C n) — this is where inductive
    peaking appears: an active-inductor numerator zero against the node
    capacitance produces the complex-pole peaked response of Fig 7(b).
    """
    if node_capacitance < 0:
        raise ValueError(
            f"node capacitance must be >= 0, got {node_capacitance}"
        )
    z = load.impedance_tf()
    if node_capacitance == 0:
        return z
    # z.den * 1 is z.den itself: only the s C n product needs a multiply.
    den = _polyadd(z.den, _polymul(np.array([node_capacitance, 0.0]), z.num))
    return RationalTF(z.num, den)


def stage_tf(gm: float, load: LoadElement,
             node_capacitance: float) -> RationalTF:
    """Small-signal stage response ``gm * Z_node(s)``."""
    if gm <= 0:
        raise ValueError(f"gm must be positive, got {gm}")
    return node_impedance(load, node_capacitance).scaled(gm)
