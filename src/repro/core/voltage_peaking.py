"""Voltage-peaking (pre-emphasis) circuit (paper Figs 10, 11).

"The pre-emphasis circuit that is integrated by the CML output interface
is to form a voltage-peaking circuit...  It features a CML tunable delay
buffer and a differentiator circuit.  The CML delay buffer ... controls
the delay by changing the tail current ... to alter voltage-peaking
spike width...  The logical function is similar to that of a digital
XOR gate.  The current of the current source in the differentiator
circuit controls the voltage-peaking spike height."

Mechanism: the differentiator compares the signal with a delayed copy of
itself.  For differential logic levels the XOR-like product

    spike(t) = (x(t) - x(t - tau)) / 2            (for x in {-1, +1})

is nonzero exactly for ``tau`` after each transition, signed in the
direction of the *new* bit, so summing ``height * spike`` onto the
signal boosts every edge — a two-tap FIR pre-emphasis realized in
analog, equivalent to the digital pre-emphasis of Westergaard et al.
(the paper's ref [4]) but without a digital tap engine.

Knobs (both exposed, both cited by the paper):

* **spike width** = the delay-buffer delay, tuned through its tail
  current ("tunable delay to alter the voltage-peaking tuning range up
  to 20 %");
* **spike height** = the differentiator tail current.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple

import numpy as np

from ..devices.mosfet import Mosfet
from ..lti.blocks import Block
from ..signals.waveform import Waveform

__all__ = ["CmlDelayBuffer", "Differentiator", "VoltagePeakingCircuit"]


@dataclasses.dataclass
class CmlDelayBuffer(Block):
    """A CML buffer used as a tunable delay element.

    A current-starved CML stage delays by roughly the slewing time of
    its output node: ``t_d ~ C * V_swing / I_tail``.  Tuning the tail
    current around nominal tunes the delay inversely — the paper quotes
    a tuning range "up to 20 %", which the default current range
    (+-20 %) reproduces.
    """

    nominal_delay: float
    tail_current_nominal: float = 2e-3
    tail_current: float = 2e-3
    name: str = "cml-delay-buffer"

    def __post_init__(self) -> None:
        if self.nominal_delay <= 0:
            raise ValueError(
                f"nominal_delay must be positive, got {self.nominal_delay}"
            )
        if self.tail_current_nominal <= 0 or self.tail_current <= 0:
            raise ValueError("tail currents must be positive")

    @property
    def delay(self) -> float:
        """Actual delay: nominal scaled by I_nom / I (slewing model)."""
        return self.nominal_delay * self.tail_current_nominal \
            / self.tail_current

    def tuning_fraction(self) -> float:
        """Deviation of the delay from nominal, as a fraction."""
        return self.delay / self.nominal_delay - 1.0

    def tuned(self, current_factor: float) -> "CmlDelayBuffer":
        """Same buffer with the tail current scaled (the width knob)."""
        if current_factor <= 0:
            raise ValueError(
                f"current_factor must be positive, got {current_factor}"
            )
        return dataclasses.replace(
            self, tail_current=self.tail_current_nominal * current_factor
        )

    def process(self, wave: Waveform) -> Waveform:
        return wave.delayed(self.delay)

    @property
    def supply_current(self) -> float:
        return self.tail_current


@dataclasses.dataclass
class Differentiator(Block):
    """The XOR-like analog differentiator (paper Fig 11).

    Output: ``height * (S(x(t)) - S(x(t - tau))) / 2`` where ``S`` is the
    saturating (tanh) characteristic of the input pairs normalized to
    +-1.  For settled logic levels this equals ``height * sign(new bit)``
    during the ``tau`` window after a transition and zero elsewhere —
    the signed XOR spike train.

    ``height`` is the spike amplitude ``I_tail * R_load`` of the
    differentiator's output stage: the paper's spike-height control is
    the differentiator tail current.
    """

    delay: CmlDelayBuffer
    tail_current: float = 2e-3
    load_resistance: float = 25.0
    logic_amplitude: float = 0.1
    name: str = "differentiator"

    def __post_init__(self) -> None:
        if self.tail_current <= 0:
            raise ValueError(
                f"tail_current must be positive, got {self.tail_current}"
            )
        if self.load_resistance <= 0:
            raise ValueError(
                f"load_resistance must be positive, got {self.load_resistance}"
            )
        if self.logic_amplitude <= 0:
            raise ValueError(
                f"logic_amplitude must be positive, got {self.logic_amplitude}"
            )

    @property
    def spike_height(self) -> float:
        """Peak spike amplitude I_tail * R_load."""
        return self.tail_current * self.load_resistance

    @property
    def spike_width(self) -> float:
        """Spike duration = the delay-buffer delay."""
        return self.delay.delay

    def process(self, wave: Waveform) -> Waveform:
        delayed = self.delay.process(wave)

        def saturate(v: np.ndarray, out=None) -> np.ndarray:
            # Sharp current steering: settled levels (+-logic_amplitude/2)
            # land at tanh(4) ~ 0.9993 of full steering.
            steered = np.divide(v, self.logic_amplitude / 8.0, out=out)
            return np.tanh(steered, out=steered)

        # 0.5 * (S(x) - S(x_delayed)) * height, in place (the delayed
        # copy is this call's own).
        spikes = saturate(wave.data)
        spikes -= saturate(delayed.data, out=delayed.data)
        spikes *= 0.5
        spikes *= self.spike_height
        return wave.with_data(spikes)

    def with_tail_current(self, tail_current: float) -> "Differentiator":
        """Spike-height knob: change the differentiator tail current."""
        return dataclasses.replace(self, tail_current=tail_current)

    @property
    def supply_current(self) -> float:
        return self.tail_current + self.delay.supply_current


@dataclasses.dataclass
class VoltagePeakingCircuit(Block):
    """Main path + differentiator spikes summed at the driver node.

    Sits "between CML output stage 1 and stage 2" (Fig 10): the input is
    the first driver stage's output, and the output — main signal plus
    edge spikes — feeds the remaining driver stages.  ``enabled=False``
    produces the Fig 16(a) ablation (driver without peaking).
    """

    differentiator: Differentiator
    enabled: bool = True
    name: str = "voltage-peaking"

    def process(self, wave: Waveform) -> Waveform:
        if not self.enabled:
            return wave
        spikes = self.differentiator.process(wave)
        # The sum goes into the spikes' own array.
        np.add(wave.data, spikes.data, out=spikes.data)
        return spikes

    def disabled(self) -> "VoltagePeakingCircuit":
        """The Fig 16(a) variant."""
        return dataclasses.replace(self, enabled=False)

    # -- equivalence with FIR pre-emphasis -----------------------------------
    def equivalent_fir_taps(self, signal_amplitude: float
                            ) -> Tuple[float, float]:
        """The 2-tap FIR (main, post) this circuit approximates.

        For settled levels of amplitude ``a`` the peaked signal is
        ``x + h*(x - x_delayed)/(2a)``-shaped, i.e. taps
        ``(1 + k, -k)`` with ``k = spike_height / (2 * signal_amplitude)``
        — the standard transmit pre-emphasis form, enabling comparison
        with digital-pre-emphasis baselines (the paper's ref [4]).
        """
        if signal_amplitude <= 0:
            raise ValueError(
                f"signal_amplitude must be positive, got {signal_amplitude}"
            )
        k = self.differentiator.spike_height / (2.0 * signal_amplitude)
        return (1.0 + k, -k)

    def preemphasis_db(self, signal_amplitude: float) -> float:
        """Pre-emphasis ratio in dB: boosted edge vs settled level.

        The edge of a peaked waveform reaches ``a + h`` against a
        settled level of ``a``.
        """
        if signal_amplitude <= 0:
            raise ValueError(
                f"signal_amplitude must be positive, got {signal_amplitude}"
            )
        boosted = signal_amplitude + self.differentiator.spike_height
        return 20.0 * math.log10(boosted / signal_amplitude)

    @property
    def supply_current(self) -> float:
        if not self.enabled:
            return 0.0
        return self.differentiator.supply_current
