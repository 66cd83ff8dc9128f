"""The CML output interface driver chain (paper Fig 3).

"This output interface consists of a level-shift circuit, a
voltage-peaking circuit and three-stage CML buffers to be used as a
backplane driver...  The tapered CML output buffer increases driving
capability stage by stage.  The last stage of CML output buffer can
provide approximately 8 mA driving current in order to drive 50 ohm
load and let a output swing range up to 250 mV."

The taper exists because no single stage can drive both the small
on-chip node it is fed from and the 50-ohm line: each stage is a
width-scaled copy of the previous one (constant current density, so
constant swing), multiplying drive current while presenting each stage
with a load only ``taper_ratio`` times its own input capacitance.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List

from ..channel.terminations import cml_output_swing
from ..devices.mosfet import Mosfet
from ..lti.blocks import Block, Pipeline
from ..lti.discretize import simulate_tf
from ..lti.transfer_function import RationalTF, first_order_lowpass
from ..signals.waveform import Waveform
from .cml_buffer import CmlBuffer
from .loads import ActiveInductorLoad, LoadElement, ResistiveLoad

__all__ = ["LevelShifter", "TaperedDriver"]


@dataclasses.dataclass
class LevelShifter(Block):
    """Source-follower level shifter at the driver input.

    Shifts the common mode down by roughly a Vgs so the first driver
    stage's input pair stays in saturation; differentially it is a
    slightly-sub-unity-gain buffer with one pole at ``gm/C`` of the
    follower.  (Common-mode shift does not appear in differential-mode
    waveforms but the block's gain/pole do.)
    """

    follower: Mosfet
    c_load: float = 30e-15
    name: str = "level-shifter"

    @property
    def gain(self) -> float:
        """Follower gain gm/(gm + gmb-ish) — modeled as 0.9 of unity."""
        return 0.9

    @property
    def pole_hz(self) -> float:
        """Follower output pole gm/(2 pi C)."""
        return self.follower.gm / (2.0 * math.pi
                                   * (self.c_load + self.follower.cgs / 3.0))

    def transfer_function(self) -> RationalTF:
        return first_order_lowpass(self.pole_hz, gain=self.gain)

    def process(self, wave: Waveform) -> Waveform:
        return wave.with_data(simulate_tf(self.transfer_function(),
                                          wave.data, wave.sample_rate))

    @property
    def supply_current(self) -> float:
        """Static current of both follower legs."""
        return 2.0 * self.follower.drain_current


@dataclasses.dataclass
class TaperedDriver:
    """Three width-scaled CML stages driving the 50-ohm line.

    Parameters
    ----------
    first_stage:
        The smallest (innermost) stage; subsequent stages are generated
        by :meth:`CmlBuffer.scaled`-style width multiplication.
    taper_ratio:
        Width/current multiplication per stage (2.0 gives the paper's
        2 mA -> 4 mA -> 8 mA progression).
    n_stages:
        Number of stages (the paper uses three).
    line_impedance:
        The transmission-line impedance the last stage drives.
    double_terminated:
        Whether the far end is also terminated (effective load Z0/2).
    """

    first_stage: CmlBuffer
    taper_ratio: float = 2.0
    n_stages: int = 3
    line_impedance: float = 50.0
    double_terminated: bool = True
    name: str = "tapered-driver"

    def __post_init__(self) -> None:
        if self.taper_ratio <= 0:
            raise ValueError(
                f"taper_ratio must be positive, got {self.taper_ratio}"
            )
        if self.n_stages < 1:
            raise ValueError(f"n_stages must be >= 1, got {self.n_stages}")
        if self.line_impedance <= 0:
            raise ValueError(
                f"line_impedance must be positive, got {self.line_impedance}"
            )

    # -- stage construction -------------------------------------------------
    def stages(self) -> List[CmlBuffer]:
        """The driver stages, smallest first, last one loaded by the line.

        Each inner stage's load element scales *down* in resistance as
        the device scales up (constant swing); the final stage's load is
        the terminated line itself.
        """
        stages = []
        for index in range(self.n_stages):
            factor = self.taper_ratio**index
            pair = self.first_stage.input_pair.scaled(factor)
            tail = self.first_stage.tail_current * factor
            is_last = index == self.n_stages - 1
            if is_last:
                load: LoadElement = ResistiveLoad(self.effective_load_ohm)
                c_ext = 200e-15  # pad + ESD capacitance
            else:
                load = self._scaled_load(factor)
                next_pair = self.first_stage.input_pair.scaled(
                    self.taper_ratio**(index + 1)
                )
                c_ext = next_pair.cgs + next_pair.cgd
            stages.append(dataclasses.replace(
                self.first_stage,
                input_pair=pair,
                tail_current=tail,
                load=load,
                c_load_ext=c_ext,
                source_resistance=(self.first_stage.source_resistance
                                   if index == 0 else
                                   self._scaled_load(factor
                                                     / self.taper_ratio).r_dc),
                name=f"driver-stage-{index + 1}",
            ))
        return stages

    def _scaled_load(self, factor: float) -> LoadElement:
        base = self.first_stage.load
        if isinstance(base, ActiveInductorLoad):
            return base.scaled(factor)
        return ResistiveLoad(base.r_dc / factor)

    @property
    def effective_load_ohm(self) -> float:
        """Load seen by the last stage (Z0/2 when doubly terminated)."""
        if self.double_terminated:
            return self.line_impedance / 2.0
        return self.line_impedance

    # -- headline numbers -----------------------------------------------------
    @property
    def output_current(self) -> float:
        """Tail current of the final stage (the paper's ~8 mA)."""
        return (self.first_stage.tail_current
                * self.taper_ratio**(self.n_stages - 1))

    @property
    def output_swing_pp(self) -> float:
        """Single-ended peak-to-peak swing into the line."""
        return cml_output_swing(self.output_current, self.line_impedance,
                                self.double_terminated)

    @property
    def differential_swing_pp(self) -> float:
        """Differential peak-to-peak output swing (2x single-ended)."""
        return 2.0 * self.output_swing_pp

    def small_signal_tf(self) -> RationalTF:
        """Cascade response of the driver chain."""
        tf = RationalTF.constant(1.0)
        for stage in self.stages():
            tf = tf.cascade(stage.small_signal_tf())
        return tf

    def bandwidth_3db(self) -> float:
        """-3 dB bandwidth of the chain."""
        return self.small_signal_tf().bandwidth_3db()

    # -- simulation --------------------------------------------------------
    def to_pipeline(self) -> Pipeline:
        """The behavioral stage chain (limiting included per stage)."""
        return Pipeline([stage.to_block() for stage in self.stages()],
                        name=self.name)

    def process(self, wave: Waveform) -> Waveform:
        """Drive a waveform through the taper onto the line."""
        return self.to_pipeline().process(wave)

    @property
    def supply_current(self) -> float:
        """Static current of all stages."""
        return sum(stage.supply_current for stage in self.stages())
