"""Full I/O interface assembly (paper Figs 2 and 3, Table I).

This module wires the blocks of Sections II-III into the two interfaces
the paper reports on, with default device sizes calibrated so the
headline numbers land where Table I puts them:

* input interface (equalizer + limiting amplifier): ~40 dB differential
  DC gain, ~9.5 GHz bandwidth, 250 mV output swing;
* output interface (level shift + voltage peaking + tapered driver):
  ~8 mA final-stage drive into 50 ohm;
* total power ~70 mW at 1.8 V, input area 0.02 mm^2, output 0.008 mm^2.

``build_input_interface()`` / ``build_output_interface()`` construct the
paper's design; the classes accept any block mix for ablations.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from ..channel.backplane import BackplaneChannel
from ..devices.active_inductor import ActiveInductor
from ..devices.mosfet import nmos, pmos
from ..devices.varactor import MosVaractor
from ..lti.blocks import Pipeline
from ..lti.transfer_function import RationalTF
from ..signals.waveform import Waveform
from .bandgap import BetaMultiplierReference
from .cml_buffer import CmlBuffer
from .equalizer import CherryHooperEqualizer
from .gain_stage import GainStage
from .limiting_amplifier import LimitingAmplifier
from .loads import ActiveInductorLoad, ResistiveLoad
from .output_driver import LevelShifter, TaperedDriver
from .power_area import MM2, PowerAreaBudget
from .voltage_peaking import (
    CmlDelayBuffer,
    Differentiator,
    VoltagePeakingCircuit,
)

__all__ = [
    "InputInterface",
    "OutputInterface",
    "CmlIoInterface",
    "build_input_interface",
    "build_output_interface",
    "build_io_interface",
]

#: Per-block layout areas in m^2, from the paper's floorplan (Fig 13):
#: input interface 0.02 mm^2, output interface 0.008 mm^2.
_AREA = {
    "equalizer": 0.004 * MM2,
    "la-input-buffer": 0.002 * MM2,
    "gain-stage": 0.0025 * MM2,
    "la-output-buffer": 0.002 * MM2,
    "input-bias": 0.002 * MM2,
    "level-shifter": 0.0005 * MM2,
    "voltage-peaking": 0.0015 * MM2,
    "driver": 0.005 * MM2,
    "output-bias": 0.001 * MM2,
}


@dataclasses.dataclass
class InputInterface:
    """Equalizer + limiting amplifier (paper Fig 2)."""

    equalizer: CherryHooperEqualizer
    limiting_amplifier: LimitingAmplifier
    bandgap: BetaMultiplierReference = dataclasses.field(
        default_factory=BetaMultiplierReference
    )
    equalizer_enabled: bool = True
    name: str = "input-interface"

    # -- signal path ---------------------------------------------------------
    def to_pipeline(self) -> Pipeline:
        """The behavioral receive path."""
        stages = []
        if self.equalizer_enabled:
            stages.append(self.equalizer.to_block())
        stages.extend(self.limiting_amplifier.to_pipeline().stages())
        return Pipeline(stages, name=self.name)

    def process(self, wave: Waveform) -> Waveform:
        """Receive a waveform: equalize (if enabled) then limit-amplify."""
        return self.to_pipeline().process(wave)

    # -- metrics ------------------------------------------------------------
    def small_signal_tf(self) -> RationalTF:
        """End-to-end small-signal response."""
        tf = self.limiting_amplifier.small_signal_tf()
        if self.equalizer_enabled:
            tf = self.equalizer.small_signal_tf().cascade(tf)
        return tf

    def dc_gain_db(self) -> float:
        """Differential DC gain in dB (Table I: 40 dB)."""
        return 20.0 * math.log10(abs(self.small_signal_tf().dc_gain()))

    def bandwidth_3db(self) -> float:
        """-3 dB bandwidth in Hz (Table I: 9.5 GHz)."""
        return self.small_signal_tf().bandwidth_3db()

    @property
    def output_swing(self) -> float:
        """Limiting output amplitude for the CDR (paper: ~250 mV)."""
        return self.limiting_amplifier.output_swing

    # -- variants ------------------------------------------------------------
    def without_equalizer(self) -> "InputInterface":
        """The Fig 15(a) ablation: bypass the equalizer."""
        return dataclasses.replace(self, equalizer_enabled=False)

    # -- budget ---------------------------------------------------------------
    def budget(self, vdd: float = 1.8) -> PowerAreaBudget:
        """Power/area ledger of the input interface."""
        budget = PowerAreaBudget(vdd=vdd)
        if self.equalizer_enabled:
            budget.add("equalizer", self.equalizer.supply_current,
                       _AREA["equalizer"])
        la = self.limiting_amplifier
        budget.add("la-input-buffer", la.input_buffer.supply_current,
                   _AREA["la-input-buffer"])
        for index, stage in enumerate(la.gain_stages):
            budget.add(f"gain-stage-{index + 1}", stage.supply_current,
                       _AREA["gain-stage"])
        budget.add("la-output-buffer", la.output_buffer.supply_current,
                   _AREA["la-output-buffer"])
        budget.add("input-bias", self.bandgap.supply_current,
                   _AREA["input-bias"])
        return budget


@dataclasses.dataclass
class OutputInterface:
    """Level shifter + voltage peaking + tapered driver (paper Fig 3).

    The peaking circuit sits between the first driver stage and the
    rest of the taper, per Fig 10 ("Vin from CML output stage 1 / Vout
    to CML output stage 2").
    """

    level_shifter: LevelShifter
    driver: TaperedDriver
    peaking: VoltagePeakingCircuit
    bandgap: BetaMultiplierReference = dataclasses.field(
        default_factory=BetaMultiplierReference
    )
    name: str = "output-interface"

    def to_pipeline(self) -> Pipeline:
        """Level shift -> tapered driver -> peaking summed at the line.

        The peaking circuit taps the driver signal (Fig 10: "Vin from
        CML output stage 1") and its differentiator output sums in the
        *current domain* at the 50-ohm line node.  Voltage-domain
        injection between limiting stages would be erased by the
        downstream tanh characteristic; summing the differentiator's
        drive current at the output node — where the spike rides on top
        of the settled level — is what the measured Fig 16(b) waveform
        shows (edges overshooting the settled swing).
        """
        stages = [self.level_shifter]
        stages.extend(self.driver.to_pipeline().stages())
        stages.append(self.peaking)
        return Pipeline(stages, name=self.name)

    def process(self, wave: Waveform) -> Waveform:
        """Transmit a waveform onto the line."""
        return self.to_pipeline().process(wave)

    # -- metrics -------------------------------------------------------------
    @property
    def output_current(self) -> float:
        """Final-stage drive current (paper: ~8 mA)."""
        return self.driver.output_current

    @property
    def output_swing_pp(self) -> float:
        """Single-ended output swing into the line."""
        return self.driver.output_swing_pp

    def small_signal_tf(self) -> RationalTF:
        """Linearized transmit response (peaking branch excluded)."""
        return self.level_shifter.transfer_function().cascade(
            self.driver.small_signal_tf()
        )

    def bandwidth_3db(self) -> float:
        """-3 dB bandwidth of the transmit path."""
        return self.small_signal_tf().bandwidth_3db()

    # -- variants --------------------------------------------------------------
    def without_peaking(self) -> "OutputInterface":
        """The Fig 16(a) ablation: voltage peaking disabled."""
        return dataclasses.replace(self, peaking=self.peaking.disabled())

    # -- budget ----------------------------------------------------------------
    def budget(self, vdd: float = 1.8) -> PowerAreaBudget:
        """Power/area ledger of the output interface."""
        budget = PowerAreaBudget(vdd=vdd)
        budget.add("level-shifter", self.level_shifter.supply_current,
                   _AREA["level-shifter"])
        budget.add("voltage-peaking", self.peaking.supply_current,
                   _AREA["voltage-peaking"])
        budget.add("driver", self.driver.supply_current, _AREA["driver"])
        budget.add("output-bias", self.bandgap.supply_current,
                   _AREA["output-bias"])
        return budget


@dataclasses.dataclass
class CmlIoInterface:
    """The full link: output interface -> backplane -> input interface.

    This is the configuration of the paper's Fig 14 eye diagrams (with a
    zero-length channel) and the Fig 15/16 channel experiments.
    """

    output_interface: OutputInterface
    input_interface: InputInterface
    channel: Optional[BackplaneChannel] = None
    name: str = "cml-io-interface"

    def process(self, wave: Waveform) -> Waveform:
        """Run a waveform through the complete link."""
        wave = self.output_interface.process(wave)
        if self.channel is not None:
            wave = self.channel.process(wave)
        return self.input_interface.process(wave)

    def receive_only(self, wave: Waveform) -> Waveform:
        """Receive path alone (the Fig 14 configuration: pattern
        generator straight into the input interface)."""
        return self.input_interface.process(wave)

    def budget(self, vdd: float = 1.8) -> PowerAreaBudget:
        """Combined power/area ledger (Table I's 70 mW / 0.028 mm^2)."""
        return self.input_interface.budget(vdd).merged(
            self.output_interface.budget(vdd), prefix="tx-"
        )


# ---------------------------------------------------------------------------
# Default builders: the paper's design point.
# ---------------------------------------------------------------------------

def _default_varactor() -> MosVaractor:
    """The M7/M8 neutralization varactors."""
    return MosVaractor(width=4e-6, length=0.5e-6)


def build_input_interface(
    feedback_loop_gain: float = 1.2,
    gain_stage_resistance: float = 260.0,
    equalizer_control_voltage: float = 0.7,
    input_offset_voltage: float = 0.0,
) -> InputInterface:
    """The paper's input interface at its calibrated design point.

    Defaults give ~41 dB DC gain, ~9.6 GHz bandwidth and a 250 mV
    limiting output swing (paper: 40 dB, 9.5 GHz, 250 mV).
    """
    varactor = _default_varactor()
    equalizer = CherryHooperEqualizer(
        input_pair=nmos(20e-6, 0.18e-6, 1e-3),
        control_voltage=equalizer_control_voltage,
    )
    input_buffer = CmlBuffer(
        input_pair=nmos(20e-6, 0.18e-6, 1e-3),
        load=ActiveInductorLoad(
            ActiveInductor(pmos(40e-6, 0.18e-6, 1e-3), gate_resistance=1200.0)
        ),
        tail_current=2e-3,
        c_load_ext=54e-15,
        source_resistance=250.0,
        feedback_loop_gain=feedback_loop_gain,
        neg_miller=varactor,
        name="la-input-buffer",
    )
    gain_stages = [
        GainStage(
            input_pair=nmos(40e-6, 0.18e-6, 1.25e-3),
            load_resistance=gain_stage_resistance,
            tail_current=2.5e-3,
            c_load_ext=54e-15,
            source_resistance=gain_stage_resistance,
            feedback_loop_gain=feedback_loop_gain,
            neg_miller=varactor,
            name=f"gain-stage-{index + 1}",
        )
        for index in range(4)
    ]
    output_buffer = CmlBuffer(
        input_pair=nmos(40e-6, 0.18e-6, 2e-3),
        load=ResistiveLoad(62.5),
        tail_current=4e-3,
        c_load_ext=100e-15,
        source_resistance=gain_stage_resistance,
        feedback_loop_gain=feedback_loop_gain,
        neg_miller=varactor,
        name="la-output-buffer",
    )
    amplifier = LimitingAmplifier(
        input_buffer=input_buffer,
        gain_stages=gain_stages,
        output_buffer=output_buffer,
        input_offset_voltage=input_offset_voltage,
    )
    return InputInterface(equalizer=equalizer, limiting_amplifier=amplifier)


def build_output_interface(
    peaking_enabled: bool = True,
    spike_width_ui: float = 0.35,
    spike_current: float = 1.5e-3,
    bit_rate: float = 10e9,
    feedback_loop_gain: float = 1.0,
) -> OutputInterface:
    """The paper's output interface at its calibrated design point.

    The 2 mA first stage tapers 2x per stage to the paper's ~8 mA final
    driver; the peaking spike width defaults to 0.35 UI at 10 Gb/s with
    the +-20 % tail-current tuning of Fig 10 available via
    ``CmlDelayBuffer.tuned``.
    """
    varactor = _default_varactor()
    level_shifter = LevelShifter(follower=nmos(20e-6, 0.18e-6, 0.5e-3))
    first_stage = CmlBuffer(
        input_pair=nmos(20e-6, 0.18e-6, 1e-3),
        load=ActiveInductorLoad(
            ActiveInductor(pmos(60e-6, 0.18e-6, 1e-3), gate_resistance=700.0)
        ),
        tail_current=2e-3,
        c_load_ext=80e-15,
        source_resistance=100.0,
        feedback_loop_gain=feedback_loop_gain,
        neg_miller=varactor,
        name="driver-stage-1",
    )
    driver = TaperedDriver(first_stage=first_stage, taper_ratio=2.0,
                           n_stages=3, line_impedance=50.0,
                           double_terminated=True)
    # The differentiator drives the same terminated line node as the
    # final stage: spike height = I_diff * (Z0/2), referenced to the
    # driver's settled output amplitude.
    line_swing = driver.output_swing_pp
    delay = CmlDelayBuffer(nominal_delay=spike_width_ui / bit_rate,
                           tail_current_nominal=1.5e-3, tail_current=1.5e-3)
    differentiator = Differentiator(delay=delay, tail_current=spike_current,
                                    load_resistance=driver.effective_load_ohm,
                                    logic_amplitude=line_swing)
    peaking = VoltagePeakingCircuit(differentiator=differentiator,
                                    enabled=peaking_enabled)
    return OutputInterface(level_shifter=level_shifter, driver=driver,
                           peaking=peaking)


def build_io_interface(
    channel: Optional[BackplaneChannel] = None,
    peaking_enabled: bool = True,
    equalizer_enabled: bool = True,
) -> CmlIoInterface:
    """The complete link at the paper's design point."""
    input_interface = build_input_interface()
    if not equalizer_enabled:
        input_interface = input_interface.without_equalizer()
    output_interface = build_output_interface(peaking_enabled=peaking_enabled)
    return CmlIoInterface(output_interface=output_interface,
                          input_interface=input_interface,
                          channel=channel)
