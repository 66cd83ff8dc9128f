"""The limiting amplifier (paper Fig 2 / Fig 8).

"The limiting amplifier is fully differential ... composed of a CML
input buffer, four gain stage amplifiers and one output buffer.  The
four gain stage amplifiers are self-biased with a feedback network for
DC offset canceling."

The composite delivers the paper's headline receiver numbers: ~40 dB
differential DC gain, ~250 mV output swing for clock-data recovery, and
4 mV input sensitivity.  Each stage limits individually (a cascade of
tanh cells), which is what makes a limiting amplifier different from a
linear one: once any stage saturates, downstream stages square the
signal up rather than distorting it further.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Sequence

from ..lti.blocks import OffsetBlock, Pipeline
from ..lti.transfer_function import RationalTF
from ..signals.waveform import Waveform
from .cml_buffer import CmlBuffer
from .gain_stage import GainStage
from .offset_cancellation import OffsetCancellationNetwork

__all__ = ["LimitingAmplifier"]


@dataclasses.dataclass
class LimitingAmplifier:
    """Input buffer + four gain stages + output buffer + offset loop.

    Parameters
    ----------
    input_buffer, output_buffer:
        The CML buffers bracketing the gain chain.
    gain_stages:
        The cascade of gain cells (the paper uses four).
    offset_network:
        The passive offset-cancellation feedback network.
    input_offset_voltage:
        The input-referred mismatch offset the loop must fight (zero by
        default; tests/benches set a few mV to model process mismatch).
    """

    input_buffer: CmlBuffer
    gain_stages: Sequence[GainStage]
    output_buffer: CmlBuffer
    offset_network: OffsetCancellationNetwork = dataclasses.field(
        default_factory=OffsetCancellationNetwork
    )
    input_offset_voltage: float = 0.0
    name: str = "limiting-amplifier"

    def __post_init__(self) -> None:
        if not self.gain_stages:
            raise ValueError("limiting amplifier needs at least one gain stage")

    # -- small-signal metrics -----------------------------------------------
    def stage_chain(self) -> List:
        """All stages in order: input buffer, gain cells, output buffer."""
        return ([self.input_buffer] + list(self.gain_stages)
                + [self.output_buffer])

    def small_signal_tf(self) -> RationalTF:
        """Cascade transfer function (offset loop excluded — its corner
        is ~kHz, invisible at data rates)."""
        tf = RationalTF.constant(1.0)
        for stage in self.stage_chain():
            tf = tf.cascade(stage.small_signal_tf())
        return tf

    def dc_gain(self) -> float:
        """Small-signal DC gain (linear)."""
        return self.small_signal_tf().dc_gain()

    def dc_gain_db(self) -> float:
        """Small-signal DC gain in dB — the paper's 40 dB figure."""
        return 20.0 * math.log10(abs(self.dc_gain()))

    def bandwidth_3db(self) -> float:
        """-3 dB bandwidth of the full chain — the paper's 9.5 GHz."""
        return self.small_signal_tf().bandwidth_3db()

    def gain_bandwidth_product(self) -> float:
        """A0 * BW in Hz (the LA figure of merit)."""
        return abs(self.dc_gain()) * self.bandwidth_3db()

    @property
    def output_swing(self) -> float:
        """Limiting output amplitude (differential) of the final buffer.

        The paper: "the limiting amplifier output swing is around 250 mV
        for clock data recovery circuit".
        """
        return self.output_buffer.output_swing

    # -- offset behaviour ------------------------------------------------------
    def residual_output_offset(self) -> float:
        """Output DC offset with the cancellation loop closed."""
        return self.offset_network.residual_output_offset(
            self.input_offset_voltage, abs(self.dc_gain())
        )

    def uncancelled_output_offset(self) -> float:
        """What the output offset would be without the loop (saturation!).

        With 40 dB of gain even 5 mV of mismatch wants to be 0.5 V at
        the output — more than the entire swing, which is the failure
        the paper describes ("output signal saturation and duty-cycle
        distortion").
        """
        return self.input_offset_voltage * abs(self.dc_gain())

    def highpass_corner_hz(self) -> float:
        """Low-frequency cut-in created by the offset loop."""
        return self.offset_network.highpass_corner_hz(abs(self.dc_gain()))

    # -- simulation --------------------------------------------------------
    def to_pipeline(self) -> Pipeline:
        """The behavioral stage chain as a pipeline of limiting blocks.

        The offset loop is handled analytically (its time constant is
        ~1e6 x the simulation window): a non-zero mismatch enters as a
        leading :class:`~repro.lti.blocks.OffsetBlock` holding the
        residual input-referred offset after the loop settles.
        """
        blocks = [stage.to_block() for stage in self.stage_chain()]
        if self.input_offset_voltage != 0.0:
            loop = abs(self.dc_gain()) * self.offset_network.sense_gain
            blocks.insert(0, OffsetBlock(
                self.input_offset_voltage / (1.0 + loop),
                name="residual-offset"))
        return Pipeline(blocks, name=self.name)

    def process(self, wave: Waveform) -> Waveform:
        """Amplify a waveform through the limiting chain."""
        return self.to_pipeline().process(wave)

    # -- variants -----------------------------------------------------------
    def with_offset(self, input_offset_voltage: float) -> "LimitingAmplifier":
        """Same amplifier with a given input-referred mismatch offset."""
        return dataclasses.replace(
            self, input_offset_voltage=input_offset_voltage
        )

    def without_feedback(self) -> "LimitingAmplifier":
        """Ablation: active feedback off in every internal stage."""
        return dataclasses.replace(
            self,
            input_buffer=self.input_buffer.without_feedback(),
            gain_stages=[s.without_feedback() for s in self.gain_stages],
            output_buffer=self.output_buffer.without_feedback(),
        )

    def without_neg_miller(self) -> "LimitingAmplifier":
        """Ablation: negative Miller capacitance off everywhere."""
        return dataclasses.replace(
            self,
            input_buffer=self.input_buffer.without_neg_miller(),
            gain_stages=[s.without_neg_miller() for s in self.gain_stages],
            output_buffer=self.output_buffer.without_neg_miller(),
        )

    @property
    def supply_current(self) -> float:
        """Static current of the whole chain."""
        return sum(stage.supply_current for stage in self.stage_chain())
