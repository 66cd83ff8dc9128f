"""Cherry-Hooper input equalizer with tunable zero (paper Fig 4, Fig 5).

The equalizer is a two-stage Cherry-Hooper amplifier:

* **Stage 1** — a transconductance stage whose differential pair is
  *degenerated* by an NMOS triode resistor and capacitor.  Degeneration
  creates the tunable high-pass zero: the small-signal transconductance

      Gm1(s) = gm (1 + s Rd Cd) / (1 + gm Rd/2 + s Rd Cd)

  is flat at gm/(1+gm Rd/2) at DC and rises to gm above the zero — a
  boost of (1 + gm Rd/2) that compensates the channel's high-frequency
  loss.  The gate voltage V1 of the triode NMOS sets Rd and therefore
  both the boost and the zero frequency, which is exactly the knob the
  paper sweeps in Fig 5 ("the equalizer gain from DC to 6 GHz can be
  adjusted by the NMOS gate voltage").

* **Stage 2** — a trans-impedance stage closed by an *active feedback*
  loop through high-bandwidth current buffers M1/M2.  Without the
  buffers (classic resistive Cherry-Hooper feedback) the feedback
  network loads the stages, costing gain and linearity; with them the
  loop is unloaded — the gain and linearity improvement of Fig 5(b)
  over 5(a).

Matching the paper's Section III-A transfer function, the composite is a
second-order response with a tunable zero:

    Vout/Vin ~ (1 + s/wz) * A0 / ((1 + s/wp1)(1 + s/wp2))   (+ feedback)

The input is matched to 50 ohm through the TIA-style input whose
impedance is ~1/gm of the matching device.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..devices.mosfet import Mosfet
from ..devices.technology import Technology, TSMC180
from ..lti.blocks import WienerHammersteinBlock
from ..lti.transfer_function import RationalTF
from .cml_buffer import apply_active_feedback, lowered_block
from .loads import ResistiveLoad, node_impedance

__all__ = ["TriodeDegeneration", "CherryHooperEqualizer"]


@dataclasses.dataclass(frozen=True)
class TriodeDegeneration:
    """The NMOS-triode degeneration network (the V1 knob).

    An NMOS biased in deep triode presents a channel resistance

        Rd(V1) = 1 / (un Cox (W/L) (V1 - Vth))

    "a degeneration resistor and a degeneration capacitance are
    implemented with NMOS transistor to achieve a small size and a wide
    range of control" — Rd spans roughly 100-600 ohm over V1 in
    0.55-1.2 V with the default geometry.
    """

    width: float = 10e-6
    length: float = 0.18e-6
    capacitance: float = 200e-15
    tech: Technology = TSMC180

    def __post_init__(self) -> None:
        if self.width <= 0 or self.length <= 0:
            raise ValueError("degeneration device dimensions must be positive")
        if self.capacitance <= 0:
            raise ValueError(
                f"degeneration capacitance must be positive, got {self.capacitance}"
            )

    def resistance(self, control_voltage: float) -> float:
        """Triode channel resistance at gate voltage ``control_voltage``."""
        overdrive = control_voltage - self.tech.vth_n
        if overdrive <= 0.02:
            raise ValueError(
                f"control voltage {control_voltage} V leaves the triode "
                f"device below ~20 mV of overdrive (Vth = {self.tech.vth_n} V)"
            )
        k = self.tech.u_n_cox * self.width / self.length
        return 1.0 / (k * overdrive)

    def control_range(self) -> tuple[float, float]:
        """Usable V1 range (just above threshold to the 1.8 V rail)."""
        return (self.tech.vth_n + 0.1, self.tech.vdd)


@dataclasses.dataclass
class CherryHooperEqualizer:
    """The paper's input equalizer.

    Parameters
    ----------
    input_pair:
        Stage-1 differential-pair device (per side).
    degeneration:
        The triode RC network creating the tunable zero.
    control_voltage:
        The V1 gate voltage (the tuning knob of Fig 5).
    r_stage1, r_stage2:
        Load resistances of the two stages.
    c_stage1, c_stage2:
        Node capacitances of the two stages.
    gm_stage2:
        Stage-2 transconductance in siemens.
    feedback_loop_gain:
        DC loop gain of the active-feedback path.
    with_current_buffers:
        True models the active feedback through current buffers M1/M2
        (Fig 5(b)); False models classic loaded resistive feedback
        (Fig 5(a)): the loop still shapes the response but the DC gain
        is not recovered and the limiting headroom is reduced.
    tail_current:
        Stage tail current (power bookkeeping and limiting level).
    """

    input_pair: Mosfet
    degeneration: TriodeDegeneration = dataclasses.field(
        default_factory=TriodeDegeneration
    )
    control_voltage: float = 0.7
    r_stage1: float = 300.0
    r_stage2: float = 250.0
    c_stage1: float = 60e-15
    c_stage2: float = 80e-15
    gm_stage2: float = 8e-3
    feedback_loop_gain: float = 1.0
    with_current_buffers: bool = True
    tail_current: float = 1.5e-3
    match_gm: float = 20e-3
    name: str = "equalizer"

    def __post_init__(self) -> None:
        for field in ("r_stage1", "r_stage2", "c_stage1", "c_stage2",
                      "gm_stage2", "tail_current", "match_gm"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")
        if self.feedback_loop_gain < 0:
            raise ValueError("feedback_loop_gain must be >= 0")
        # Validate the control voltage eagerly (fail at build, not in use).
        self.degeneration.resistance(self.control_voltage)

    # -- tuning-dependent small-signal quantities -----------------------------
    @property
    def degeneration_resistance(self) -> float:
        """Rd at the current control voltage."""
        return self.degeneration.resistance(self.control_voltage)

    @property
    def boost_ratio(self) -> float:
        """High-frequency/DC transconductance ratio 1 + gm Rd / 2."""
        return 1.0 + self.input_pair.gm * self.degeneration_resistance / 2.0

    @property
    def boost_db(self) -> float:
        """The equalization boost in dB."""
        return 20.0 * math.log10(self.boost_ratio)

    @property
    def zero_hz(self) -> float:
        """The tunable zero 1/(2 pi Rd Cd)."""
        rd = self.degeneration_resistance
        return 1.0 / (2.0 * math.pi * rd * self.degeneration.capacitance)

    def gm1_tf(self) -> RationalTF:
        """Degenerated stage-1 transconductance Gm1(s) (in siemens)."""
        gm = self.input_pair.gm
        rd = self.degeneration_resistance
        cd = self.degeneration.capacitance
        num = np.array([gm * rd * cd, gm])
        den = np.array([rd * cd, 1.0 + gm * rd / 2.0])
        return RationalTF(num, den)

    def input_impedance(self) -> float:
        """Input resistance of the matching front end, ~1/gm_match.

        The Cherry-Hooper TIA input presents a low, broadband, resistive
        impedance — the paper's "50 ohm input impedance matching".
        """
        return 1.0 / self.match_gm

    def input_return_loss_db(self, z0: float = 50.0) -> float:
        """Return loss of the input match against ``z0``."""
        zin = self.input_impedance()
        gamma = abs((zin - z0) / (zin + z0))
        if gamma == 0:
            return math.inf
        return -20.0 * math.log10(gamma)

    # -- composite response ----------------------------------------------------
    def small_signal_tf(self) -> RationalTF:
        """Full equalizer transfer function (V/V)."""
        z1 = node_impedance(ResistiveLoad(self.r_stage1), self.c_stage1)
        z2 = node_impedance(ResistiveLoad(self.r_stage2), self.c_stage2)
        open_loop = (self.gm1_tf().cascade(z1)
                     .scaled(self.gm_stage2).cascade(z2))
        return apply_active_feedback(open_loop, self.feedback_loop_gain,
                                     restore_gain=self.with_current_buffers)

    def dc_gain(self) -> float:
        """DC voltage gain."""
        return self.small_signal_tf().dc_gain()

    def dc_gain_db(self) -> float:
        """DC voltage gain in dB."""
        return 20.0 * math.log10(abs(self.dc_gain()))

    def gain_db(self, freq_hz: np.ndarray) -> np.ndarray:
        """Gain magnitude in dB over frequency — the Fig 5 y-axis."""
        return self.small_signal_tf().magnitude_db(freq_hz)

    # -- large-signal / linearity ----------------------------------------------
    @property
    def output_limit(self) -> float:
        """Limiting amplitude of the output stage.

        With current buffers the feedback linearizes the transfer and
        the usable headroom is the full I*R swing; without them the
        loaded feedback network clips earlier (modeled as the same
        swing shrunk by the loop-gain factor) — this is the "gain and
        the linearity are also enhanced" comparison of Fig 5(b).
        """
        swing = self.tail_current * self.r_stage2
        if self.with_current_buffers:
            return swing
        return swing / (1.0 + self.feedback_loop_gain)

    def gain_compression_db(self, input_amplitude: float) -> float:
        """Large-signal gain drop (dB) at a given input amplitude.

        Computed from the tanh characteristic: the describing-function
        gain ``limit*tanh(A0 x / limit)/x`` versus the small-signal A0.
        """
        if input_amplitude <= 0:
            raise ValueError(
                f"input_amplitude must be positive, got {input_amplitude}"
            )
        a0 = abs(self.dc_gain())
        limit = self.output_limit
        effective = limit * math.tanh(a0 * input_amplitude / limit)
        return -20.0 * math.log10(effective / (a0 * input_amplitude))

    def input_p1db(self) -> float:
        """Input amplitude at 1 dB gain compression (bisection search)."""
        lo, hi = 1e-6, 10.0
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if self.gain_compression_db(mid) > 1.0:
                hi = mid
            else:
                lo = mid
        return math.sqrt(lo * hi)

    def output_p1db(self) -> float:
        """Output amplitude at the 1 dB compression point.

        The linearity metric Fig 5(b) improves: the current buffers let
        the equalizer deliver a larger undistorted output (the loaded
        resistive-feedback variant clips at roughly half the level).
        """
        x = self.input_p1db()
        a0 = abs(self.dc_gain())
        limit = self.output_limit
        return limit * math.tanh(a0 * x / limit)

    # -- simulation ---------------------------------------------------------
    def to_block(self) -> WienerHammersteinBlock:
        """Behavioral block: dynamics + limiting at the output stage."""
        return lowered_block(self, "output_limit")

    # -- variants ------------------------------------------------------------
    def tuned(self, control_voltage: float) -> "CherryHooperEqualizer":
        """The same equalizer at a different V1 (the Fig 5 sweep)."""
        return dataclasses.replace(self, control_voltage=control_voltage)

    def without_current_buffers(self) -> "CherryHooperEqualizer":
        """The Fig 5(a) variant: resistive (loaded) feedback."""
        return dataclasses.replace(self, with_current_buffers=False)

    @property
    def supply_current(self) -> float:
        """Static current: two stages plus the feedback buffers."""
        buffers = 0.3e-3 if self.with_current_buffers else 0.0
        return 2.0 * self.tail_current + buffers
