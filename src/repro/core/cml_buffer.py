"""The basic wide-band CML buffer (paper Fig 6).

The cell that every interface in the paper is built from: an NMOS
differential pair (M1/M2) with

* a **PMOS active-inductor load** — inductive peaking without spiral
  inductors (the 80 % area saving);
* **active feedback** — a second differential pair M5/M6 through current
  buffers M3/M4 closing a loop that converts the two real node poles
  into a complex pair (bandwidth extension at constant gain-bandwidth);
* **negative Miller capacitance** — accumulation-mode varactors M7/M8
  cross-coupled from each output to the opposite input, cancelling the
  Miller-multiplied Cgd at the input node.

The behavioral decomposition is Wiener-Hammerstein:

    input pole  ->  tanh current steering  ->  load network dynamics

with every pole/zero computed from the device models, so sweeping the
PMOS width or the feedback strength moves the response exactly the way
the paper's Figs 7(a)/(b) show.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Any, Optional, Tuple

from ..devices.mosfet import Mosfet
from ..devices.varactor import MosVaractor, neutralized_input_capacitance
from ..lti.blocks import TanhLimiter, WienerHammersteinBlock
from ..lti.transfer_function import RationalTF, first_order_lowpass
from .loads import LoadElement, node_impedance

__all__ = ["CmlBuffer", "apply_active_feedback", "lowered_block"]


def apply_active_feedback(open_loop: RationalTF, loop_gain: float,
                          restore_gain: bool = True) -> RationalTF:
    """Close an active-feedback loop of DC loop gain ``loop_gain``.

    The feedback transconductance pair returns a scaled copy of the
    output to the input node; normalizing so the DC loop transmission is
    ``T = loop_gain`` gives

        H_cl(s) = H(s) / (1 + T * H(s)/H(0))

    which relocates the open-loop real poles onto a complex pair — the
    Cherry-Hooper bandwidth-extension mechanism.  By itself this costs
    DC gain (divided by ``1 + T``); the paper's designs spend that
    surplus on larger load resistance, so ``restore_gain=True`` (the
    default) rescales the closed loop back to the open-loop DC gain,
    modeling the re-sized load.  The net effect — and the reason the
    technique exists — is more bandwidth at *equal* DC gain, which the
    ablation bench verifies.
    """
    if loop_gain < 0:
        raise ValueError(f"loop_gain must be >= 0, got {loop_gain}")
    if loop_gain == 0:
        return open_loop
    a0 = open_loop.dc_gain()
    if a0 == 0:
        raise ValueError("open-loop DC gain is zero; feedback undefined")
    closed = open_loop.feedback(RationalTF.constant(loop_gain / a0))
    if restore_gain:
        closed = closed.scaled(1.0 + loop_gain)
    return closed


@functools.lru_cache(maxsize=64)
def _lowering(cls: type, limit_attr: str,
              fields: Tuple[Tuple[str, Any], ...]
              ) -> Tuple[RationalTF, float, float]:
    """``(unity-DC shape, a0, limit)`` of the stage ``cls(**fields)``,
    rebuilt from the key so no entry holds a caller's mutable stage."""
    stage = cls(**dict(fields))
    full = stage.small_signal_tf()
    a0 = full.dc_gain()
    shape = full.scaled(1.0 / a0)
    shape.num.flags.writeable = False
    shape.den.flags.writeable = False
    return shape, a0, getattr(stage, limit_attr)


def lowered_block(stage, limit_attr: str) -> WienerHammersteinBlock:
    """The limiting block of a dataclass ``stage``: a tanh limiter of
    small-signal gain ``a0`` saturating at ``getattr(stage, limit_attr)``,
    then the unity-DC small-signal shape.

    The transfer function is built once per tuple of field values (the
    ``name`` label aside), so a stage rebuilt, replaced or mutated in
    place reads the lowering of its current values; every field must be
    hashable (frozen devices and loads, numbers).  The shape is shared
    between blocks, so its arrays are read-only.
    """
    fields = tuple((field.name, getattr(stage, field.name))
                   for field in dataclasses.fields(stage)
                   if field.name != "name")
    shape, a0, limit = _lowering(type(stage), limit_attr, fields)
    return WienerHammersteinBlock(
        nonlinearity=TanhLimiter(gain=a0, limit=limit), pre=None,
        post=shape, name=stage.name)


@dataclasses.dataclass
class CmlBuffer:
    """A differential CML buffer stage.

    Parameters
    ----------
    input_pair:
        The NMOS differential-pair device (per side), biased at half the
        tail current.
    load:
        The output load element (active inductor for the paper's buffer;
        resistive or spiral for ablations).
    tail_current:
        Total tail current of the pair in amps.
    c_load_ext:
        External capacitance on the output node (next stage's input) in
        farads.
    source_resistance:
        Driving-point resistance at the input in ohms (50 for the pad
        interface, the previous stage's load resistance internally).
    feedback_loop_gain:
        DC loop gain T of the active-feedback pair (0 disables).
    neg_miller:
        The cross-coupled varactor pair (``None`` disables the negative
        Miller capacitance).
    """

    input_pair: Mosfet
    load: LoadElement
    tail_current: float
    c_load_ext: float = 0.0
    source_resistance: float = 50.0
    feedback_loop_gain: float = 0.0
    neg_miller: Optional[MosVaractor] = None
    name: str = "cml-buffer"

    def __post_init__(self) -> None:
        if self.tail_current <= 0:
            raise ValueError(
                f"tail_current must be positive, got {self.tail_current}"
            )
        if self.c_load_ext < 0:
            raise ValueError(f"c_load_ext must be >= 0, got {self.c_load_ext}")
        if self.source_resistance <= 0:
            raise ValueError(
                f"source_resistance must be positive, got {self.source_resistance}"
            )
        if self.feedback_loop_gain < 0:
            raise ValueError(
                f"feedback_loop_gain must be >= 0, got {self.feedback_loop_gain}"
            )

    # -- operating point ----------------------------------------------------
    @property
    def dc_gain(self) -> float:
        """Small-signal DC gain gm * R_load."""
        return self.input_pair.gm * self.load.r_dc

    @property
    def output_swing(self) -> float:
        """Differential output amplitude I_tail * R_load (half of pp).

        A fully switched CML pair steers all of I_tail through one load:
        each output moves by I*R, so the differential signal swings
        +-I*R — a 2 mA / 125 ohm stage gives +-250 mV differential
        (500 mV pp differential, 250 mV pp per leg).
        """
        return self.tail_current * self.load.r_dc

    @property
    def node_capacitance(self) -> float:
        """Total output-node capacitance: self drain + external load."""
        # Drain capacitance of the pair: Cgd (Miller side handled at the
        # *input*; at the output Cgd appears roughly 1:1) plus junction,
        # approximated as another Cgd-worth.
        c_self = 2.0 * self.input_pair.cgd
        return c_self + self.c_load_ext

    @property
    def input_capacitance(self) -> float:
        """Input-node capacitance including (possibly neutralized) Miller.

        Without neutralization the gate sees ``Cgs + Cgd (1 + |A|)``;
        the cross-coupled varactors subtract ``C_var (|A| - 1)``.
        """
        c_neutralize = (0.0 if self.neg_miller is None
                        else self.neg_miller.capacitance_at_zero_bias())
        miller = neutralized_input_capacitance(
            self.input_pair.cgd, c_neutralize, self.dc_gain
        )
        return self.input_pair.cgs + miller

    @property
    def input_pole_hz(self) -> float:
        """Input pole 1/(2 pi R_source C_in)."""
        return 1.0 / (2.0 * math.pi * self.source_resistance
                      * self.input_capacitance)

    # -- transfer functions ---------------------------------------------------
    def output_network_tf(self) -> RationalTF:
        """gm into the loaded output node: gm * (Z_load || C_node)."""
        z_node = node_impedance(self.load, self.node_capacitance)
        return z_node.scaled(self.input_pair.gm)

    def small_signal_tf(self) -> RationalTF:
        """Full stage response: input pole, output network, feedback."""
        tf = first_order_lowpass(self.input_pole_hz).cascade(
            self.output_network_tf()
        )
        return apply_active_feedback(tf, self.feedback_loop_gain)

    def bandwidth_3db(self) -> float:
        """-3 dB bandwidth of the stage in Hz."""
        return self.small_signal_tf().bandwidth_3db()

    def peaking_db(self) -> float:
        """Frequency-response peaking above DC in dB."""
        return self.small_signal_tf().peaking_db()

    # -- simulation -----------------------------------------------------------
    def to_block(self) -> WienerHammersteinBlock:
        """Behavioral simulation block (limiting included).

        The linearized response of the block equals
        :meth:`small_signal_tf`; large inputs limit at
        :attr:`output_swing` through the tanh characteristic.  The
        transfer function is built once per stage value (see
        :func:`lowered_block`).
        """
        return lowered_block(self, "output_swing")

    # -- design variants ----------------------------------------------------
    def with_load(self, load: LoadElement) -> "CmlBuffer":
        """Same stage with a different load element (ablations)."""
        return dataclasses.replace(self, load=load)

    def without_feedback(self) -> "CmlBuffer":
        """Active feedback disabled (ablation)."""
        return dataclasses.replace(self, feedback_loop_gain=0.0)

    def without_neg_miller(self) -> "CmlBuffer":
        """Negative Miller capacitance disabled (ablation)."""
        return dataclasses.replace(self, neg_miller=None)

    @property
    def supply_current(self) -> float:
        """Static current draw: tail current (+ feedback pair share).

        The active-feedback pair M5/M6 is a small fraction of the main
        pair (it only needs gm_f = T/R_load), budgeted at 10 %.
        """
        feedback_share = 0.10 if self.feedback_loop_gain > 0 else 0.0
        return self.tail_current * (1.0 + feedback_share)
