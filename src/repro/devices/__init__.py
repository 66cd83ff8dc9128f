"""Device substrate: the library's stand-in for the 0.18 um PDK.

First-order MOS, active-inductor, varactor and passive models whose gm
and capacitance values place every behavioral pole/zero at realistic
GHz-scale frequencies.
"""

from .technology import Technology, TSMC180
from .mosfet import Mosfet, nmos, pmos
from .active_inductor import ActiveInductor
from .varactor import MosVaractor, neutralized_input_capacitance
from .passives import SpiralInductor
from .mismatch import (
    MismatchModel,
    pair_offset_sigma,
    chain_offset_sigma,
    sample_offsets,
)

__all__ = [
    "Technology",
    "TSMC180",
    "Mosfet",
    "nmos",
    "pmos",
    "ActiveInductor",
    "MosVaractor",
    "neutralized_input_capacitance",
    "SpiralInductor",
    "MismatchModel",
    "pair_offset_sigma",
    "chain_offset_sigma",
    "sample_offsets",
]
