"""LTI engine: the library's substitute for SPICE AC + transient analysis.

``RationalTF`` provides the s-domain algebra every linear circuit model
reduces to; ``discretize`` maps those models onto the sampled timebase
via the bilinear transform; ``blocks`` composes linear and nonlinear
stages into full signal paths.
"""

from .transfer_function import RationalTF, first_order_lowpass, pole_zero_tf
from .discretize import bilinear_transform, simulate_tf
from .blocks import (
    Block,
    LinearBlock,
    TanhLimiter,
    WienerHammersteinBlock,
    OffsetBlock,
    Pipeline,
)

__all__ = [
    "RationalTF",
    "first_order_lowpass",
    "pole_zero_tf",
    "bilinear_transform",
    "simulate_tf",
    "Block",
    "LinearBlock",
    "TanhLimiter",
    "WienerHammersteinBlock",
    "OffsetBlock",
    "Pipeline",
]
