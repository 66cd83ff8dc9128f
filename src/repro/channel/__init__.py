"""Channel substrate: the backplane the I/O interface drives.

Replaces the paper's physical FR-4 backplane with a parametric
skin + dielectric loss model (causal minimum-phase response), an RLGC
line, crosstalk and the driver-swing bookkeeping of a terminated line.
"""

from .backplane import ChannelParameters, FR4_DEFAULT, BackplaneChannel
from .fitting import fit_channel_parameters
from .rlgc import RlgcLine, microstrip_like
from .crosstalk import CrosstalkAggressor, CrosstalkChannel
from .terminations import cml_output_swing

__all__ = [
    "ChannelParameters",
    "FR4_DEFAULT",
    "BackplaneChannel",
    "fit_channel_parameters",
    "RlgcLine",
    "microstrip_like",
    "CrosstalkAggressor",
    "CrosstalkChannel",
    "cml_output_swing",
]
