"""Baselines: the designs and published results the paper compares
against — the spiral-inductor variant (area claim), the Table I
record columns, and the FIR pre-emphasis, generic CTLE and N-tap DFE
equalizers.  Each takes a waveform or a batch; the DFE's one entry
point is ``equalize()``, and :class:`~repro.link.DfeStage` puts it in
a :class:`~repro.link.LinkSession` chain.
"""

from .spiral_inductor import (
    equivalent_spiral_load,
    spiral_variant_of,
    SpiralAreaComparison,
    compare_area,
    paper_style_comparison,
    bandwidth_parity_check,
)
from .published import (
    PublishedResult,
    TAO_BERROTH_2003,
    GALAL_RAZAVI_2003,
    PAPER_THIS_WORK,
    measured_this_work,
    table1_rows,
)
from .digital_preemphasis import (
    FirPreEmphasis,
    zero_forcing_taps,
)
from .ctle import GenericCtle, ctle_matching_equalizer
from .dfe import (
    DecisionFeedbackEqualizer,
    dfe_taps_from_channel,
    inner_eye_height_from_corrected,
)

__all__ = [
    "equivalent_spiral_load",
    "spiral_variant_of",
    "SpiralAreaComparison",
    "compare_area",
    "paper_style_comparison",
    "bandwidth_parity_check",
    "PublishedResult",
    "TAO_BERROTH_2003",
    "GALAL_RAZAVI_2003",
    "PAPER_THIS_WORK",
    "measured_this_work",
    "table1_rows",
    "FirPreEmphasis",
    "zero_forcing_taps",
    "GenericCtle",
    "ctle_matching_equalizer",
    "DecisionFeedbackEqualizer",
    "dfe_taps_from_channel",
    "inner_eye_height_from_corrected",
]
