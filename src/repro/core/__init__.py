"""The paper's contribution: the 10 Gb/s wide-band CML I/O interface.

Block-level models of every circuit in Sections II-III — CML buffers
with active-inductor loads, the Cherry-Hooper equalizer, the limiting
amplifier with DC-offset cancellation, the tapered output driver, the
voltage-peaking (pre-emphasis) circuit and the beta-multiplier bias
reference — plus the assemblies and power/area bookkeeping of Table I.
"""

from .loads import (
    LoadElement,
    ResistiveLoad,
    ActiveInductorLoad,
    SpiralInductorLoad,
    ParallelLoad,
    node_impedance,
    stage_tf,
)
from .cml_buffer import CmlBuffer, apply_active_feedback
from .equalizer import TriodeDegeneration, CherryHooperEqualizer
from .gain_stage import GainStage
from .offset_cancellation import (
    OffsetCancellationNetwork,
    duty_cycle_distortion,
)
from .limiting_amplifier import LimitingAmplifier
from .output_driver import LevelShifter, TaperedDriver
from .voltage_peaking import (
    CmlDelayBuffer,
    Differentiator,
    VoltagePeakingCircuit,
)
from .bandgap import BetaMultiplierReference
from .power_area import BudgetEntry, PowerAreaBudget, MM2
from .interface import (
    InputInterface,
    OutputInterface,
    CmlIoInterface,
    build_input_interface,
    build_output_interface,
    build_io_interface,
)
from .adaptation import (
    ScalarKnobSearch,
    AdaptationResult,
    adapt_equalizer,
    adapt_peaking,
    eye_quality_metric_batch,
)

__all__ = [
    "LoadElement",
    "ResistiveLoad",
    "ActiveInductorLoad",
    "SpiralInductorLoad",
    "ParallelLoad",
    "node_impedance",
    "stage_tf",
    "CmlBuffer",
    "apply_active_feedback",
    "TriodeDegeneration",
    "CherryHooperEqualizer",
    "GainStage",
    "OffsetCancellationNetwork",
    "duty_cycle_distortion",
    "LimitingAmplifier",
    "LevelShifter",
    "TaperedDriver",
    "CmlDelayBuffer",
    "Differentiator",
    "VoltagePeakingCircuit",
    "BetaMultiplierReference",
    "BudgetEntry",
    "PowerAreaBudget",
    "MM2",
    "InputInterface",
    "OutputInterface",
    "CmlIoInterface",
    "build_input_interface",
    "build_output_interface",
    "build_io_interface",
    "ScalarKnobSearch",
    "AdaptationResult",
    "adapt_equalizer",
    "adapt_peaking",
    "eye_quality_metric_batch",
]
