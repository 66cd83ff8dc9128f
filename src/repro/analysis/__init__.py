"""Measurement substrate: the oscilloscope/BERT/VNA the paper's
evaluation was read with.

Eye diagrams, BER/bathtub estimation, receiver sensitivity/dynamic-range
sweeps, eye masks and pulse-response ISI analysis.
"""

from .eye import (
    EyeMeasurement,
    EyeDiagram,
    EyeDiagramBatch,
    measure_eye_batch,
)
from .ber import (
    q_to_ber,
    ber_from_q_factors,
    ber_from_eye,
    ber_from_eye_batch,
    BathtubCurve,
    bathtub_from_waveform,
)
from .sensitivity import (
    SensitivityResult,
    eye_is_good,
    measure_sensitivity,
    measure_overload,
    measure_dynamic_range,
)
from .isi import (
    PulseResponse,
    pulse_response,
    pulse_response_batch,
)
from .mask import EyeMask, MaskResult, check_mask

__all__ = [
    "EyeMeasurement",
    "EyeDiagram",
    "EyeDiagramBatch",
    "measure_eye_batch",
    "q_to_ber",
    "ber_from_q_factors",
    "ber_from_eye",
    "ber_from_eye_batch",
    "BathtubCurve",
    "bathtub_from_waveform",
    "SensitivityResult",
    "eye_is_good",
    "measure_sensitivity",
    "measure_overload",
    "measure_dynamic_range",
    "PulseResponse",
    "pulse_response",
    "pulse_response_batch",
    "EyeMask",
    "MaskResult",
    "check_mask",
]
