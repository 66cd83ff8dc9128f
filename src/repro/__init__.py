"""repro — behavioral reproduction of the SOCC 2005 10 Gb/s wide-band
CML I/O interface (Chiu, Wu, Hsu, Kao, Jen, Hsu).

The library models every circuit of the paper — Cherry-Hooper input
equalizer, active-inductor CML buffers with active feedback and negative
Miller capacitance, the four-stage limiting amplifier with DC-offset
cancellation, the tapered output driver with the XOR-differentiator
voltage-peaking (pre-emphasis) circuit, and the beta-multiplier bias
reference — on top of self-contained substrates for signal generation
(PRBS/NRZ/jitter/noise), LTI circuit simulation (s-domain transfer
functions + bilinear discretization), 0.18 um device models, and a lossy
backplane channel.

Quick start (the batch-first ``repro.link`` facade)::

    from repro import ChannelConfig, LinkSession, prbs7, bits_to_nrz

    session = LinkSession.from_configs(channel=ChannelConfig(0.3))
    wave = bits_to_nrz(prbs7(300), bit_rate=10e9, amplitude=0.25)
    eye = session.run(wave).eye
    print(eye.eye_height, eye.q_factor)
"""

from .signals import (
    Waveform,
    DifferentialWaveform,
    WaveformBatch,
    sample_uniform,
    PrbsGenerator,
    prbs7,
    prbs15,
    prbs31,
    bits_to_nrz,
    bits_to_pam4,
    NrzEncoder,
    Modulation,
    Nrz,
    Pam4,
    SymbolEncoder,
    RandomJitter,
    SinusoidalJitter,
    JitterBudget,
    WhiteNoise,
    thermal_noise_rms,
)
from .lti import (
    RationalTF,
    Pipeline,
    LinearBlock,
    TanhLimiter,
    first_order_lowpass,
    second_order_lowpass,
    pole_zero_tf,
)
from .devices import (
    Technology,
    TSMC180,
    Mosfet,
    nmos,
    pmos,
    ActiveInductor,
    MosVaractor,
    SpiralInductor,
)
from .channel import BackplaneChannel, ChannelParameters, FR4_DEFAULT
from .core import (
    CmlBuffer,
    CherryHooperEqualizer,
    GainStage,
    LimitingAmplifier,
    TaperedDriver,
    VoltagePeakingCircuit,
    BetaMultiplierReference,
    InputInterface,
    OutputInterface,
    CmlIoInterface,
    PowerAreaBudget,
    build_input_interface,
    build_output_interface,
    build_io_interface,
)
from .analysis import (
    EyeDiagram,
    EyeDiagramBatch,
    EyeMeasurement,
    measure_eye_batch,
    measure_tf,
    measure_sensitivity,
    measure_dynamic_range,
    q_to_ber,
    bathtub_from_waveform,
    pulse_response,
)
from .baselines import (
    table1_rows,
    measured_this_work,
    paper_style_comparison,
    FirPreEmphasis,
    zero_forcing_taps,
)
from .cdr import BangBangCdr, CdrConfig, CdrResult
from .serdes import Serializer, Deserializer, LinkReport
from .stateye import (StatEye, StatEyeBatchResult, StatEyeResult,
                      stat_eye_measure, stat_eye_stimulus)
from .sweep import (Count, Histogram, MeanVar, MinMax, Quantiles,
                    ScenarioGrid, SweepAxis, SweepFailure, SweepResult,
                    SweepRunner, Yield, modulation_axis)
from .link import (
    LinkSession,
    TxConfig,
    ChannelConfig,
    RxConfig,
    DfeConfig,
    LinkResult,
    LinkBatchResult,
    run_framed_link,
)

__version__ = "1.0.0"

__all__ = [
    "Waveform",
    "DifferentialWaveform",
    "WaveformBatch",
    "sample_uniform",
    "PrbsGenerator",
    "prbs7",
    "prbs15",
    "prbs31",
    "bits_to_nrz",
    "bits_to_pam4",
    "NrzEncoder",
    "Modulation",
    "Nrz",
    "Pam4",
    "SymbolEncoder",
    "RandomJitter",
    "SinusoidalJitter",
    "JitterBudget",
    "WhiteNoise",
    "thermal_noise_rms",
    "RationalTF",
    "Pipeline",
    "LinearBlock",
    "TanhLimiter",
    "first_order_lowpass",
    "second_order_lowpass",
    "pole_zero_tf",
    "Technology",
    "TSMC180",
    "Mosfet",
    "nmos",
    "pmos",
    "ActiveInductor",
    "MosVaractor",
    "SpiralInductor",
    "BackplaneChannel",
    "ChannelParameters",
    "FR4_DEFAULT",
    "CmlBuffer",
    "CherryHooperEqualizer",
    "GainStage",
    "LimitingAmplifier",
    "TaperedDriver",
    "VoltagePeakingCircuit",
    "BetaMultiplierReference",
    "InputInterface",
    "OutputInterface",
    "CmlIoInterface",
    "PowerAreaBudget",
    "build_input_interface",
    "build_output_interface",
    "build_io_interface",
    "EyeDiagram",
    "EyeDiagramBatch",
    "EyeMeasurement",
    "measure_eye_batch",
    "measure_tf",
    "measure_sensitivity",
    "measure_dynamic_range",
    "q_to_ber",
    "bathtub_from_waveform",
    "pulse_response",
    "StatEye",
    "StatEyeResult",
    "StatEyeBatchResult",
    "stat_eye_measure",
    "stat_eye_stimulus",
    "table1_rows",
    "measured_this_work",
    "paper_style_comparison",
    "FirPreEmphasis",
    "zero_forcing_taps",
    "BangBangCdr",
    "CdrConfig",
    "CdrResult",
    "Serializer",
    "Deserializer",
    "LinkReport",
    "ScenarioGrid",
    "SweepAxis",
    "modulation_axis",
    "SweepFailure",
    "SweepRunner",
    "Count",
    "MinMax",
    "MeanVar",
    "Histogram",
    "Quantiles",
    "Yield",
    "SweepResult",
    "LinkSession",
    "TxConfig",
    "ChannelConfig",
    "RxConfig",
    "DfeConfig",
    "LinkResult",
    "LinkBatchResult",
    "run_framed_link",
    "__version__",
]
