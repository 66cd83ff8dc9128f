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
    WaveformBatch,
    prbs7,
    prbs15,
    bits_to_nrz,
    Nrz,
    Pam4,
    SymbolEncoder,
    thermal_noise_rms,
)
from .channel import BackplaneChannel
from .core import (
    build_input_interface,
    build_output_interface,
    build_io_interface,
)
from .analysis import EyeDiagram, measure_sensitivity, measure_dynamic_range
from .baselines import paper_style_comparison
from .cdr import CdrConfig
from .stateye import StatEye
from .sweep import (Count, Histogram, MeanVar, MinMax, Quantiles,
                    ScenarioGrid, SweepAxis, Yield, modulation_axis)
from .link import (
    LinkSession,
    TxConfig,
    ChannelConfig,
    RxConfig,
    DfeConfig,
    run_framed_link,
)

__version__ = "1.0.0"

__all__ = [
    "Waveform",
    "WaveformBatch",
    "prbs7",
    "prbs15",
    "bits_to_nrz",
    "Nrz",
    "Pam4",
    "SymbolEncoder",
    "thermal_noise_rms",
    "BackplaneChannel",
    "build_input_interface",
    "build_output_interface",
    "build_io_interface",
    "EyeDiagram",
    "measure_sensitivity",
    "measure_dynamic_range",
    "paper_style_comparison",
    "CdrConfig",
    "StatEye",
    "ScenarioGrid",
    "SweepAxis",
    "modulation_axis",
    "Count",
    "MinMax",
    "MeanVar",
    "Histogram",
    "Quantiles",
    "Yield",
    "LinkSession",
    "TxConfig",
    "ChannelConfig",
    "RxConfig",
    "DfeConfig",
    "run_framed_link",
]
