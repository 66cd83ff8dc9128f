"""Stimulus substrate: waveforms, PRBS patterns, line coding, jitter,
noise.

This package replaces the paper's pattern-generator instrumentation: it
produces the 2^7-1 PRBS NRZ stimulus at 10 Gb/s (with realistic rise
time, jitter and noise) that every eye-diagram experiment consumes.
The :mod:`~repro.signals.modulation` layer generalizes the line code:
:class:`Modulation` declares the level alphabet (NRZ, PAM4), and
:class:`SymbolEncoder` renders any alphabet with the same analog edge
model the NRZ encoder always used.
"""

from .waveform import Waveform, DifferentialWaveform, sample_uniform
from .batch import WaveformBatch
from .prbs import (
    PrbsGenerator,
    prbs_sequence,
    prbs7,
    prbs9,
    prbs15,
    prbs23,
    prbs31,
    alternating_pattern,
    run_length_histogram,
)
from .modulation import (
    Modulation,
    Nrz,
    Pam4,
    SymbolEncoder,
    bits_to_pam4,
)
from .nrz import NrzEncoder, bits_to_nrz, ideal_square_wave
from .jitter import (
    RandomJitter,
    SinusoidalJitter,
    JitterBudget,
    dual_dirac_total_jitter,
)
from .noise import (
    WhiteNoise,
    thermal_noise_rms,
    add_awgn,
    snr_db,
)

__all__ = [
    "Waveform",
    "DifferentialWaveform",
    "sample_uniform",
    "WaveformBatch",
    "PrbsGenerator",
    "prbs_sequence",
    "prbs7",
    "prbs9",
    "prbs15",
    "prbs23",
    "prbs31",
    "alternating_pattern",
    "run_length_histogram",
    "Modulation",
    "Nrz",
    "Pam4",
    "SymbolEncoder",
    "bits_to_pam4",
    "NrzEncoder",
    "bits_to_nrz",
    "ideal_square_wave",
    "RandomJitter",
    "SinusoidalJitter",
    "JitterBudget",
    "dual_dirac_total_jitter",
    "WhiteNoise",
    "thermal_noise_rms",
    "add_awgn",
    "snr_db",
]
