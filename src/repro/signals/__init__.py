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

from .waveform import Waveform, sample_uniform
from .batch import WaveformBatch
from .prbs import PrbsGenerator, prbs7, prbs15
from .modulation import Modulation, Nrz, Pam4, SymbolEncoder
from .nrz import NrzEncoder, bits_to_nrz
from .jitter import RandomJitter, SinusoidalJitter
from .noise import thermal_noise_rms, add_awgn

__all__ = [
    "Waveform",
    "sample_uniform",
    "WaveformBatch",
    "PrbsGenerator",
    "prbs7",
    "prbs15",
    "Modulation",
    "Nrz",
    "Pam4",
    "SymbolEncoder",
    "NrzEncoder",
    "bits_to_nrz",
    "RandomJitter",
    "SinusoidalJitter",
    "thermal_noise_rms",
    "add_awgn",
]
