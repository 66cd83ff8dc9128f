"""Additive noise sources.

The limiting-amplifier sensitivity experiment needs a receiver noise
floor: a 4 mV sensitivity claim is only meaningful against noise.  Here
are additive white Gaussian noise of a given RMS and the thermal noise
of a resistance over a bandwidth (50-ohm termination thermal noise).
"""

from __future__ import annotations

import math
from typing import Optional

from .._units import BOLTZMANN, ROOM_TEMPERATURE
from .batch import WaveformBatch
from .waveform import Waveform

__all__ = ["thermal_noise_rms", "add_awgn"]


def thermal_noise_rms(resistance_ohm: float, bandwidth_hz: float,
                      temperature_k: float = ROOM_TEMPERATURE) -> float:
    """RMS thermal (Johnson) noise voltage of a resistor: sqrt(4kTRB).

    A 50-ohm termination over 10 GHz contributes ~90 uV RMS — the
    physical floor under the paper's 4 mV sensitivity figure.
    """
    if resistance_ohm < 0:
        raise ValueError(f"resistance must be >= 0, got {resistance_ohm}")
    if bandwidth_hz < 0:
        raise ValueError(f"bandwidth must be >= 0, got {bandwidth_hz}")
    if temperature_k <= 0:
        raise ValueError(f"temperature must be positive, got {temperature_k}")
    return math.sqrt(4.0 * BOLTZMANN * temperature_k
                     * resistance_ohm * bandwidth_hz)


def add_awgn(wave: Waveform, rms_volts: float,
             seed: Optional[int] = None) -> Waveform:
    """``wave`` plus one realization of white Gaussian noise of the
    given RMS (``wave`` itself when the RMS is zero)."""
    if rms_volts < 0:
        raise ValueError(f"rms_volts must be >= 0, got {rms_volts}")
    if rms_volts == 0:
        return wave
    return WaveformBatch.with_noise_seeds(wave, rms_volts, [seed])[0]
