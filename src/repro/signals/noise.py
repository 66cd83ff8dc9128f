"""Additive noise sources.

The limiting-amplifier sensitivity experiment needs a receiver noise
floor: a 4 mV sensitivity claim is only meaningful against noise.  The
models here generate additive white Gaussian noise either directly from
an RMS value or from a physical spectral density integrated over a
bandwidth (input-referred amplifier noise, 50-ohm termination thermal
noise).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from .._units import BOLTZMANN, ROOM_TEMPERATURE
from .batch import WaveformBatch
from .waveform import Waveform

__all__ = ["WhiteNoise", "thermal_noise_rms", "add_awgn", "snr_db"]


@dataclasses.dataclass
class WhiteNoise:
    """Band-limited white Gaussian noise source.

    Parameters
    ----------
    rms_volts:
        RMS value of the generated noise (over the full simulation
        bandwidth).
    seed:
        RNG seed for reproducibility.
    """

    rms_volts: float
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.rms_volts < 0:
            raise ValueError(f"rms_volts must be >= 0, got {self.rms_volts}")

    @classmethod
    def from_density(cls, density_v_per_rt_hz: float, bandwidth_hz: float,
                     seed: Optional[int] = None) -> "WhiteNoise":
        """Build from a voltage spectral density and a noise bandwidth.

        ``v_rms = density * sqrt(bandwidth)`` — e.g. the input-referred
        noise of a broadband amplifier quoted in nV/sqrt(Hz).
        """
        if density_v_per_rt_hz < 0:
            raise ValueError(
                f"density must be >= 0, got {density_v_per_rt_hz}"
            )
        if bandwidth_hz <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
        return cls(rms_volts=density_v_per_rt_hz * math.sqrt(bandwidth_hz),
                   seed=seed)

    def apply(self, wave: Waveform) -> Waveform:
        """Return ``wave`` plus one realization of the noise."""
        if self.rms_volts == 0:
            return wave
        return WaveformBatch.with_noise_seeds(wave, self.rms_volts,
                                              [self.seed])[0]


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
    """Convenience: add white Gaussian noise of the given RMS to a wave."""
    return WhiteNoise(rms_volts=rms_volts, seed=seed).apply(wave)


def snr_db(signal: Waveform, noise_rms: float) -> float:
    """Signal-to-noise ratio in dB of a waveform against a noise RMS."""
    if noise_rms <= 0:
        raise ValueError(f"noise_rms must be positive, got {noise_rms}")
    rms = signal.rms()
    if rms == 0:
        raise ValueError("signal has zero RMS; SNR undefined")
    return 20.0 * math.log10(rms / noise_rms)
