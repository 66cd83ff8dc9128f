"""NRZ line coding: bits -> analog waveform.

Converts a bit sequence into a differential-mode NRZ voltage waveform at
a given bit rate, with a finite 20-80 % rise time (a transmitter never
produces ideal square edges) and optional per-edge timing perturbation
used by the jitter module.

Since the modulation refactor this is a thin shim over
:class:`~repro.signals.modulation.SymbolEncoder` with the :class:`Nrz`
alphabet — for NRZ, bit == symbol and ``bit_rate`` == ``symbol_rate``,
and the generated waveforms are bit-exact with the pre-refactor encoder.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .modulation import Nrz, SymbolEncoder
from .waveform import Waveform

__all__ = ["NrzEncoder", "bits_to_nrz"]


@dataclasses.dataclass
class NrzEncoder:
    """Encode bits into a differential NRZ waveform.

    Parameters
    ----------
    bit_rate:
        Bits per second (10e9 throughout the paper).
    samples_per_bit:
        Oversampling factor of the generated waveform.  32 resolves
        10 Gb/s edges comfortably (3.125 ps/sample).
    amplitude:
        Peak differential amplitude: a ``1`` maps to ``+amplitude/2`` and
        a ``0`` to ``-amplitude/2`` so that ``amplitude`` is the
        peak-to-peak differential swing, matching how the paper quotes
        "input signal swing: 4 mV".
    rise_time:
        20-80 % rise time in seconds.  ``None`` picks a default of 15 %
        of the bit period.  Zero gives ideal square edges.
    """

    bit_rate: float
    samples_per_bit: int = 32
    amplitude: float = 1.0
    rise_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.bit_rate <= 0:
            raise ValueError(f"bit_rate must be positive, got {self.bit_rate}")
        if self.samples_per_bit < 2:
            raise ValueError(
                f"samples_per_bit must be >= 2, got {self.samples_per_bit}"
            )
        if self.amplitude <= 0:
            raise ValueError(
                f"amplitude must be positive, got {self.amplitude}"
            )
        if self.rise_time is None:
            self.rise_time = 0.15 / self.bit_rate
        if self.rise_time < 0:
            raise ValueError(f"rise_time must be >= 0, got {self.rise_time}")

    @property
    def modulation(self) -> Nrz:
        """The two-level alphabet this encoder is fixed to."""
        return Nrz()

    @property
    def sample_rate(self) -> float:
        """Sample rate of generated waveforms."""
        return self.bit_rate * self.samples_per_bit

    @property
    def unit_interval(self) -> float:
        """One bit period in seconds."""
        return 1.0 / self.bit_rate

    def _symbol_encoder(self) -> SymbolEncoder:
        return SymbolEncoder(symbol_rate=self.bit_rate,
                             modulation=Nrz(),
                             samples_per_symbol=self.samples_per_bit,
                             amplitude=self.amplitude,
                             rise_time=self.rise_time)

    def encode(self, bits: np.ndarray,
               edge_offsets: Optional[np.ndarray] = None) -> Waveform:
        """Encode ``bits`` into an analog waveform.

        Parameters
        ----------
        bits:
            0/1 sequence.
        edge_offsets:
            Optional per-bit timing offset in seconds applied to the edge
            *leading into* each bit (index 0 is unused since there is no
            edge before the first bit).  This is how jitter is injected.
        """
        bits = np.asarray(bits)
        if bits.size == 0:
            raise ValueError("cannot encode an empty bit sequence")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("bits must contain only 0 and 1")
        if edge_offsets is not None and len(edge_offsets) != len(bits):
            raise ValueError(
                f"edge_offsets length {len(edge_offsets)} != bits {len(bits)}"
            )
        return self._symbol_encoder().encode(bits.astype(np.intp),
                                             edge_offsets)


def bits_to_nrz(bits: np.ndarray, bit_rate: float,
                amplitude: float = 1.0, samples_per_bit: int = 32,
                rise_time: Optional[float] = None) -> Waveform:
    """Convenience wrapper around :class:`NrzEncoder`."""
    encoder = NrzEncoder(bit_rate=bit_rate, samples_per_bit=samples_per_bit,
                         amplitude=amplitude, rise_time=rise_time)
    return encoder.encode(np.asarray(bits))
