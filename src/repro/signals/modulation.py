"""Modulation layer: symbol alphabets, level maps, Gray coding, slicing.

Everything below the encoder historically assumed two-level NRZ — one
eye, one decision threshold at zero, bit == symbol.  This module makes
the line code an explicit, swappable object: a :class:`Modulation`
carries the normalized level alphabet, the Gray code that maps bit
groups onto levels, and the decision thresholds (adjacent-level
midpoints) that slicers, eye analysis and BER conversion share.
:class:`Nrz` and :class:`Pam4` are the two shipped instances; the rest
of the library takes any power-of-two alphabet.

Conventions
-----------
* Levels are *normalized*: the outer levels are ``-0.5`` and ``+0.5``,
  so a peak-to-peak swing ``A`` maps level ``l`` to ``l * A`` — exactly
  the scaling :class:`~repro.signals.nrz.NrzEncoder` always used
  (``(bit - 0.5) * amplitude``).
* Symbols are level *indices* (``0 .. L-1``, lowest level first), not
  Gray code words.  Gray coding only enters when converting to/from
  bits, so adjacent-level slicer errors corrupt a single bit.
* Thresholds are the ``L-1`` midpoints between adjacent levels; a value
  ``v`` slices to the number of thresholds strictly below it
  (``searchsorted(thresholds, v, side="left")``), which for NRZ is the
  historical ``1 if v > 0 else 0`` sign slicer, bit for bit.

:class:`SymbolEncoder` is the modulation-aware generalization of
:class:`~repro.signals.nrz.NrzEncoder`: symbol-rate/UI-centric naming,
same waveform construction (piecewise-constant ideal edges or
superposed tanh transitions), with ``bit_rate`` kept as the
data-rate alias ``symbol_rate * bits_per_symbol``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from ..kernels import _slice
from .waveform import Waveform

__all__ = ["Modulation", "Nrz", "Pam4", "SymbolEncoder"]


@dataclasses.dataclass(frozen=True)
class Modulation:
    """A pulse-amplitude line code: level alphabet + Gray bit mapping.

    Parameters
    ----------
    name:
        Short lower-case identifier (``"nrz"``, ``"pam4"``).
    levels:
        Strictly increasing normalized level values, one per symbol,
        spanning ``-0.5 .. +0.5`` for a unit peak-to-peak swing.  The
        count must be a power of two so symbols carry a whole number
        of bits.
    """

    name: str
    levels: Tuple[float, ...]

    def __post_init__(self) -> None:
        levels = tuple(float(v) for v in self.levels)
        object.__setattr__(self, "levels", levels)
        if len(levels) < 2:
            raise ValueError(
                f"modulation needs at least 2 levels, got {len(levels)}"
            )
        if len(levels) & (len(levels) - 1):
            raise ValueError(
                f"number of levels must be a power of two, got {len(levels)}"
            )
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError(
                f"levels must be strictly increasing, got {levels}"
            )

    # -- alphabet geometry ---------------------------------------------------
    @property
    def n_levels(self) -> int:
        """Size of the symbol alphabet (``L``)."""
        return len(self.levels)

    @property
    def n_eyes(self) -> int:
        """Number of vertical sub-eyes (``L - 1``)."""
        return len(self.levels) - 1

    @property
    def bits_per_symbol(self) -> int:
        """``log2(L)`` — bits carried by one symbol."""
        return self.n_levels.bit_length() - 1

    @property
    def thresholds(self) -> Tuple[float, ...]:
        """Normalized decision thresholds: adjacent-level midpoints."""
        return tuple((a + b) / 2.0
                     for a, b in zip(self.levels, self.levels[1:]))

    @property
    def center_threshold_index(self) -> int:
        """Index of the middle eye's threshold (the CDR edge slicer)."""
        return (self.n_levels - 1) // 2

    def level_values(self, swing: float = 1.0) -> np.ndarray:
        """Level voltages for a peak-to-peak swing of ``swing``."""
        return np.asarray(self.levels, dtype=float) * swing

    def threshold_values(self, swing: float = 1.0) -> np.ndarray:
        """Decision-threshold voltages for a peak-to-peak ``swing``."""
        return np.asarray(self.thresholds, dtype=float) * swing

    # -- Gray coding ---------------------------------------------------------
    @property
    def gray_codes(self) -> Tuple[int, ...]:
        """Gray code word of each level index (binary-reflected)."""
        return tuple(i ^ (i >> 1) for i in range(self.n_levels))

    def bits_to_symbols(self, bits: np.ndarray) -> np.ndarray:
        """Pack bits (MSB first per symbol) into Gray-coded level indices.

        Adjacent levels differ in exactly one bit, so a slicer error to
        a neighboring level corrupts one bit — the property the
        SER-to-BER conversion in :mod:`repro.analysis.ber` relies on.
        """
        bits = np.asarray(bits)
        if bits.size == 0:
            raise ValueError("cannot encode an empty bit sequence")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("bits must contain only 0 and 1")
        per = self.bits_per_symbol
        if bits.size % per:
            raise ValueError(
                f"bit count {bits.size} is not a multiple of "
                f"bits_per_symbol={per} for {self.name}"
            )
        weights = 1 << np.arange(per - 1, -1, -1)
        words = np.asarray(bits, dtype=np.int64).reshape(-1, per) @ weights
        gray_to_index = np.empty(self.n_levels, dtype=np.int64)
        gray_to_index[np.asarray(self.gray_codes)] = np.arange(self.n_levels)
        return gray_to_index[words]

    def symbols_to_bits(self, symbols: np.ndarray) -> np.ndarray:
        """Unpack level indices back into bits (inverse of
        :meth:`bits_to_symbols`)."""
        symbols = np.asarray(symbols, dtype=np.int64)
        if np.any((symbols < 0) | (symbols >= self.n_levels)):
            raise ValueError(
                f"symbols must be in 0..{self.n_levels - 1} for {self.name}"
            )
        per = self.bits_per_symbol
        words = np.asarray(self.gray_codes, dtype=np.int64)[symbols]
        shifts = np.arange(per - 1, -1, -1)
        return ((words[:, None] >> shifts) & 1).reshape(-1).astype(np.int64)

    # -- slicing -------------------------------------------------------------
    def slice_symbols(self, values: np.ndarray,
                      swing: float = 1.0) -> np.ndarray:
        """Nearest-level decision: values -> level indices.

        A value maps to the count of thresholds strictly below it,
        which for NRZ reproduces the historical sign slicer
        (``1 if v > 0 else 0``) exactly.  NaN counts low (level 0), as
        in the CDR and DFE kernels, which share this slicer.
        """
        return _slice(np.asarray(values, dtype=float),
                      self.threshold_values(swing))


@dataclasses.dataclass(frozen=True)
class Nrz(Modulation):
    """Two-level NRZ: the paper's line code and the library default."""

    name: str = "nrz"
    levels: Tuple[float, ...] = (-0.5, 0.5)


@dataclasses.dataclass(frozen=True)
class Pam4(Modulation):
    """Four-level PAM with equidistant levels and Gray bit mapping."""

    name: str = "pam4"
    levels: Tuple[float, ...] = (-0.5, -1.0 / 6.0, 1.0 / 6.0, 0.5)


@dataclasses.dataclass
class SymbolEncoder:
    """Encode symbols of any :class:`Modulation` into an analog waveform.

    The modulation-aware core that :class:`~repro.signals.nrz.NrzEncoder`
    now wraps.  Naming is symbol-rate/UI-centric — one unit interval per
    *symbol* — with :attr:`bit_rate` kept as the data-rate alias.

    Parameters
    ----------
    symbol_rate:
        Symbols (UIs) per second.
    modulation:
        Level alphabet; defaults to :class:`Nrz`.
    samples_per_symbol:
        Oversampling factor of the generated waveform.
    amplitude:
        Peak-to-peak differential swing: normalized level ``l`` maps to
        ``l * amplitude``, so the outer levels sit at ``+-amplitude/2``.
    rise_time:
        20-80 % rise time in seconds.  ``None`` picks a default of 15 %
        of the symbol period.  Zero gives ideal square edges.
    """

    symbol_rate: float
    modulation: Modulation = Nrz()
    samples_per_symbol: int = 32
    amplitude: float = 1.0
    rise_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.symbol_rate <= 0:
            raise ValueError(
                f"symbol_rate must be positive, got {self.symbol_rate}"
            )
        if self.samples_per_symbol < 2:
            raise ValueError(
                f"samples_per_symbol must be >= 2, "
                f"got {self.samples_per_symbol}"
            )
        if self.amplitude <= 0:
            raise ValueError(
                f"amplitude must be positive, got {self.amplitude}"
            )
        if self.rise_time is None:
            self.rise_time = 0.15 / self.symbol_rate
        if self.rise_time < 0:
            raise ValueError(f"rise_time must be >= 0, got {self.rise_time}")

    @property
    def sample_rate(self) -> float:
        """Sample rate of generated waveforms."""
        return self.symbol_rate * self.samples_per_symbol

    @property
    def unit_interval(self) -> float:
        """One symbol period in seconds."""
        return 1.0 / self.symbol_rate

    @property
    def bit_rate(self) -> float:
        """Data rate: ``symbol_rate * bits_per_symbol`` (back-compat
        alias — equals ``symbol_rate`` for NRZ)."""
        return self.symbol_rate * self.modulation.bits_per_symbol

    def encode(self, symbols: np.ndarray,
               edge_offsets: Optional[np.ndarray] = None) -> Waveform:
        """Encode level indices into an analog waveform.

        Parameters
        ----------
        symbols:
            Level indices in ``0 .. L-1``.
        edge_offsets:
            Optional per-symbol timing offset in seconds applied to the
            edge *leading into* each symbol (index 0 is unused since
            there is no edge before the first symbol).  This is how
            jitter is injected.
        """
        symbols = np.asarray(symbols)
        if symbols.size == 0:
            raise ValueError("cannot encode an empty symbol sequence")
        if np.any((symbols < 0) | (symbols >= self.modulation.n_levels)):
            raise ValueError(
                f"symbols must be in 0..{self.modulation.n_levels - 1} "
                f"for {self.modulation.name}"
            )
        if edge_offsets is not None and len(edge_offsets) != len(symbols):
            raise ValueError(
                f"edge_offsets length {len(edge_offsets)} != symbols "
                f"{len(symbols)}"
            )

        levels = (np.asarray(self.modulation.levels, dtype=float)[
            np.asarray(symbols, dtype=np.intp)] * self.amplitude)
        n_samples = len(symbols) * self.samples_per_symbol
        t = np.arange(n_samples) / self.sample_rate
        ui = self.unit_interval

        # Edge times: nominal symbol boundaries, perturbed by jitter.
        edge_times = np.arange(1, len(symbols)) * ui
        if edge_offsets is not None:
            edge_times = edge_times + np.asarray(edge_offsets, dtype=float)[1:]

        if self.rise_time <= 0:
            # Ideal square edges: piecewise-constant lookup by edge index.
            idx = np.searchsorted(edge_times, t, side="right")
            data = levels[np.clip(idx, 0, len(symbols) - 1)]
            return Waveform(data, self.sample_rate)

        # Smooth edges: superpose tanh transitions at each level change.
        # tanh(2.1972 * x) goes 20%..80% over x in [-0.25, 0.25], so the
        # 20-80% rise time maps to tau = rise_time / 0.5493 when using
        # tanh(t / tau) — derived from atanh(0.6) = 0.6931 over half the
        # swing: 20-80% spans 2*atanh(0.6)*tau = 1.3863 tau.
        tau = self.rise_time / (2.0 * np.arctanh(0.6))
        data = np.full(n_samples, levels[0])
        for k, t_edge in enumerate(edge_times):
            delta = levels[k + 1] - levels[k]
            if delta == 0:
                continue
            data = data + (delta / 2.0) * (1.0 + np.tanh((t - t_edge) / tau))
        return Waveform(data, self.sample_rate)

    def encode_bits(self, bits: np.ndarray,
                    edge_offsets: Optional[np.ndarray] = None) -> Waveform:
        """Gray-map bits onto symbols and encode (offsets are
        per *symbol*, matching :meth:`encode`)."""
        return self.encode(self.modulation.bits_to_symbols(bits),
                           edge_offsets)
