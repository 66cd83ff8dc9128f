"""Pseudo-random binary sequence (PRBS) generation.

The paper's eye-diagram experiments (Figs 14-16) all use a 2^7 - 1 PRBS
pattern at 10 Gb/s.  This module implements the standard ITU-T linear
feedback shift register (LFSR) patterns via their characteristic
polynomials.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

__all__ = ["PrbsGenerator", "prbs7", "prbs15"]

# Characteristic polynomial taps (x^a + x^b + 1) for the standard PRBS
# orders: a is the register length, and feedback XORs bits a and b.
_STANDARD_TAPS: Dict[int, Tuple[int, int]] = {
    7: (7, 6),
    9: (9, 5),
    11: (11, 9),
    15: (15, 14),
    20: (20, 3),
    23: (23, 18),
    31: (31, 28),
}


@dataclasses.dataclass
class PrbsGenerator:
    """Maximal-length LFSR PRBS generator.

    Parameters
    ----------
    order:
        Register length; the sequence repeats every ``2**order - 1`` bits.
        Must be one of the standard ITU-T orders (7, 9, 11, 15, 20, 23, 31).
    seed:
        Initial register contents; any nonzero value modulo ``2**order``.
    """

    order: int
    seed: int = 1

    def __post_init__(self) -> None:
        if self.order not in _STANDARD_TAPS:
            raise ValueError(
                f"unsupported PRBS order {self.order}; "
                f"supported: {sorted(_STANDARD_TAPS)}"
            )
        mask = (1 << self.order) - 1
        state = self.seed & mask
        if state == 0:
            raise ValueError("seed must be nonzero modulo 2**order")
        self._state = state
        self._mask = mask
        self._tap_a, self._tap_b = _STANDARD_TAPS[self.order]

    @property
    def period(self) -> int:
        """Length of the repeating sequence, ``2**order - 1``."""
        return (1 << self.order) - 1

    def next_bit(self) -> int:
        """Advance the LFSR one step and return the output bit (0/1)."""
        bit_a = (self._state >> (self._tap_a - 1)) & 1
        bit_b = (self._state >> (self._tap_b - 1)) & 1
        feedback = bit_a ^ bit_b
        self._state = ((self._state << 1) | feedback) & self._mask
        return bit_a

    def bits(self, count: int) -> np.ndarray:
        """Return the next ``count`` bits as a 0/1 integer array."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        out = np.empty(count, dtype=np.int8)
        for i in range(count):
            out[i] = self.next_bit()
        return out

    def full_period(self) -> np.ndarray:
        """Return one complete period of the sequence."""
        return self.bits(self.period)


def prbs7(n_bits: int, seed: int = 1) -> np.ndarray:
    """2^7 - 1 PRBS — the pattern used throughout the paper's figures."""
    return PrbsGenerator(order=7, seed=seed).bits(n_bits)


def prbs15(n_bits: int, seed: int = 1) -> np.ndarray:
    """2^15 - 1 PRBS."""
    return PrbsGenerator(order=15, seed=seed).bits(n_bits)
