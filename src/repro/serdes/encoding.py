"""8b/10b line coding (Widmer-Franaszek), the framing layer of the
switch-fabric SERDES the paper's interface lives in (Fig 1).

A 10 Gb/s backplane link of this era carries 8b/10b-coded data: the
code bounds run length (max 5) and running disparity (+-1 at word
boundaries), guaranteeing the transition density the CDR's bang-bang
phase detector needs and keeping the spectrum away from the offset
loop's high-pass corner.

Implementation: the standard 5b/6b + 3b/4b sub-block tables with
running-disparity selection, D.x.y and K.x.y code points, and the
K28.5 comma for word alignment.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["Encoder8b10b", "Decoder8b10b", "encode_bytes", "CodingError"]


class CodingError(ValueError):
    """Raised on invalid code points or disparity violations."""


def _disparity(bits: Tuple[int, ...]) -> int:
    """Ones minus zeros."""
    ones = sum(bits)
    return ones - (len(bits) - ones)


# 5b/6b table: EDCBA -> abcdei for RD- (negative running disparity).
# Values from the published standard, written LSB(a) first.
_5B6B_RD_NEG: Dict[int, Tuple[int, ...]] = {
    0: (1, 0, 0, 1, 1, 1), 1: (0, 1, 1, 1, 0, 1), 2: (1, 0, 1, 1, 0, 1),
    3: (1, 1, 0, 0, 0, 1), 4: (1, 1, 0, 1, 0, 1), 5: (1, 0, 1, 0, 0, 1),
    6: (0, 1, 1, 0, 0, 1), 7: (1, 1, 1, 0, 0, 0), 8: (1, 1, 1, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 1), 10: (0, 1, 0, 1, 0, 1), 11: (1, 1, 0, 1, 0, 0),
    12: (0, 0, 1, 1, 0, 1), 13: (1, 0, 1, 1, 0, 0), 14: (0, 1, 1, 1, 0, 0),
    15: (0, 1, 0, 1, 1, 1), 16: (0, 1, 1, 0, 1, 1), 17: (1, 0, 0, 0, 1, 1),
    18: (0, 1, 0, 0, 1, 1), 19: (1, 1, 0, 0, 1, 0), 20: (0, 0, 1, 0, 1, 1),
    21: (1, 0, 1, 0, 1, 0), 22: (0, 1, 1, 0, 1, 0), 23: (1, 1, 1, 0, 1, 0),
    24: (1, 1, 0, 0, 1, 1), 25: (1, 0, 0, 1, 1, 0), 26: (0, 1, 0, 1, 1, 0),
    27: (1, 1, 0, 1, 1, 0), 28: (0, 0, 1, 1, 1, 0), 29: (1, 0, 1, 1, 1, 0),
    30: (0, 1, 1, 1, 1, 0), 31: (1, 0, 1, 0, 1, 1),
}

# 3b/4b table: HGF -> fghj for RD-.
_3B4B_RD_NEG: Dict[int, Tuple[int, ...]] = {
    0: (1, 0, 1, 1), 1: (1, 0, 0, 1), 2: (0, 1, 0, 1), 3: (1, 1, 0, 0),
    4: (1, 1, 0, 1), 5: (1, 0, 1, 0), 6: (0, 1, 1, 0), 7: (1, 1, 1, 0),
}
# D.x.A7 alternate (used to avoid run-length violations).
_3B4B_A7_RD_NEG: Tuple[int, ...] = (0, 1, 1, 1)

# K28 special 6b block for RD-: 001111 written abcdei LSB-first.
_K28_6B_RD_NEG: Tuple[int, ...] = (0, 0, 1, 1, 1, 1)
# K.x.5 4b block (fghj) for RD-.
_K_3B4B_RD_NEG: Dict[int, Tuple[int, ...]] = {
    5: (1, 0, 1, 0),
}


def _invert(bits: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(1 - b for b in bits)


#: Balanced sub-blocks that nevertheless alternate with RD in the
#: standard (their single-form transmission would create 6-bit runs at
#: sub-block boundaries): D.7's 6b block and the x.3 4b block.
_ALTERNATING_BALANCED = {
    (1, 1, 1, 0, 0, 0),  # D.7 six: 111000 (RD-) / 000111 (RD+)
    (1, 1, 0, 0),        # y=3 four: 1100 (RD-) / 0011 (RD+)
}


def _select_block(table_neg: Tuple[int, ...], rd: int
                  ) -> Tuple[Tuple[int, ...], int]:
    """Disparity-correct sub-block selection."""
    disparity = _disparity(table_neg)
    if disparity == 0:
        if table_neg in _ALTERNATING_BALANCED and rd > 0:
            return _invert(table_neg), rd
        return table_neg, rd
    # Unbalanced blocks are stored for RD-; they carry +2 disparity.
    if rd < 0:
        return table_neg, rd + disparity
    return _invert(table_neg), rd - disparity


@dataclasses.dataclass
class Encoder8b10b:
    """Stateful 8b/10b encoder with running disparity."""

    running_disparity: int = -1

    def encode_symbol(self, value: int, control: bool = False
                      ) -> np.ndarray:
        """Encode one byte (or K-code) into 10 bits (transmission order).

        Data symbols are D.x.y with x = value[4:0], y = value[7:5];
        control symbols currently support K28.5 (the comma), the only
        control code the link layer here uses.
        """
        if not 0 <= value <= 255:
            raise CodingError(f"byte out of range: {value}")
        x = value & 0x1F
        y = (value >> 5) & 0x7
        rd = self.running_disparity

        if control:
            if (x, y) != (28, 5):
                raise CodingError(
                    f"unsupported control code K.{x}.{y} (only K28.5)"
                )
            six, rd = _select_block(_K28_6B_RD_NEG, rd)
            four_neg = _K_3B4B_RD_NEG[5]
            # K28.5's 4b block always alternates with RD.
            if self.running_disparity < 0:
                four = four_neg
                rd_after = rd + _disparity(four_neg)
            else:
                four = _invert(four_neg)
                rd_after = rd - _disparity(four_neg)
            self.running_disparity = 1 if rd_after > 0 else -1
            return np.array(six + four, dtype=np.int8)

        six, rd_mid = _select_block(_5B6B_RD_NEG[x], rd)
        # A7 substitution: avoid run-length violation for D.x.7 when the
        # 6b block ends in two equal bits matching the P7 pattern.
        use_a7 = y == 7 and (
            (rd_mid < 0 and x in (17, 18, 20)) or
            (rd_mid > 0 and x in (11, 13, 14))
        )
        four_neg = _3B4B_A7_RD_NEG if use_a7 else _3B4B_RD_NEG[y]
        four, rd_after = _select_block(four_neg, rd_mid)
        self.running_disparity = 1 if rd_after > 0 else -1
        if rd_after == 0:
            self.running_disparity = 1 if rd > 0 else -1
        return np.array(six + four, dtype=np.int8)

    def encode(self, payload: bytes, prepend_commas: int = 2
               ) -> np.ndarray:
        """Encode a byte payload, preceded by K28.5 comma symbols."""
        words: List[np.ndarray] = []
        for _ in range(prepend_commas):
            words.append(self.encode_symbol(0xBC, control=True))
        for byte in payload:
            words.append(self.encode_symbol(byte))
        return np.concatenate(words) if words else np.array([],
                                                            dtype=np.int8)


class Decoder8b10b:
    """Table-inverting 8b/10b decoder (disparity-agnostic lookup)."""

    def __init__(self) -> None:
        self._lut: Dict[Tuple[int, ...], Tuple[int, bool]] = {}

        def variants(block: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
            # Balanced sub-blocks have a single transmitted form —
            # except the alternating pair (D.7 six, x.3 four);
            # unbalanced ones appear inverted under positive disparity.
            if (_disparity(block) == 0
                    and block not in _ALTERNATING_BALANCED):
                return (block,)
            return (block, _invert(block))

        for x, six_neg in _5B6B_RD_NEG.items():
            for y, four_neg in _3B4B_RD_NEG.items():
                value = (y << 5) | x
                for six in variants(six_neg):
                    for four in variants(four_neg):
                        self._lut.setdefault(six + four, (value, False))
            # D.x.7 alternate (A7) forms map back to y = 7.
            value = (7 << 5) | x
            for six in variants(six_neg):
                for four in variants(_3B4B_A7_RD_NEG):
                    self._lut.setdefault(six + four, (value, False))
        # K28.5 entries override: the comma is unambiguous by design.
        # Its 4b block is balanced yet still alternates with RD (that
        # alternation is what creates the singular comma pattern), so
        # both forms must be accepted.
        for six in variants(_K28_6B_RD_NEG):
            for four in (_K_3B4B_RD_NEG[5], _invert(_K_3B4B_RD_NEG[5])):
                self._lut[six + four] = (0xBC, True)

    def decode_symbol(self, bits: np.ndarray) -> Tuple[int, bool]:
        """Decode 10 bits into (byte, is_control).

        Raises :class:`CodingError` for invalid code groups — the
        error-detection property 8b/10b provides for free.
        """
        key = tuple(int(b) for b in bits)
        if len(key) != 10:
            raise CodingError(f"need 10 bits, got {len(key)}")
        try:
            return self._lut[key]
        except KeyError:
            raise CodingError(f"invalid 10b code group: {key}") from None

    def decode(self, bits: np.ndarray, strip_commas: bool = True
               ) -> bytes:
        """Decode a 10b-aligned bit stream back into payload bytes."""
        bits = np.asarray(bits)
        if len(bits) % 10 != 0:
            raise CodingError(
                f"bit stream length {len(bits)} not a multiple of 10"
            )
        out = bytearray()
        for start in range(0, len(bits), 10):
            value, is_control = self.decode_symbol(bits[start:start + 10])
            if is_control and strip_commas:
                continue
            out.append(value)
        return bytes(out)


def encode_bytes(payload: bytes, prepend_commas: int = 2) -> np.ndarray:
    """One-shot encode with a fresh encoder."""
    return Encoder8b10b().encode(payload, prepend_commas=prepend_commas)
