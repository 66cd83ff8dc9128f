"""Serializer / deserializer: bytes <-> 10 Gb/s analog waveform.

The top of the paper's Fig 1 stack: payload bytes are 8b/10b coded,
serialized to NRZ at the line rate, driven through the I/O interface and
channel, recovered by the CDR, comma-aligned and decoded back to bytes.
This module provides the framing ends; the analog middle is any
waveform-to-waveform callable (an interface pipeline, a channel, or a
composition).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from ..signals.batch import RowStack
from ..signals.nrz import NrzEncoder
from ..signals.waveform import Waveform
from .encoding import Decoder8b10b, Encoder8b10b, CodingError

__all__ = ["Serializer", "Deserializer", "align_to_comma", "LinkReport",
           "LinkBatchReport"]

#: The two transmitted forms of K28.5 (RD- and RD+), transmission order.
_COMMA_NEG = (0, 0, 1, 1, 1, 1, 1, 0, 1, 0)
_COMMA_POS = (1, 1, 0, 0, 0, 0, 0, 1, 0, 1)


@dataclasses.dataclass
class Serializer:
    """Bytes -> 8b/10b -> NRZ waveform at the line rate."""

    bit_rate: float = 10e9
    samples_per_bit: int = 16
    amplitude: float = 0.25
    prepend_commas: int = 4

    def serialize(self, payload: bytes) -> Waveform:
        """Encode and modulate a payload."""
        if not payload:
            raise ValueError("payload must not be empty")
        bits = Encoder8b10b().encode(payload,
                                     prepend_commas=self.prepend_commas)
        encoder = NrzEncoder(bit_rate=self.bit_rate,
                             samples_per_bit=self.samples_per_bit,
                             amplitude=self.amplitude)
        return encoder.encode(bits)

    @property
    def line_rate_overhead(self) -> float:
        """The 8b/10b rate penalty: 1.25 line bits per payload bit."""
        return 10.0 / 8.0


def align_to_comma(bits: np.ndarray, last: bool = False) -> Optional[int]:
    """Find the bit offset of a K28.5 comma in a recovered stream.

    Returns the first match by default, or with ``last=True`` the final
    one — robust alignment uses the *last* preamble comma, since
    symbols recovered while the CDR was still converging may be
    corrupt.  Returns ``None`` when no comma is present.  (The comma
    pattern is singular: it cannot appear across valid data-symbol
    boundaries, so any match is a genuine preamble symbol.)
    """
    bits = np.asarray(bits, dtype=np.int8)
    if len(bits) < 10:
        return None
    windows = np.lib.stride_tricks.sliding_window_view(bits, 10)
    match = np.zeros(len(windows), dtype=bool)
    for pattern in (_COMMA_NEG, _COMMA_POS):
        match |= np.all(windows == np.asarray(pattern, dtype=np.int8),
                        axis=1)
    hits = np.nonzero(match)[0]
    if len(hits) == 0:
        return None
    return int(hits[-1] if last else hits[0])


@dataclasses.dataclass
class Deserializer:
    """Recovered bits -> comma alignment -> 8b/10b decode -> bytes.

    ``use_last_comma`` selects the alignment strategy: the default
    aligns to the last comma of the *initial* preamble burst (first
    comma found, then a bounded walk through the burst — robust against
    false commas a bit-error stream can fabricate later on);
    ``use_last_comma=True`` aligns to the final comma anywhere in the
    stream (:func:`align_to_comma` with ``last=True``), the right mode
    when the preamble is known to be the only comma source.
    """

    use_last_comma: bool = False

    def deserialize(self, bits: np.ndarray) -> bytes:
        """Align past the preamble commas and decode what follows.

        Skipping to the end of the comma preamble drops any symbols
        mangled while the CDR was converging.  Decoding stops at the
        first invalid group (end-of-stream latency cut) rather than
        discarding the whole frame; trailing bits that do not fill a
        10b group are dropped, as a real elastic buffer would at frame
        boundaries.
        """
        bits = np.asarray(bits)
        offset = align_to_comma(bits, last=self.use_last_comma)
        if offset is None:
            raise CodingError("no K28.5 comma found; cannot align")
        if not self.use_last_comma:
            # Walk to the end of the contiguous comma burst: later
            # symbols recovered mid-lock may be corrupt, and a bit-error
            # stream can contain *false* commas, so only the initial
            # burst is trusted.
            patterns = (np.asarray(_COMMA_NEG, dtype=np.int8),
                        np.asarray(_COMMA_POS, dtype=np.int8))

            def is_comma(start: int) -> bool:
                if start + 10 > len(bits):
                    return False
                group = bits[start:start + 10]
                return any(np.array_equal(group, p) for p in patterns)

            # Tolerate up to two mangled groups inside the burst
            # (symbols recovered mid-lock): jump to the next comma at
            # 10-bit spacing within a 3-group lookahead.
            advanced = True
            while advanced:
                advanced = False
                for jump in (10, 20, 30):
                    if is_comma(offset + jump):
                        offset += jump
                        advanced = True
                        break
        aligned = bits[offset:]
        decoder = Decoder8b10b()
        out = bytearray()
        for start in range(0, (len(aligned) // 10) * 10, 10):
            try:
                value, is_control = decoder.decode_symbol(
                    aligned[start:start + 10]
                )
            except CodingError:
                break
            if not is_control:
                out.append(value)
        return bytes(out)


@dataclasses.dataclass(frozen=True)
class LinkReport:
    """Outcome of a full framed-link run.

    ``cdr_slips`` is the recovering loop's net cycle-slip count; a
    nonzero value explains a corrupt payload even when the loop reports
    itself locked (the decision stream shifted mid-frame).
    """

    payload_sent: bytes
    payload_received: bytes
    bits_recovered: int
    cdr_locked: bool
    recovered_jitter_ui: float
    cdr_slips: int = 0

    @property
    def error_free(self) -> bool:
        """True when the received payload starts with the sent payload
        (trailing bytes may be cut by CDR latency)."""
        if not self.payload_received:
            return False
        n = min(len(self.payload_sent), len(self.payload_received))
        return self.payload_received[:n] == self.payload_sent[:n] and \
            n >= len(self.payload_sent) - 2

    @property
    def byte_errors(self) -> int:
        """Mismatched bytes over the compared span."""
        n = min(len(self.payload_sent), len(self.payload_received))
        return sum(a != b for a, b in zip(self.payload_sent[:n],
                                          self.payload_received[:n]))


def _decode_payload(deserializer: Deserializer, bits: np.ndarray,
                    training_bytes: int) -> bytes:
    """One recovered bit stream's payload, settle pad stripped (empty
    when it cannot be aligned or decoded)."""
    try:
        return deserializer.deserialize(bits)[training_bytes:]
    except CodingError:
        return b""


def _serialize_payload(payload, bit_rate, samples_per_bit,
                              amplitude, training_commas, training_bytes):
    serializer = Serializer(bit_rate=bit_rate,
                            samples_per_bit=samples_per_bit,
                            amplitude=amplitude,
                            prepend_commas=training_commas)
    pad = bytes([0x55]) * training_bytes
    return serializer.serialize(pad + payload)


@dataclasses.dataclass(frozen=True)
class LinkBatchReport(RowStack):
    """Outcome of N framed-link scenarios recovered as one batch.

    One column per :class:`LinkReport` field: the received payloads,
    and per-row arrays of recovered bit counts, lock flags, post-lock
    jitter (NaN where unlocked) and net cycle slips.  Row ``i``
    (:meth:`row`, or ``report[i]``) is scenario ``i``'s
    :class:`LinkReport`.
    """

    payloads_received: List[bytes]
    bits_recovered: np.ndarray
    cdr_locked: np.ndarray
    post_lock_jitter_ui: np.ndarray
    cdr_slips: np.ndarray
    payload_sent: bytes

    def row(self, index: int) -> LinkReport:
        """Scenario ``index`` as a :class:`LinkReport`."""
        return LinkReport(
            payload_sent=self.payload_sent,
            payload_received=self.payloads_received[index],
            bits_recovered=int(self.bits_recovered[index]),
            cdr_locked=bool(self.cdr_locked[index]),
            recovered_jitter_ui=float(self.post_lock_jitter_ui[index]),
            cdr_slips=int(self.cdr_slips[index]),
        )

    def lock_yield(self) -> float:
        """Fraction of scenarios whose CDR locked."""
        return float(np.mean(self.cdr_locked))

    def frame_error_rate(self) -> float:
        """Fraction of scenarios whose payload did not survive."""
        return float(np.mean([not report.error_free for report in self]))

    def slips(self) -> np.ndarray:
        """Per-scenario net CDR cycle-slip counts."""
        return self.cdr_slips

    def recovered_jitter_ui(self) -> np.ndarray:
        """Per-scenario post-lock jitter (NaN where unlocked)."""
        return self.post_lock_jitter_ui
