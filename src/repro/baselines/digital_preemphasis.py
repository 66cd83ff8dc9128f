"""Digital FIR pre-emphasis baseline (the paper's reference [4]).

Westergaard, Dickson & Voinigescu's backplane driver applies *digital*
pre-emphasis: the transmit waveform is shaped by an N-tap
baud-spaced FIR.  The paper's voltage-peaking circuit is the *analog*
alternative (delay buffer + XOR differentiator) — equivalent, for
settled levels, to a 2-tap FIR ``(1+k, -k)``.

This module implements the digital baseline so the equivalence (and the
trade: tap flexibility vs. circuit simplicity) can be benchmarked, plus
the standard zero-forcing tap solver from a measured pulse response.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from ..analysis.isi import pulse_response
from ..lti.blocks import Block
from ..signals.waveform import Waveform

__all__ = ["FirPreEmphasis", "zero_forcing_taps"]


@dataclasses.dataclass
class FirPreEmphasis(Block):
    """Baud-spaced transmit FIR (digital pre-emphasis).

    Parameters
    ----------
    taps:
        FIR coefficients, main cursor first-positive convention: e.g.
        ``(1.2, -0.2)`` is a 2-tap de-emphasis of 20 %.
    bit_rate:
        The baud rate that sets the tap spacing.
    normalize:
        When True the taps are scaled so their absolute sum is 1 —
        the peak-power-constrained convention of real transmitters
        (a driver cannot exceed its tail current; emphasis must come
        out of the settled swing).
    """

    taps: Sequence[float]
    bit_rate: float
    normalize: bool = False
    name: str = "fir-preemphasis"

    def __post_init__(self) -> None:
        taps = np.asarray(self.taps, dtype=float)
        if taps.size == 0:
            raise ValueError("need at least one tap")
        if self.bit_rate <= 0:
            raise ValueError(f"bit_rate must be positive, got {self.bit_rate}")
        if taps[0] == 0:
            raise ValueError("main tap must be nonzero")
        if self.normalize:
            taps = taps / np.sum(np.abs(taps))
        self.taps = taps

    def process(self, wave: Waveform) -> Waveform:
        """Apply the FIR with baud-spaced (UI) tap delays."""
        ui = 1.0 / self.bit_rate
        out = np.zeros_like(wave.data)
        for index, tap in enumerate(self.taps):
            if tap == 0.0:
                continue
            out = out + tap * wave.delayed(index * ui).data
        return wave.with_data(out)

    def boost_db(self) -> float:
        """High-frequency boost: |H(Nyquist)| / |H(DC)| in dB."""
        taps = np.asarray(self.taps)
        h_dc = abs(np.sum(taps))
        h_nyq = abs(np.sum(taps * (-1.0) ** np.arange(len(taps))))
        if h_dc == 0:
            raise ValueError("taps sum to zero: DC response is null")
        return 20.0 * math.log10(h_nyq / h_dc)


def zero_forcing_taps(channel: Block, bit_rate: float, n_taps: int = 3,
                      samples_per_bit: int = 16) -> np.ndarray:
    """Solve transmit taps that zero-force the channel's post-cursors.

    Measures the channel pulse response, builds the baud-spaced
    convolution matrix over the main + (n_taps - 1) post-cursors, and
    solves for the tap vector that makes the equalized pulse
    ``(1, 0, 0, ...)`` at those positions (least squares when the
    system is overdetermined).  This is how a digital pre-emphasis
    transmitter of the [4] style is provisioned.
    """
    if n_taps < 2:
        raise ValueError(f"need at least 2 taps, got {n_taps}")
    pulse = pulse_response(channel, bit_rate,
                           samples_per_bit=samples_per_bit)
    cursors = pulse.cursors
    main = pulse.cursor_index
    # Channel taps h[0..m] from the main cursor onward.
    h = cursors[main: main + 2 * n_taps]
    if len(h) < n_taps:
        raise ValueError("pulse response too short for the tap count")
    # Convolution matrix: rows are output positions, columns taps.
    rows = len(h)
    matrix = np.zeros((rows, n_taps))
    for col in range(n_taps):
        matrix[col:, col] = h[: rows - col]
    target = np.zeros(rows)
    target[0] = h[0]  # preserve the main-cursor amplitude
    taps, *_ = np.linalg.lstsq(matrix, target, rcond=None)
    return taps
