"""The CDR and the DFE as chain blocks.

The bang-bang CDR and the DFE answer with decisions, not a waveform.
:class:`CdrStage` and :class:`DfeStage` are their plain
:class:`~repro.lti.blocks.Block` forms: ``process`` returns the
decision or corrected-sample waveform, so either can sit in a
:class:`~repro.link.session.LinkSession` chain, while ``recover``,
``equalize`` and ``inner_eye_height`` delegate to the one entry points
:meth:`~repro.cdr.BangBangCdr.recover` and
:meth:`~repro.baselines.dfe.DecisionFeedbackEqualizer.equalize`.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..baselines.dfe import DecisionFeedbackEqualizer
from ..cdr.loop import BangBangCdr, CdrBatchResult, CdrResult
from ..lti.blocks import Block
from ..signals.batch import WaveformBatch
from ..signals.waveform import Waveform

__all__ = ["CdrStage", "DfeStage"]

Signal = Union[Waveform, WaveformBatch]


class CdrStage(Block):
    """The bang-bang CDR as a block.

    :meth:`process` returns the recovered decision streams as a
    bit-rate waveform (0/1 levels, one row per scenario for a batch);
    :meth:`recover` delegates to :meth:`~repro.cdr.BangBangCdr.recover`
    with the stage's bit count.
    """

    name = "cdr"

    def __init__(self, cdr: BangBangCdr, n_bits: Optional[int] = None):
        self.cdr = cdr
        self.n_bits = n_bits

    def recover(self, signal: Signal, n_bits: Optional[int] = None,
                initial_phase_ui: Optional[np.ndarray] = None,
                initial_frequency_ppm: Optional[np.ndarray] = None
                ) -> "CdrResult | CdrBatchResult":
        """``Waveform -> CdrResult``, ``WaveformBatch -> CdrBatchResult``
        (see :meth:`~repro.cdr.BangBangCdr.recover`)."""
        return self.cdr.recover(
            signal, self.n_bits if n_bits is None else n_bits,
            initial_phase_ui, initial_frequency_ppm)

    def process(self, signal: Signal) -> Signal:
        result = self.recover(signal)
        return type(signal)(result.decisions.astype(float),
                            self.cdr.config.bit_rate, t0=signal.t0)


class DfeStage(Block):
    """A decision-feedback equalizer as a block.

    :meth:`process` returns the ISI-corrected decision-instant samples
    as a baud-rate waveform (the signal whose histogram is the DFE's
    inner eye); :meth:`equalize` and :meth:`inner_eye_height` delegate
    to the DFE's own entry points.
    """

    name = "dfe"

    def __init__(self, dfe: DecisionFeedbackEqualizer):
        self.dfe = dfe

    def equalize(self, signal: Signal) -> Tuple[np.ndarray, np.ndarray]:
        """``(decisions, corrected)`` (see
        :meth:`~repro.baselines.dfe.DecisionFeedbackEqualizer.equalize`)."""
        return self.dfe.equalize(signal)

    def inner_eye_height(self, signal: Signal, skip_bits: int = 16):
        """A float for a waveform, a per-row array for a batch (see
        ``DecisionFeedbackEqualizer.inner_eye_height``)."""
        return self.dfe.inner_eye_height(signal, skip_bits)

    def process(self, signal: Signal) -> Signal:
        _, corrected = self.equalize(signal)
        t0 = signal.t0 + self.dfe.sample_phase_ui / self.dfe.bit_rate
        return type(signal)(corrected, self.dfe.bit_rate, t0=t0)
