"""Clock-data recovery: the downstream consumer the paper's limiting
amplifier feeds ("to amplify the input signal to a sufficient voltage
for the reliable operation of Clock Data Recovery").

Bang-bang (Alexander) phase detection and a proportional+integral
digital loop running directly on simulated analog waveforms, as N
closed loops advanced together over a
:class:`~repro.signals.batch.WaveformBatch`.
:meth:`~repro.cdr.BangBangCdr.recover` is the loop's one entry point:
a batch gives a :class:`CdrBatchResult`, a single waveform runs as a
batch of one and gives its :class:`CdrResult`.  A
:class:`~repro.link.CdrStage` puts the loop in a
:class:`~repro.link.LinkSession` chain as a block; its ``recover``
delegates to this entry point.
"""

from .loop import CdrConfig, CdrResult, CdrBatchResult, BangBangCdr

__all__ = [
    "CdrConfig",
    "CdrResult",
    "CdrBatchResult",
    "BangBangCdr",
]
