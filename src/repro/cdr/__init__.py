"""Clock-data recovery: the downstream consumer the paper's limiting
amplifier feeds ("to amplify the input signal to a sufficient voltage
for the reliable operation of Clock Data Recovery").

Bang-bang (Alexander) phase detection and a proportional+integral
digital loop running directly on simulated analog waveforms, as N
closed loops advanced together over a
:class:`~repro.signals.batch.WaveformBatch` (``stage(cdr).recover`` in
:mod:`repro.link`); :meth:`~repro.cdr.BangBangCdr.recover` runs one
waveform as a batch of one.
"""

from .phase_detector import (
    PdVote,
    alexander_votes,
    alexander_votes_batch,
    vote_step,
)
from .loop import CdrConfig, CdrResult, CdrBatchResult, BangBangCdr

__all__ = [
    "PdVote",
    "alexander_votes",
    "alexander_votes_batch",
    "vote_step",
    "CdrConfig",
    "CdrResult",
    "CdrBatchResult",
    "BangBangCdr",
]
