"""Batch-first public API: one facade over the whole link.

Every block runs one batched kernel; a single waveform is a batch of
one.  This package is the surface that drives them:

* :class:`~repro.link.session.LinkSession` — the facade composing
  tx → channel → rx → CDR/DFE from config dataclasses, or running any
  sequence of batch-transparent processors in one chain loop, with
  ``run``, ``run_batch``, ``sweep`` and ``run_framed`` all returning
  the typed :class:`~repro.link.session.LinkResult` /
  :class:`~repro.link.session.LinkBatchResult` report family;
* :class:`~repro.link.stage.CdrStage` /
  :class:`~repro.link.stage.DfeStage` — the CDR and the DFE as plain
  blocks whose ``process`` returns the decision or corrected-sample
  waveform, so either can sit in a chain;
* :func:`~repro.link.session.run_framed_link` — the framed-link runner
  (8b/10b serialize, batched CDR recovery, per-row decode).
"""

from .stage import CdrStage, DfeStage
from .session import (
    ChannelConfig,
    DfeConfig,
    LinkBatchResult,
    LinkResult,
    LinkSession,
    RxConfig,
    TxConfig,
    run_framed_link,
)

__all__ = [
    "CdrStage",
    "DfeStage",
    "TxConfig",
    "ChannelConfig",
    "RxConfig",
    "DfeConfig",
    "LinkResult",
    "LinkBatchResult",
    "LinkSession",
    "run_framed_link",
]
