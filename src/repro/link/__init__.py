"""Batch-first public API: one dispatching facade over the whole link.

Every block runs one batched kernel; a single waveform is a batch of
one.  This package is the surface that drives them:

* :class:`~repro.link.stage.Stage` — the protocol: one
  ``__call__(WaveformBatch) -> WaveformBatch`` kernel, with single
  waveforms lifted through the same code path;
* :func:`~repro.link.stage.stage` — the adapter wrapping every existing
  block family (LTI blocks/pipelines, channels, core interfaces,
  baseline CTLE/DFE/pre-emphasis, the bang-bang CDR, plain callables)
  onto that protocol;
* :class:`~repro.link.session.LinkSession` — the facade composing
  tx → channel → rx → CDR/DFE from config dataclasses, with ``run``,
  ``run_batch``, ``sweep`` and ``run_framed`` all returning the typed
  :class:`~repro.link.session.LinkResult` /
  :class:`~repro.link.session.LinkBatchResult` report family;
* :func:`~repro.link.session.run_framed_link` — the framed-link runner
  (8b/10b serialize, batched CDR recovery, per-row decode).
"""

from .stage import BlockStage, CdrStage, DfeStage, Stage, stage
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
    "Stage",
    "BlockStage",
    "CdrStage",
    "DfeStage",
    "stage",
    "TxConfig",
    "ChannelConfig",
    "RxConfig",
    "DfeConfig",
    "LinkResult",
    "LinkBatchResult",
    "LinkSession",
    "run_framed_link",
]
