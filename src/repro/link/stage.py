"""The batch-first ``Stage`` protocol and the ``stage()`` adapter.

Every simulation block in this library transforms signals; a
:class:`Stage` gives them all one dispatching code path:

* the protocol is a single ``__call__`` whose canonical form is
  :class:`~repro.signals.batch.WaveformBatch` in →
  :class:`~repro.signals.batch.WaveformBatch` out;
* a single :class:`~repro.signals.waveform.Waveform` is accepted too —
  it is lifted to a one-row batch, pushed through the *same* batched
  kernel, and the single row is handed back.

``stage()`` wraps every existing block family onto the protocol: LTI
blocks and :class:`~repro.lti.blocks.Pipeline`, channels, the core
interfaces, the baseline CTLE/DFE/pre-emphasis, the bang-bang CDR, and
plain batch-transparent callables.  Row ``i`` of a batch driven through
a stage is numerically identical to driving ``batch[i]`` on its own:
there is only one kernel, so there is nothing to diverge.  The CDR and
DFE each keep one entry point of their own —
:meth:`~repro.cdr.BangBangCdr.recover` and
:meth:`~repro.baselines.dfe.DecisionFeedbackEqualizer.equalize` — which
:class:`CdrStage` and :class:`DfeStage` delegate to.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple, Union

import numpy as np

from ..baselines.dfe import DecisionFeedbackEqualizer
from ..cdr.loop import BangBangCdr, CdrBatchResult, CdrResult
from ..signals.batch import WaveformBatch, _lift
from ..signals.waveform import Waveform
from ..sweep.checkpoint import describe_callable

__all__ = ["Stage", "BlockStage", "CdrStage", "DfeStage", "stage"]

Signal = Union[Waveform, WaveformBatch]


def _run_stages(stages, signal: Signal) -> Signal:
    """The one stage-chain loop every dispatch path runs through:
    ``Waveform`` in → ``Waveform`` out, ``WaveformBatch`` in →
    ``WaveformBatch`` out.  A stage may fan one row out to many (noise
    fan-out); the batch then stays a batch."""
    batch, was_single = _lift(signal)
    for link_stage in stages:
        batch = link_stage.process_batch(batch)
    if was_single and batch.n_scenarios == 1:
        return batch[0]
    return batch


class Stage(abc.ABC):
    """One batch-first signal transform.

    The protocol is a single ``__call__(WaveformBatch) -> WaveformBatch``
    (implemented by :meth:`process_batch`); ``__call__`` additionally
    accepts a bare :class:`Waveform` and lifts/lowers it around the one
    batched kernel, so serial and batched execution share one code path.
    """

    #: Human-readable label used by session introspection and reports.
    name: str = "stage"

    @abc.abstractmethod
    def process_batch(self, batch: WaveformBatch) -> WaveformBatch:
        """The one kernel: transform all scenarios of a batch at once."""

    def __call__(self, signal: Signal) -> Signal:
        return _run_stages((self,), signal)


class BlockStage(Stage):
    """A batch-transparent processor (block, pipeline, channel,
    interface, or plain callable) on the :class:`Stage` protocol."""

    def __init__(self, processor, name: Optional[str] = None):
        process = getattr(processor, "process", None)
        if process is None:
            if not callable(processor):
                raise TypeError(
                    f"{type(processor).__name__} has no .process and is "
                    "not callable"
                )
            process = processor
        self.processor = processor
        self._process = process
        self.name = name or getattr(processor, "name", None) \
            or type(processor).__name__
        if not isinstance(self.name, str):
            self.name = type(processor).__name__

    def sweep_fingerprint(self):
        """What this stage computes with, for the sweep journal's key:
        its name and the processor (a plain callable by its code and
        closure, see :func:`~repro.sweep.checkpoint.describe_callable`)."""
        processor = self.processor
        if not hasattr(processor, "process"):
            processor = describe_callable(processor)
        return {"name": self.name, "processor": processor}

    def process_batch(self, batch: WaveformBatch) -> WaveformBatch:
        out = self._process(batch)
        if isinstance(out, Waveform):
            out = _lift(out)[0]
        if not isinstance(out, WaveformBatch):
            raise TypeError(
                f"stage {self.name!r} returned {type(out).__name__}; "
                "processors must be batch-transparent"
            )
        return out


class CdrStage(Stage):
    """The bang-bang CDR as a stage.

    :meth:`process_batch` exposes the recovered decision streams as a
    bit-rate waveform batch (0/1 levels) so a CDR can sit inside a stage
    chain; :meth:`recover` delegates to the CDR's one entry point,
    :meth:`~repro.cdr.BangBangCdr.recover`, with the stage's bit count.
    """

    name = "cdr"

    def __init__(self, cdr: BangBangCdr, n_bits: Optional[int] = None):
        self.cdr = cdr
        self.n_bits = n_bits

    def sweep_fingerprint(self):
        """The CDR config and bit count, for the sweep journal's key."""
        return {"cdr": self.cdr.config, "n_bits": self.n_bits}

    def recover(self, signal: Signal, n_bits: Optional[int] = None,
                initial_phase_ui: Optional[np.ndarray] = None,
                initial_frequency_ppm: Optional[np.ndarray] = None
                ) -> "CdrResult | CdrBatchResult":
        """``Waveform -> CdrResult``, ``WaveformBatch -> CdrBatchResult``
        (see :meth:`~repro.cdr.BangBangCdr.recover`)."""
        return self.cdr.recover(
            signal, self.n_bits if n_bits is None else n_bits,
            initial_phase_ui, initial_frequency_ppm)

    def process_batch(self, batch: WaveformBatch) -> WaveformBatch:
        result = self.cdr.recover(batch, n_bits=self.n_bits)
        return WaveformBatch(result.decisions.astype(float),
                             self.cdr.config.bit_rate, t0=batch.t0)


class DfeStage(Stage):
    """A decision-feedback equalizer as a stage.

    :meth:`process_batch` exposes the ISI-corrected decision-instant
    samples as a baud-rate waveform batch (the signal whose histogram
    is the DFE's inner eye); :meth:`equalize` and
    :meth:`inner_eye_height` delegate to the DFE's own entry points.
    """

    name = "dfe"

    def __init__(self, dfe: DecisionFeedbackEqualizer):
        self.dfe = dfe

    def sweep_fingerprint(self):
        """The equalizer, for the sweep journal's key."""
        return {"dfe": self.dfe}

    def equalize(self, signal: Signal) -> Tuple[np.ndarray, np.ndarray]:
        """``(decisions, corrected)`` (see
        :meth:`~repro.baselines.dfe.DecisionFeedbackEqualizer.equalize`)."""
        return self.dfe.equalize(signal)

    def inner_eye_height(self, signal: Signal, skip_bits: int = 16):
        """A float for a waveform, a per-row array for a batch (see
        ``DecisionFeedbackEqualizer.inner_eye_height``)."""
        return self.dfe.inner_eye_height(signal, skip_bits)

    def process_batch(self, batch: WaveformBatch) -> WaveformBatch:
        _, corrected = self.dfe.equalize(batch)
        t0 = batch.t0 + self.dfe.sample_phase_ui / self.dfe.bit_rate
        return WaveformBatch(corrected, self.dfe.bit_rate, t0=t0)


def stage(obj, name: Optional[str] = None) -> Stage:
    """Adapt any existing block onto the :class:`Stage` protocol.

    Dispatch rules, in order:

    * a :class:`Stage` passes through unchanged;
    * a :class:`~repro.baselines.dfe.DecisionFeedbackEqualizer` becomes
      a :class:`DfeStage`;
    * a :class:`~repro.cdr.BangBangCdr` becomes a :class:`CdrStage`;
    * anything with ``to_block()`` but no ``process`` (the Cherry-Hooper
      equalizer, the baseline CTLE) is wrapped via its block form;
    * anything with ``process`` or plain callables (LTI blocks,
      pipelines, channels, interfaces, pre-emphasis, lambdas) becomes a
      :class:`BlockStage` — these must be batch-transparent, which every
      block in this library is.
    """
    if isinstance(obj, Stage):
        return obj
    if isinstance(obj, DecisionFeedbackEqualizer):
        return DfeStage(obj)
    if isinstance(obj, BangBangCdr):
        return CdrStage(obj)
    if hasattr(obj, "to_block") and not hasattr(obj, "process"):
        return BlockStage(obj.to_block(),
                          name=name or getattr(obj, "name", None))
    return BlockStage(obj, name=name)
