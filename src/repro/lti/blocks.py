"""Composable signal-path blocks and the pipeline simulator.

A circuit in this library is a chain of :class:`Block` objects, each of
which transforms a :class:`~repro.signals.waveform.Waveform`.  Linear
blocks carry a :class:`~repro.lti.transfer_function.RationalTF` and are
simulated by bilinear discretization; nonlinear stages combine linear
dynamics with static nonlinearities (the Wiener-Hammerstein structure),
which captures the dominant behaviour of CML stages: linear pole/zero
dynamics around a tanh-limiting differential pair.

Every block is batch-transparent: passing a
:class:`~repro.signals.batch.WaveformBatch` instead of a single
:class:`~repro.signals.waveform.Waveform` processes all scenarios in one
vectorized pass (the batch mirrors the waveform API, and
:func:`~repro.lti.discretize.simulate_tf` filters 2-D data along the
last axis), with each row numerically identical to its serial run.

Blocks cache nothing: the circuit stages build their blocks from
transfer functions cached per stage value (keyed on the stage's field
values, see :func:`repro.core.cml_buffer.lowered_block`).
"""

from __future__ import annotations

import abc
import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from ..signals.waveform import Waveform
from .discretize import simulate_tf
from .transfer_function import RationalTF

__all__ = [
    "Block",
    "LinearBlock",
    "TanhLimiter",
    "WienerHammersteinBlock",
    "OffsetBlock",
    "Pipeline",
]


class Block(abc.ABC):
    """Anything that maps an input waveform to an output waveform."""

    #: Human-readable label used by pipeline introspection and reports.
    name: str = "block"

    @abc.abstractmethod
    def process(self, wave: Waveform) -> Waveform:
        """Transform the input waveform into the block's output."""

    def transfer_function(self) -> Optional[RationalTF]:
        """Small-signal TF if the block is (locally) linear, else ``None``."""
        return None

    def __call__(self, wave: Waveform) -> Waveform:
        return self.process(wave)


@dataclasses.dataclass
class LinearBlock(Block):
    """A purely linear block defined by a rational transfer function."""

    tf: RationalTF
    name: str = "linear"

    def process(self, wave: Waveform) -> Waveform:
        out = simulate_tf(self.tf, wave.data, wave.sample_rate)
        return wave.with_data(out)

    def transfer_function(self) -> RationalTF:
        return self.tf


@dataclasses.dataclass
class TanhLimiter(Block):
    """The CML differential-pair limiting characteristic.

    A MOS differential pair steers its tail current as a smooth
    saturating function of the input; the canonical behavioral model is
    ``y = limit * tanh(gain * x / limit)``:

    * small-signal slope = ``gain``;
    * output asymptote = ``+-limit`` (half the full differential output
      swing, i.e. a 250 mV pp stage has ``limit = 0.125``).
    """

    gain: float
    limit: float
    name: str = "tanh-limiter"

    def __post_init__(self) -> None:
        if self.limit <= 0:
            raise ValueError(f"limit must be positive, got {self.limit}")

    def process(self, wave: Waveform) -> Waveform:
        out = (self.gain / self.limit) * wave.data
        np.tanh(out, out=out)
        out *= self.limit
        return wave.with_data(out)

    def transfer_function(self) -> RationalTF:
        """Small-signal linearization around zero input."""
        return RationalTF.constant(self.gain)


@dataclasses.dataclass
class WienerHammersteinBlock(Block):
    """Linear dynamics - static nonlinearity - linear dynamics.

    The standard behavioral decomposition of a mildly nonlinear analog
    stage: ``pre`` models the input pole (device capacitance at the
    gate), ``nonlinearity`` the differential-pair limiting, ``post`` the
    load network (where inductive peaking lives).  Either linear section
    may be ``None``.
    """

    nonlinearity: Block
    pre: Optional[RationalTF] = None
    post: Optional[RationalTF] = None
    name: str = "wiener-hammerstein"

    def process(self, wave: Waveform) -> Waveform:
        if self.pre is not None:
            wave = wave.with_data(
                simulate_tf(self.pre, wave.data, wave.sample_rate)
            )
        wave = self.nonlinearity.process(wave)
        if self.post is not None:
            wave = wave.with_data(
                simulate_tf(self.post, wave.data, wave.sample_rate)
            )
        return wave

    def transfer_function(self) -> Optional[RationalTF]:
        inner = self.nonlinearity.transfer_function()
        if inner is None:
            return None
        tf = inner
        if self.pre is not None:
            tf = self.pre.cascade(tf)
        if self.post is not None:
            tf = tf.cascade(self.post)
        return tf


@dataclasses.dataclass
class OffsetBlock(Block):
    """A constant added to every sample (a DC offset at the node)."""

    offset: float
    name: str = "offset"

    def process(self, wave: Waveform) -> Waveform:
        return wave + self.offset

    def transfer_function(self) -> RationalTF:
        return RationalTF.constant(1.0)


class Pipeline(Block):
    """A series chain of blocks — the whole signal path of an interface.

    Iterating a pipeline yields its blocks; indexing and ``stages()``
    give access for ablation studies (e.g. rebuilding the input interface
    without its equalizer for Fig 15(a)).
    """

    def __init__(self, blocks: Sequence[Block], name: str = "pipeline"):
        self._blocks: List[Block] = list(blocks)
        self.name = name

    def process(self, wave: Waveform) -> Waveform:
        for block in self._blocks:
            wave = block.process(wave)
        return wave

    def process_tapped(self, wave: Waveform) -> List[Waveform]:
        """Run the chain, returning the waveform after every stage.

        Index 0 is the input; index ``i`` is the output of block ``i-1``.
        Used by benches that plot intermediate nodes (e.g. the signal
        between driver stages where peaking is injected).
        """
        taps = [wave]
        for block in self._blocks:
            wave = block.process(wave)
            taps.append(wave)
        return taps

    def stages(self) -> List[Block]:
        """The blocks in order (a copy; mutating it does not edit the pipe)."""
        return list(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, index: int) -> Block:
        return self._blocks[index]

    def __iter__(self):
        return iter(self._blocks)

    def transfer_function(self) -> Optional[RationalTF]:
        """Cascade of all stage TFs, or ``None`` if any stage is nonlinear
        without a small-signal linearization."""
        tf = RationalTF.constant(1.0)
        for block in self._blocks:
            stage_tf = block.transfer_function()
            if stage_tf is None:
                return None
            tf = tf.cascade(stage_tf)
        return tf

    def appended(self, *blocks: Block) -> "Pipeline":
        """A new pipeline with extra blocks at the end."""
        return Pipeline(self._blocks + list(blocks), name=self.name)

    def replaced(self, index: int, block: Block) -> "Pipeline":
        """A new pipeline with the block at ``index`` swapped out."""
        stages = list(self._blocks)
        stages[index] = block
        return Pipeline(stages, name=self.name)
