"""Elementary blocks that the chain, sweep, journal and batch tests
compose: an ideal gain and a memoryless nonlinearity.

Import as ``toy_blocks`` (``tests/`` is on ``sys.path``).
"""

import dataclasses
from typing import Callable

import numpy as np

from repro.lti import Block, RationalTF
from repro.signals import Waveform


@dataclasses.dataclass
class GainBlock(Block):
    """A frequency-independent gain."""

    gain: float
    name: str = "gain"

    def process(self, wave: Waveform) -> Waveform:
        return wave * self.gain

    def transfer_function(self) -> RationalTF:
        return RationalTF.constant(self.gain)


@dataclasses.dataclass
class StaticNonlinearity(Block):
    """A memoryless nonlinearity ``y[n] = f(x[n])``."""

    func: Callable[[np.ndarray], np.ndarray]
    name: str = "nonlinearity"

    def process(self, wave: Waveform) -> Waveform:
        return wave.with_data(np.asarray(self.func(wave.data), dtype=float))
