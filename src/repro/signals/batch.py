"""Batched waveforms: many scenarios on one shared timebase.

Multi-scenario studies (Monte Carlo mismatch draws, jitter-tolerance
grids, amplitude sweeps) historically looped over independent
:class:`~repro.signals.waveform.Waveform` simulations; the Python
orchestration dominated the wall clock.  :class:`WaveformBatch` holds
``n_scenarios`` waveforms as one ``(n_scenarios, n_samples)`` array with
a shared sample rate.  It shares one implementation of the
:class:`Waveform` timebase, statistics and arithmetic operations (each
written over the last axis), so every pipeline block processes a batch
transparently — the inner
loops then run as vectorized kernels (``scipy.signal.lfilter`` over the
last axis) instead of per-scenario Python calls.

Row ``i`` of a batch pushed through a pipeline is numerically identical
to pushing ``batch[i]`` through the same pipeline on its own: the
direct-form filter recursion, the delay interpolation and every static
nonlinearity perform the same arithmetic per row.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Sequence

import numpy as np

from .waveform import Waveform, _Sampled

__all__ = ["WaveformBatch"]


@dataclasses.dataclass(frozen=True)
class WaveformBatch(_Sampled):
    """A stack of uniformly sampled signals sharing one timebase.

    Parameters
    ----------
    data:
        Sample values, shape ``(n_scenarios, n_samples)``.
    sample_rate:
        Samples per second, shared by every row.  Must be positive.
    t0:
        Time of the first sample in seconds.  Defaults to zero.
    """

    _ndim = 2
    _shape_error = "batch data must be 2-D (n_scenarios, n_samples)"

    # -- constructors ------------------------------------------------------
    @classmethod
    def stack(cls, waves: Sequence[Waveform]) -> "WaveformBatch":
        """Stack per-scenario waveforms into one batch.

        All waveforms must share length, sample rate and start time.
        """
        if not waves:
            raise ValueError("cannot stack an empty waveform sequence")
        first = waves[0]
        rows = [wave.data for wave in waves]
        timebase = np.array([(wave.sample_rate, wave.t0) for wave in waves])
        if (len({len(row) for row in rows}) > 1
                or not np.isclose(timebase, timebase[0]).all()):
            # Walk the rows only to name the first mismatch.
            for wave in waves[1:]:
                first._check_compatible(wave)
                if not np.isclose(wave.t0, first.t0):
                    raise ValueError(
                        f"waveform start times differ: {first.t0} vs "
                        f"{wave.t0}"
                    )
        return cls(np.stack(rows), first.sample_rate, t0=first.t0)

    @classmethod
    def tiled(cls, wave: Waveform, n_scenarios: int) -> "WaveformBatch":
        """``n_scenarios`` identical copies of one waveform."""
        if n_scenarios < 1:
            raise ValueError(f"n_scenarios must be >= 1, got {n_scenarios}")
        return cls(np.tile(wave.data, (n_scenarios, 1)),
                   wave.sample_rate, t0=wave.t0)

    @classmethod
    def with_noise_seeds(cls, wave: Waveform, rms_volts: float,
                         seeds: Sequence[int]) -> "WaveformBatch":
        """One row per seed: ``wave`` plus an independent AWGN draw.

        Row ``i`` equals ``add_awgn(wave, rms_volts, seed=seeds[i])``
        exactly, so batched noise studies match their serial equivalents
        bit for bit.
        """
        if rms_volts < 0:
            raise ValueError(f"rms_volts must be >= 0, got {rms_volts}")
        if len(seeds) == 0:
            raise ValueError("need at least one seed")
        rows = np.empty((len(seeds), len(wave.data)))
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            rows[i] = wave.data + rng.normal(0.0, rms_volts,
                                             size=len(wave.data))
        return cls(rows, wave.sample_rate, t0=wave.t0)

    # -- basic properties --------------------------------------------------
    @property
    def n_scenarios(self) -> int:
        """Number of rows (scenarios) in the batch."""
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        """Samples per scenario."""
        return self.data.shape[1]

    def __len__(self) -> int:
        return self.n_scenarios

    def __iter__(self) -> Iterator[Waveform]:
        return iter(self.rows())

    def __getitem__(self, index) -> "Waveform | WaveformBatch":
        if isinstance(index, slice):
            return self.with_data(self.data[index])
        return Waveform(self.data[index], self.sample_rate, t0=self.t0)

    def rows(self) -> List[Waveform]:
        """The batch unstacked into per-scenario waveforms."""
        return [Waveform(row, self.sample_rate, t0=self.t0)
                for row in self.data]

    # -- arithmetic --------------------------------------------------------
    def _coerce(self, other) -> np.ndarray:
        """Other operand as an array broadcastable against ``data``.

        Accepts another batch (shape-checked), a single waveform
        (broadcast across rows), a per-row vector of length
        ``n_scenarios`` (one value per scenario) or a plain scalar.
        """
        if isinstance(other, WaveformBatch):
            if other.data.shape != self.data.shape:
                raise ValueError(
                    f"batch shapes differ: {self.data.shape} vs "
                    f"{other.data.shape}"
                )
            if not np.isclose(other.sample_rate, self.sample_rate):
                raise ValueError(
                    "batch sample rates differ: "
                    f"{self.sample_rate} vs {other.sample_rate}"
                )
            return other.data
        if isinstance(other, Waveform):
            if len(other) != self.n_samples:
                raise ValueError(
                    f"waveform length {len(other)} != batch samples "
                    f"{self.n_samples}"
                )
            if not np.isclose(other.sample_rate, self.sample_rate):
                raise ValueError(
                    "sample rates differ: "
                    f"{self.sample_rate} vs {other.sample_rate}"
                )
            return other.data[np.newaxis, :]
        array = np.asarray(other, dtype=float)
        if array.ndim == 1:
            if len(array) != self.n_scenarios:
                raise ValueError(
                    f"per-row vector length {len(array)} != "
                    f"{self.n_scenarios} scenarios"
                )
            return array[:, np.newaxis]
        if array.ndim == 0:
            return array
        raise ValueError(f"cannot broadcast shape {array.shape} onto batch")
