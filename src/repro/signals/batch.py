"""Batched waveforms: many scenarios on one shared timebase.

Multi-scenario studies (Monte Carlo mismatch draws, jitter-tolerance
grids, amplitude sweeps) historically looped over independent
:class:`~repro.signals.waveform.Waveform` simulations; the Python
orchestration dominated the wall clock.  :class:`WaveformBatch` holds
``n_scenarios`` waveforms as one ``(n_scenarios, n_samples)`` array with
a shared sample rate, mirroring the :class:`Waveform` API closely enough
that every pipeline block processes a batch transparently — the inner
loops then run as vectorized kernels (``scipy.signal.lfilter`` over the
last axis) instead of per-scenario Python calls.

Row ``i`` of a batch pushed through a pipeline is numerically identical
to pushing ``batch[i]`` through the same pipeline on its own: the
direct-form filter recursion, the delay interpolation and every static
nonlinearity perform the same arithmetic per row.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator, List, Sequence

import numpy as np

from .waveform import Waveform, sample_uniform

__all__ = ["WaveformBatch"]


@dataclasses.dataclass(frozen=True)
class WaveformBatch:
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

    data: np.ndarray
    sample_rate: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        array = np.asarray(self.data, dtype=float)
        if array.ndim != 2:
            raise ValueError(
                f"batch data must be 2-D (n_scenarios, n_samples), "
                f"got shape {array.shape}"
            )
        object.__setattr__(self, "data", array)

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
            return WaveformBatch(self.data[index], self.sample_rate,
                                 t0=self.t0)
        return Waveform(self.data[index], self.sample_rate, t0=self.t0)

    def rows(self) -> List[Waveform]:
        """The batch unstacked into per-scenario waveforms."""
        return [Waveform(row, self.sample_rate, t0=self.t0)
                for row in self.data]

    @property
    def dt(self) -> float:
        """Sample period in seconds."""
        return 1.0 / self.sample_rate

    @property
    def duration(self) -> float:
        """Total spanned time in seconds (n_samples * dt)."""
        return self.n_samples * self.dt

    @property
    def time(self) -> np.ndarray:
        """Vector of sample times in seconds (shared by every row)."""
        return self.t0 + np.arange(self.n_samples) * self.dt

    # -- statistics (per-row arrays) ---------------------------------------
    def peak_to_peak(self) -> np.ndarray:
        """Per-row peak-to-peak values."""
        if self.n_samples == 0:
            return np.zeros(self.n_scenarios)
        return np.ptp(self.data, axis=-1)

    def rms(self) -> np.ndarray:
        """Per-row RMS values."""
        if self.n_samples == 0:
            return np.zeros(self.n_scenarios)
        return np.sqrt(np.mean(self.data**2, axis=-1))

    def mean(self) -> np.ndarray:
        """Per-row mean (DC) values."""
        if self.n_samples == 0:
            return np.zeros(self.n_scenarios)
        return np.mean(self.data, axis=-1)

    def sample_at(self, times) -> np.ndarray:
        """Per-row linearly interpolated samples at per-row instants.

        ``times`` may be a scalar (same instant for every row), a
        ``(n_scenarios,)`` vector (one instant per row — the closed-loop
        CDR's per-bit case, where every scenario tracks its own phase)
        or ``(n_scenarios, m)``.  Row ``i`` of the result equals
        ``self[i].sample_at(times[i])`` exactly: both paths share one
        interpolation kernel.
        """
        return sample_uniform(self.data, self.t0, self.sample_rate, times)

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

    def __add__(self, other) -> "WaveformBatch":
        return self.with_data(self.data + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other) -> "WaveformBatch":
        return self.with_data(self.data - self._coerce(other))

    def __mul__(self, scale) -> "WaveformBatch":
        return self.with_data(self.data * self._coerce(scale))

    __rmul__ = __mul__

    def __neg__(self) -> "WaveformBatch":
        return self.with_data(-self.data)

    # -- transformations ---------------------------------------------------
    def with_data(self, data: np.ndarray) -> "WaveformBatch":
        """Return a batch with the same timebase and new sample values."""
        return WaveformBatch(data=np.asarray(data, dtype=float),
                             sample_rate=self.sample_rate, t0=self.t0)

    def map(self, func: Callable[[np.ndarray], np.ndarray]
            ) -> "WaveformBatch":
        """Apply an elementwise function to all samples of all rows."""
        return self.with_data(func(self.data))

    def clip(self, low: float, high: float) -> "WaveformBatch":
        """Hard-clip every row between ``low`` and ``high``."""
        if low > high:
            raise ValueError(f"clip bounds reversed: {low} > {high}")
        return self.with_data(np.clip(self.data, low, high))

    def slice_time(self, t_start: float, t_stop: float) -> "WaveformBatch":
        """Return the sub-batch between two absolute times."""
        if t_stop < t_start:
            raise ValueError(f"t_stop {t_stop} precedes t_start {t_start}")
        i0 = max(0, int(round((t_start - self.t0) * self.sample_rate)))
        i1 = min(self.n_samples,
                 int(round((t_stop - self.t0) * self.sample_rate)))
        return WaveformBatch(self.data[:, i0:i1], self.sample_rate,
                             t0=self.t0 + i0 * self.dt)

    def skip(self, n_samples: int) -> "WaveformBatch":
        """Drop the first ``n_samples`` samples of every row."""
        if n_samples < 0:
            raise ValueError(f"n_samples must be >= 0, got {n_samples}")
        n = min(n_samples, self.n_samples)
        return WaveformBatch(self.data[:, n:], self.sample_rate,
                             t0=self.t0 + n * self.dt)

    def delayed(self, delay_s: float) -> "WaveformBatch":
        """Every row delayed by ``delay_s`` seconds.

        The integer-sample part shifts, the fractional part interpolates
        linearly, and samples from before the start hold the first value
        (from past the end, the last); :meth:`Waveform.delayed` is a
        batch of one through this kernel.
        """
        if self.n_samples == 0:
            return self
        shift = delay_s * self.sample_rate
        n = int(np.floor(shift))
        frac = shift - n
        n_samples = self.n_samples
        if n >= n_samples or -n >= n_samples:
            fill = self.data[:, :1] if n > 0 else self.data[:, -1:]
            return self.with_data(np.broadcast_to(
                fill, self.data.shape).copy())
        padded = np.empty_like(self.data)
        if n >= 0:
            padded[:, :n] = self.data[:, :1]
            padded[:, n:] = self.data[:, : n_samples - n]
        else:
            padded[:, :n] = self.data[:, -n:]
            padded[:, n:] = self.data[:, -1:]
        if frac > 0:
            shifted_one_more = np.empty_like(padded)
            shifted_one_more[:, 0] = padded[:, 0]
            shifted_one_more[:, 1:] = padded[:, :-1]
            padded = (1.0 - frac) * padded + frac * shifted_one_more
        return self.with_data(padded)
