"""Uniformly sampled analog waveforms.

Everything the simulator passes between circuit blocks is a
:class:`Waveform`: a uniformly sampled real-valued signal with an explicit
sample rate.  CML circuits are fully differential; by convention a
waveform carries the *differential-mode* voltage ``v_p - v_n``, and
:class:`DifferentialWaveform` is available when the two legs (and their
common mode) must be tracked separately, e.g. for DC-offset studies.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator

import numpy as np

# The interpolation kernel lives with the CDR/DFE kernels that gather
# through it; re-exported here as the public sampling primitive.
from ..kernels import sample_uniform

__all__ = ["Waveform", "DifferentialWaveform", "sample_uniform"]


@dataclasses.dataclass(frozen=True)
class Waveform:
    """A uniformly sampled signal.

    Parameters
    ----------
    data:
        Sample values in volts (or amps for current waveforms).
    sample_rate:
        Samples per second.  Must be positive.
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
        if array.ndim != 1:
            raise ValueError(f"waveform data must be 1-D, got shape {array.shape}")
        object.__setattr__(self, "data", array)

    # -- basic properties ------------------------------------------------
    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[float]:
        return iter(self.data)

    @property
    def dt(self) -> float:
        """Sample period in seconds."""
        return 1.0 / self.sample_rate

    @property
    def duration(self) -> float:
        """Total spanned time in seconds (n_samples * dt)."""
        return len(self.data) * self.dt

    @property
    def time(self) -> np.ndarray:
        """Vector of sample times in seconds."""
        return self.t0 + np.arange(len(self.data)) * self.dt

    # -- statistics --------------------------------------------------------
    def peak_to_peak(self) -> float:
        """Peak-to-peak value of the waveform."""
        if len(self.data) == 0:
            return 0.0
        return float(np.ptp(self.data))

    def rms(self) -> float:
        """Root-mean-square value."""
        if len(self.data) == 0:
            return 0.0
        return float(np.sqrt(np.mean(self.data**2)))

    def mean(self) -> float:
        """Mean (DC) value."""
        if len(self.data) == 0:
            return 0.0
        return float(np.mean(self.data))

    def sample_at(self, times) -> np.ndarray:
        """Linearly interpolated samples at arbitrary instants.

        Same kernel as :meth:`WaveformBatch.sample_at
        <repro.signals.batch.WaveformBatch.sample_at>` and the CDR/DFE
        samplers in :mod:`repro.kernels`.
        """
        return sample_uniform(self.data, self.t0, self.sample_rate, times)

    # -- arithmetic --------------------------------------------------------
    def _check_compatible(self, other: "Waveform") -> None:
        if len(other) != len(self):
            raise ValueError(
                f"waveform lengths differ: {len(self)} vs {len(other)}"
            )
        if not np.isclose(other.sample_rate, self.sample_rate):
            raise ValueError(
                "waveform sample rates differ: "
                f"{self.sample_rate} vs {other.sample_rate}"
            )

    def __add__(self, other: "Waveform | float") -> "Waveform":
        if isinstance(other, Waveform):
            self._check_compatible(other)
            return self.with_data(self.data + other.data)
        return self.with_data(self.data + float(other))

    __radd__ = __add__

    def __sub__(self, other: "Waveform | float") -> "Waveform":
        if isinstance(other, Waveform):
            self._check_compatible(other)
            return self.with_data(self.data - other.data)
        return self.with_data(self.data - float(other))

    def __mul__(self, scale: float) -> "Waveform":
        return self.with_data(self.data * float(scale))

    __rmul__ = __mul__

    def __neg__(self) -> "Waveform":
        return self.with_data(-self.data)

    # -- transformations ---------------------------------------------------
    def with_data(self, data: np.ndarray) -> "Waveform":
        """Return a waveform with the same timebase and new sample values."""
        return Waveform(data=np.asarray(data, dtype=float),
                        sample_rate=self.sample_rate, t0=self.t0)

    def map(self, func: Callable[[np.ndarray], np.ndarray]) -> "Waveform":
        """Apply an elementwise function to the samples."""
        return self.with_data(func(self.data))

    def clip(self, low: float, high: float) -> "Waveform":
        """Hard-clip the waveform between ``low`` and ``high``."""
        if low > high:
            raise ValueError(f"clip bounds reversed: {low} > {high}")
        return self.with_data(np.clip(self.data, low, high))

    def slice_time(self, t_start: float, t_stop: float) -> "Waveform":
        """Return the sub-waveform between two absolute times."""
        if t_stop < t_start:
            raise ValueError(f"t_stop {t_stop} precedes t_start {t_start}")
        i0 = max(0, int(round((t_start - self.t0) * self.sample_rate)))
        i1 = min(len(self.data), int(round((t_stop - self.t0) * self.sample_rate)))
        return Waveform(self.data[i0:i1], self.sample_rate,
                        t0=self.t0 + i0 * self.dt)

    def skip(self, n_samples: int) -> "Waveform":
        """Drop the first ``n_samples`` samples (e.g. filter warm-up)."""
        if n_samples < 0:
            raise ValueError(f"n_samples must be >= 0, got {n_samples}")
        n = min(n_samples, len(self.data))
        return Waveform(self.data[n:], self.sample_rate, t0=self.t0 + n * self.dt)

    def delayed(self, delay_s: float) -> "Waveform":
        """Return the waveform delayed by ``delay_s`` seconds.

        Integer-sample parts are handled by shifting; the fractional part
        uses linear interpolation.  The output has the same length and
        timebase as the input; samples that would come from before the
        start of the signal hold the first value (consistent with a link
        that was idle before time zero).  A batch of one through
        :meth:`WaveformBatch.delayed
        <repro.signals.batch.WaveformBatch.delayed>`.
        """
        from .batch import WaveformBatch  # batch builds on this module

        if len(self.data) == 0:
            return self
        row = WaveformBatch(self.data[np.newaxis], self.sample_rate, self.t0)
        return self.with_data(row.delayed(delay_s).data[0])

    def resampled(self, sample_rate: float) -> "Waveform":
        """Linearly resample the waveform onto a new uniform grid."""
        if sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {sample_rate}")
        if np.isclose(sample_rate, self.sample_rate):
            return self
        new_n = max(1, int(round(self.duration * sample_rate)))
        new_t = self.t0 + np.arange(new_n) / sample_rate
        new_data = np.interp(new_t, self.time, self.data)
        return Waveform(new_data, sample_rate, t0=self.t0)


@dataclasses.dataclass(frozen=True)
class DifferentialWaveform:
    """A differential signal tracked as explicit positive and negative legs.

    CML circuits are differential end to end.  Most of the library only
    needs the differential mode and uses :class:`Waveform`; this class is
    for studies where the common mode or a leg-to-leg DC offset matters
    (e.g. the limiting amplifier's offset-cancellation loop).
    """

    positive: Waveform
    negative: Waveform

    def __post_init__(self) -> None:
        self.positive._check_compatible(self.negative)

    @classmethod
    def from_differential(cls, diff: Waveform,
                          common_mode: float = 0.0) -> "DifferentialWaveform":
        """Split a differential-mode waveform into two legs around a CM level."""
        half = diff * 0.5
        return cls(positive=half + common_mode, negative=(-half) + common_mode)

    @property
    def sample_rate(self) -> float:
        return self.positive.sample_rate

    def differential(self) -> Waveform:
        """The differential-mode component ``v_p - v_n``."""
        return self.positive - self.negative

    def common_mode(self) -> Waveform:
        """The common-mode component ``(v_p + v_n) / 2``."""
        return (self.positive + self.negative) * 0.5

    def with_offset(self, offset_v: float) -> "DifferentialWaveform":
        """Add a static leg-to-leg imbalance (models device mismatch)."""
        half = offset_v / 2.0
        return DifferentialWaveform(self.positive + half, self.negative - half)

    def map_each(self, func: Callable[[np.ndarray], np.ndarray]
                 ) -> "DifferentialWaveform":
        """Apply the same elementwise function to both legs."""
        return DifferentialWaveform(self.positive.map(func),
                                    self.negative.map(func))
