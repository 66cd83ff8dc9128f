"""Uniformly sampled analog waveforms.

Everything the simulator passes between circuit blocks is a
:class:`Waveform`: a uniformly sampled real-valued signal with an explicit
sample rate.  CML circuits are fully differential; by convention a
waveform carries the *differential-mode* voltage ``v_p - v_n``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator

import numpy as np

# The interpolation kernel lives with the CDR/DFE kernels that gather
# through it; re-exported here as the public sampling primitive.
from ..kernels import sample_uniform

__all__ = ["Waveform", "sample_uniform"]


@dataclasses.dataclass(frozen=True)
class _Sampled:
    """Samples on one uniform timebase along the last axis.

    The operations shared by :class:`Waveform` (one row) and
    :class:`~repro.signals.batch.WaveformBatch` (``n_scenarios`` rows):
    each is written once over the last axis, so a waveform is a batch
    of one by construction.  Subclasses set the required ``data.ndim``
    and supply ``_coerce`` for the arithmetic operand.
    """

    data: np.ndarray
    sample_rate: float
    t0: float = 0.0

    #: Required ``data.ndim`` and the error naming it.
    _ndim = 1
    _shape_error = "waveform data must be 1-D"

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        array = np.asarray(self.data, dtype=float)
        if array.ndim != self._ndim:
            raise ValueError(f"{self._shape_error}, got shape {array.shape}")
        object.__setattr__(self, "data", array)

    @property
    def dt(self) -> float:
        """Sample period in seconds."""
        return 1.0 / self.sample_rate

    @property
    def duration(self) -> float:
        """Total spanned time in seconds (samples per row * dt)."""
        return self.data.shape[-1] * self.dt

    @property
    def time(self) -> np.ndarray:
        """Vector of sample times in seconds (shared by every row)."""
        return self.t0 + np.arange(self.data.shape[-1]) * self.dt

    def sample_at(self, times) -> np.ndarray:
        """Linearly interpolated samples at arbitrary instants.

        One kernel for a waveform, a batch and the CDR/DFE samplers in
        :mod:`repro.kernels`.  For a batch, ``times`` may be a scalar
        (same instant for every row), a ``(n_scenarios,)`` vector (one
        instant per row — the closed-loop CDR's per-bit case) or
        ``(n_scenarios, m)``.
        """
        return sample_uniform(self.data, self.t0, self.sample_rate, times)

    # -- statistics (one value per row) -----------------------------------
    def _per_row(self, reduce: Callable[[np.ndarray], np.ndarray]):
        """``reduce`` over the last axis, 0 for empty rows: a float for
        a waveform, one value per row for a batch."""
        data = self.data
        out = reduce(data) if data.shape[-1] else np.zeros(data.shape[:-1])
        return float(out) if data.ndim == 1 else out

    def peak_to_peak(self):
        """Peak-to-peak value (per row for a batch)."""
        return self._per_row(lambda data: np.ptp(data, axis=-1))

    def rms(self):
        """Root-mean-square value (per row for a batch)."""
        return self._per_row(
            lambda data: np.sqrt(np.mean(data**2, axis=-1)))

    def mean(self):
        """Mean (DC) value (per row for a batch)."""
        return self._per_row(lambda data: np.mean(data, axis=-1))

    # -- arithmetic (``_coerce`` checks and shapes the other operand) ------
    def __add__(self, other):
        return self.with_data(self.data + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self.with_data(self.data - self._coerce(other))

    def __mul__(self, scale):
        return self.with_data(self.data * self._coerce(scale))

    __rmul__ = __mul__

    def __neg__(self):
        return self.with_data(-self.data)

    # -- transformations ---------------------------------------------------
    def with_data(self, data: np.ndarray):
        """Return a signal with the same timebase and new sample values."""
        return type(self)(np.asarray(data, dtype=float), self.sample_rate,
                          self.t0)

    def map(self, func: Callable[[np.ndarray], np.ndarray]):
        """Apply an elementwise function to the samples."""
        return self.with_data(func(self.data))

    def clip(self, low: float, high: float):
        """Hard-clip every sample between ``low`` and ``high``."""
        if low > high:
            raise ValueError(f"clip bounds reversed: {low} > {high}")
        return self.with_data(np.clip(self.data, low, high))

    def slice_time(self, t_start: float, t_stop: float):
        """Return the sub-signal between two absolute times."""
        if t_stop < t_start:
            raise ValueError(f"t_stop {t_stop} precedes t_start {t_start}")
        i0 = max(0, int(round((t_start - self.t0) * self.sample_rate)))
        i1 = min(self.data.shape[-1],
                 int(round((t_stop - self.t0) * self.sample_rate)))
        return type(self)(self.data[..., i0:i1], self.sample_rate,
                          t0=self.t0 + i0 * self.dt)

    def skip(self, n_samples: int):
        """Drop the first ``n_samples`` samples (e.g. filter warm-up)."""
        if n_samples < 0:
            raise ValueError(f"n_samples must be >= 0, got {n_samples}")
        n = min(n_samples, self.data.shape[-1])
        return type(self)(self.data[..., n:], self.sample_rate,
                          t0=self.t0 + n * self.dt)

    def delayed(self, delay_s: float):
        """Return the signal delayed by ``delay_s`` seconds.

        Integer-sample parts are handled by shifting; the fractional part
        uses linear interpolation.  The output has the same length and
        timebase as the input; samples that would come from before the
        start of the signal hold the first value (consistent with a link
        that was idle before time zero), from past the end the last.
        """
        n_samples = self.data.shape[-1]
        if n_samples == 0:
            return self
        shift = delay_s * self.sample_rate
        n = int(np.floor(shift))
        frac = shift - n
        if n >= n_samples or -n >= n_samples:
            fill = self.data[..., :1] if n > 0 else self.data[..., -1:]
            return self.with_data(np.broadcast_to(
                fill, self.data.shape).copy())
        padded = np.empty_like(self.data)
        if n >= 0:
            padded[..., :n] = self.data[..., :1]
            padded[..., n:] = self.data[..., : n_samples - n]
        else:
            padded[..., :n] = self.data[..., -n:]
            padded[..., n:] = self.data[..., -1:]
        if frac > 0:
            # (1 - frac) * x[i] + frac * x[i - 1], x[-1] held at x[0],
            # in place: only the frac-weighted term is a temporary.
            earlier = frac * padded
            padded *= 1.0 - frac
            padded[..., 1:] += earlier[..., :-1]
            padded[..., :1] += earlier[..., :1]
        return self.with_data(padded)


@dataclasses.dataclass(frozen=True)
class Waveform(_Sampled):
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

    # -- basic properties ------------------------------------------------
    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[float]:
        return iter(self.data)

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

    def _coerce(self, other: "Waveform | float"):
        """Another waveform (length- and rate-checked) or a scalar."""
        if isinstance(other, Waveform):
            self._check_compatible(other)
            return other.data
        return float(other)

    # -- transformations ---------------------------------------------------
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
