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
nonlinearity perform the same arithmetic per row.  :class:`RowStack`
gives the batch and every batch result the same row access.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from typing import Sequence, Tuple

import numpy as np

from .waveform import Waveform, _Sampled

__all__ = ["RowStack", "WaveformBatch"]


#: Field metadata of an array every row shares (a grid), declared as
#: ``dataclasses.field(metadata=SHARED)``: :meth:`RowStack.concatenate`
#: keeps one copy and checks that the chunks agree on it.
SHARED = {"shared": True}


class RowStack:
    """Rows of a dataclass whose fields stack scenarios on axis 0.

    Each field is a column (an array, a list, or a nested
    :class:`RowStack`; ``None`` for a measurement not taken) or a value
    every row shares (a sample rate, a line code, or an array marked
    :data:`SHARED`).  The first field sets the row count; a subclass
    defines only ``row(index)``, the single-scenario form (also
    ``stack[index]``).
    """

    def __getitem__(self, index: int):
        return self.row(index)

    @property
    def n_scenarios(self) -> int:
        """Number of rows (scenarios)."""
        return len(getattr(self, next(iter(self.__dataclass_fields__))))

    def __len__(self) -> int:
        return self.n_scenarios

    def rows(self) -> list:
        """Every scenario unpacked (see :meth:`row`)."""
        return [self.row(i) for i in range(self.n_scenarios)]

    def __iter__(self):
        return iter(self.rows())

    @classmethod
    def concatenate(cls, parts: Sequence["RowStack"]):
        """Stack row-chunks back into one result, field by field.

        Columns concatenate on axis 0; shared fields must agree, and
        are checked before any column stacks, so chunks on different
        grids are refused by name rather than by a shape error from
        a column sized by that grid.  Every row keeps its values, so
        concatenating the chunks of a row-independent computation
        equals the monolithic pass.
        """
        if not parts:
            raise ValueError(f"cannot concatenate zero {cls.__name__}s")
        if len(parts) == 1:
            return parts[0]
        fields = [(field.name, [getattr(part, field.name) for part in parts],
                   field.metadata.get("shared", False))
                  for field in dataclasses.fields(cls)]
        fields.sort(key=lambda field: _is_column(field[1][0], field[2]))
        return cls(**{name: _stack_column(name, values, shared)
                      for name, values, shared in fields})


def _is_column(value, shared: bool) -> bool:
    """Does a field holding ``value`` stack per row (not shared)?"""
    return (isinstance(value, (RowStack, list))
            or (isinstance(value, np.ndarray) and not shared))


def _stack_column(name: str, values: list, shared: bool):
    """One field of :meth:`RowStack.concatenate` across the chunks."""
    first = values[0]
    if any((value is None) != (first is None) for value in values):
        raise ValueError(
            f"chunks disagree on whether {name!r} was measured; they must "
            "come from one configuration"
        )
    if isinstance(first, RowStack):
        return type(first).concatenate(values)
    if isinstance(first, np.ndarray) and not shared:
        return np.concatenate(values, axis=0)
    if isinstance(first, list):
        return [item for value in values for item in value]
    equal = np.array_equal if shared else operator.eq
    if not all(equal(value, first) for value in values[1:]):
        raise ValueError(f"chunks disagree on {name!r}")
    return first


def _close(a: float, b: float) -> bool:
    """``np.isclose(a, b)`` at its default tolerances (``rtol=1e-5``,
    ``atol=1e-8``) in plain float arithmetic, without its array set-up:
    equal, or within ``atol + rtol * |b|`` of a finite ``b``."""
    return a == b or (abs(a - b) <= 1e-8 + 1e-5 * abs(b)
                      and math.isfinite(b))


@dataclasses.dataclass(frozen=True)
class WaveformBatch(_Sampled, RowStack):
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
        if (len({len(row) for row in rows}) > 1
                or not all(_close(wave.sample_rate, first.sample_rate)
                           and _close(wave.t0, first.t0) for wave in waves)):
            # Walk the rows only to name the first mismatch.
            for wave in waves[1:]:
                first._check_compatible(wave)
                if not _close(wave.t0, first.t0):
                    raise ValueError(
                        f"waveform start times differ: {first.t0} vs "
                        f"{wave.t0}"
                    )
        return cls(np.stack(rows), first.sample_rate, t0=first.t0)

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
    def n_samples(self) -> int:
        """Samples per scenario."""
        return self.data.shape[1]

    def row(self, index: int) -> Waveform:
        """Scenario ``index`` as a :class:`Waveform`."""
        return Waveform(self.data[index], self.sample_rate, t0=self.t0)

    def __getitem__(self, index) -> "Waveform | WaveformBatch":
        if isinstance(index, slice):
            return self.with_data(self.data[index])
        return self.row(index)

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


def _lift(signal: "Waveform | WaveformBatch") -> Tuple[WaveformBatch, bool]:
    """Normalize a signal onto the batch form.

    Returns ``(batch, was_single)``: a :class:`Waveform` becomes a
    one-row batch (a view of its samples) with ``was_single=True``; a
    batch passes through.  Every single-waveform entry point runs its
    batched kernel on this one row.
    """
    if isinstance(signal, WaveformBatch):
        return signal, False
    if isinstance(signal, Waveform):
        return WaveformBatch(signal.data[np.newaxis, :], signal.sample_rate,
                             t0=signal.t0), True
    raise TypeError(
        f"expected Waveform or WaveformBatch, got {type(signal).__name__}"
    )
