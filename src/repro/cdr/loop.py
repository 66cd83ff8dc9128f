"""Bang-bang CDR loop: phase detector + proportional/integral filter +
phase interpolator.

A digital bang-bang CDR of the type a 2005-era 10 Gb/s SerDes used: the
Alexander votes drive a proportional (phase bump) + integral (frequency
accumulator) filter whose output steers the sampling phase through an
idealized phase interpolator.  The model runs directly on the analog
waveform out of the limiting amplifier, sampling it by interpolation at
the recovered instants — so the whole receive chain (equalizer → LA →
CDR) can be simulated closed-loop.

The loop runs in one batched kernel, :func:`repro.kernels.cdr_recover_batch`,
which advances N loops together with per-row phase/integral/slip state.
:meth:`BangBangCdr.recover` is its one entry point: a
:class:`~repro.signals.batch.WaveformBatch` in gives a
:class:`CdrBatchResult`, a single waveform runs as a batch of one and
gives its :class:`CdrResult` row.

Cycle slips are first-class: when the steered phase wraps across
±1.0 UI the sampling instant stays continuous (the wrap is absorbed
into a whole-bit offset) and the slip is counted, instead of silently
re-sampling or skipping a bit with an unchanged bit index.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

from .. import kernels
from ..signals.batch import RowStack, WaveformBatch, _lift
from ..signals.modulation import Modulation, Nrz
from ..signals.waveform import Waveform

__all__ = ["CdrConfig", "CdrResult", "CdrBatchResult", "BangBangCdr"]

# A loop needs _MIN_BITS bit-steps and runs _SHORT_UI short of the
# waveform's span (its last edge instant must stay on the waveform).
_MIN_BITS = 16
_SHORT_UI = 2


def _check_finite(config) -> None:
    """Raise ``ValueError`` naming the first numeric field (or entry of
    a sequence field) of a config dataclass that is NaN or infinite."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        items = (enumerate(value)
                 if isinstance(value, (tuple, list, np.ndarray))
                 else [(None, value)])
        for index, item in items:
            if isinstance(item, numbers.Real) and not math.isfinite(item):
                name = (field.name if index is None
                        else f"{field.name}[{index}]")
                raise ValueError(f"{name} must be finite, got {item}")


@dataclasses.dataclass(frozen=True)
class CdrConfig:
    """Loop parameters.

    ``kp``/``ki`` are in UI per vote: a typical bang-bang loop uses a
    proportional step of a few mUI and an integral gain 2-3 orders
    below it.

    ``modulation`` selects the slicer alphabet: data decisions are
    nearest-level indices, and the Alexander edge votes slice at the
    *middle* eye's threshold — the only eye whose transitions carry
    timing for a bang-bang loop.  ``amplitude`` is the peak-to-peak
    swing the slicer assumes at its input (scales the multi-level
    thresholds; irrelevant for NRZ, whose only threshold is 0 V at any
    swing — symmetric alphabets keep a 0 V middle threshold, so edge
    votes never depend on it either).

    Every numeric field must be finite: a NaN passes every ordering
    check, so it is rejected by name instead.
    """

    bit_rate: float
    kp: float = 4e-3
    ki: float = 1e-5
    initial_phase_ui: float = 0.25
    initial_frequency_ppm: float = 0.0
    modulation: Modulation = Nrz()
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.bit_rate <= 0:
            raise ValueError(f"bit_rate must be positive, got {self.bit_rate}")
        if self.kp <= 0 or self.ki < 0:
            raise ValueError("need kp > 0 and ki >= 0")
        if self.amplitude <= 0:
            raise ValueError(
                f"amplitude must be positive, got {self.amplitude}"
            )

    def decision_thresholds(self) -> np.ndarray:
        """Slicer thresholds at the assumed input swing (``[0.0]``
        exactly for NRZ)."""
        return self.modulation.threshold_values(self.amplitude)


@dataclasses.dataclass(frozen=True)
class CdrResult:
    """Outcome of a CDR run.

    ``slips`` is the net cycle-slip count: +1 every time the recovered
    phase wrapped forward across +1.0 UI (one transmitted bit never
    sampled), -1 for a backward wrap.  Decision indices stay consistent
    across a slip — decision ``k`` always samples one UI after decision
    ``k-1`` — so a nonzero count means the decision-to-transmitted-bit
    alignment shifted mid-stream, exactly as in a slipping hardware CDR.
    """

    decisions: np.ndarray
    phase_track_ui: np.ndarray
    votes: np.ndarray
    locked_at_bit: int
    slips: int = 0

    @property
    def is_locked(self) -> bool:
        """True when the loop reached steady state inside the run."""
        return self.locked_at_bit >= 0

    def steady_state_phase_ui(self) -> float:
        """Mean recovered phase after lock (UI)."""
        if not self.is_locked:
            raise ValueError("loop never locked")
        return float(np.mean(self.phase_track_ui[self.locked_at_bit:]))

    def recovered_jitter_ui(self) -> float:
        """RMS wander of the recovered phase after lock (UI).

        For a locked bang-bang loop this is the limit-cycle (hunting)
        jitter, on the order of the proportional step.
        """
        if not self.is_locked:
            raise ValueError("loop never locked")
        return float(np.std(self.phase_track_ui[self.locked_at_bit:]))


@dataclasses.dataclass(frozen=True)
class CdrBatchResult(RowStack):
    """Outcome of N parallel CDR runs on one :class:`WaveformBatch`.

    Arrays are rectangular ``(n_scenarios, total_bits)``; rows that ran
    out of waveform early are valid only up to ``n_bits[row]`` (their
    tails hold 0 decisions/votes and NaN phases).  :meth:`row` unpacks
    one scenario into the single-waveform :class:`CdrResult` form,
    truncated to its valid span.
    """

    decisions: np.ndarray
    phase_track_ui: np.ndarray
    votes: np.ndarray
    locked_at_bit: np.ndarray
    slips: np.ndarray
    n_bits: np.ndarray

    @property
    def is_locked(self) -> np.ndarray:
        """Per-row lock flags."""
        return self.locked_at_bit >= 0

    def lock_yield(self) -> float:
        """Fraction of scenarios whose loop locked."""
        return float(np.mean(self.is_locked))

    def row(self, index: int) -> CdrResult:
        """Scenario ``index`` as a single-waveform :class:`CdrResult`."""
        n = int(self.n_bits[index])
        return CdrResult(
            decisions=self.decisions[index, :n],
            phase_track_ui=self.phase_track_ui[index, :n],
            votes=self.votes[index, :n],
            locked_at_bit=int(self.locked_at_bit[index]),
            slips=int(self.slips[index]),
        )

    def recovered_jitter_ui(self) -> np.ndarray:
        """Per-row post-lock RMS phase wander (NaN where unlocked): one
        masked ``np.std`` over each row's ``[locked_at_bit, n_bits)``."""
        out = np.full(self.n_scenarios, np.nan)
        locked = self.is_locked
        bits = np.arange(self.phase_track_ui.shape[1])
        after_lock = ((bits >= self.locked_at_bit[locked, np.newaxis])
                      & (bits < self.n_bits[locked, np.newaxis]))
        out[locked] = np.std(self.phase_track_ui[locked], axis=1,
                             where=after_lock)
        return out


class BangBangCdr:
    """First-order-plus-integrator bang-bang CDR."""

    def __init__(self, config: CdrConfig):
        self.config = config

    def count_ui(self, duration: float) -> int:
        """Whole UI in ``duration`` as the loop counts them: the count
        :meth:`min_ui` is compared with."""
        return int(duration / (1.0 / self.config.bit_rate))

    def _usable_bits(self, duration: float, n_bits: int | None) -> int:
        total_bits = self.count_ui(duration) - _SHORT_UI
        if n_bits is not None:
            total_bits = min(total_bits, n_bits)
        if total_bits < _MIN_BITS:
            raise ValueError(
                f"waveform too short for CDR: {total_bits} usable bits"
            )
        return total_bits

    def min_ui(self) -> int:
        """Shortest waveform, in UI as :meth:`count_ui` counts them,
        that :meth:`recover` accepts."""
        return _MIN_BITS + _SHORT_UI

    def recover(self, signal: "Waveform | WaveformBatch",
                n_bits: int | None = None,
                initial_phase_ui: np.ndarray | None = None,
                initial_frequency_ppm: np.ndarray | None = None
                ) -> "CdrResult | CdrBatchResult":
        """Run the loop over a signal and return decisions + tracking.

        The sampler interpolates the waveform at the recovered instants;
        data and edge samples alternate half a UI apart, Alexander votes
        update the loop once per bit.  A :class:`WaveformBatch` runs N
        independent loops through the kernel and returns a
        :class:`CdrBatchResult`; a :class:`Waveform` runs as a batch of
        one and returns its :class:`CdrResult`.  All rows share the
        config; ``initial_phase_ui`` / ``initial_frequency_ppm``
        optionally override the starting state per row (for lock-time
        or pull-in yield studies); every override must be finite.
        """
        batch, was_single = _lift(signal)
        config = self.config
        ui = 1.0 / config.bit_rate
        total_bits = self._usable_bits(batch.duration, n_bits)
        n_rows = batch.n_scenarios

        def _state(override, default, name):
            if override is None:
                return np.full(n_rows, default, dtype=float)
            state = np.asarray(override, dtype=float)
            if state.shape != (n_rows,):
                raise ValueError(
                    f"per-row override must have shape ({n_rows},), "
                    f"got {state.shape}"
                )
            if not np.isfinite(state).all():
                raise ValueError(f"{name} must be finite in every row")
            return state.copy()

        phase = _state(initial_phase_ui, config.initial_phase_ui,
                       "initial_phase_ui")
        integral = _state(initial_frequency_ppm,
                          config.initial_frequency_ppm,
                          "initial_frequency_ppm") * 1e-6

        decisions, phases, votes, slips, row_bits = \
            kernels.cdr_recover_batch(
                batch.data, batch.t0, batch.sample_rate,
                float(batch.time[-1]), ui, config.kp, config.ki,
                phase, integral, total_bits,
                config.decision_thresholds(),
            )

        locked_at = self._detect_lock_batch(phases, row_bits)
        result = CdrBatchResult(decisions=decisions, phase_track_ui=phases,
                                votes=votes, locked_at_bit=locked_at,
                                slips=slips, n_bits=row_bits)
        return result.row(0) if was_single else result

    @staticmethod
    def _detect_lock_batch(phases: np.ndarray, row_bits: np.ndarray,
                           window: int = 64,
                           tolerance_ui: float = 0.05) -> np.ndarray:
        """First bit index after which each row's phase stays in a band.

        A window is a candidate when its peak-to-peak wander is inside
        ``tolerance_ui`` AND the whole remaining track stays within
        twice that band (the loop must not wander off later); rows
        shorter than ``2 * window`` bits never lock (-1).

        ``phases`` is the rectangular ``(n_rows, total_bits)`` track
        with NaN tails past ``row_bits[row]``; the NaNs make the 2-D
        sliding-window and suffix reductions self-masking (any window
        or suffix touching a tail compares False), so no per-row Python
        loop is needed.
        """
        n_rows, total_bits = phases.shape
        row_bits = np.asarray(row_bits, dtype=np.int64)
        locked = np.full(n_rows, -1, dtype=np.int64)
        if total_bits < 2 * window:
            return locked
        window_ptp = _sliding_ptp(phases, window)
        # Suffix peak-to-peak via NaN-ignoring right-to-left cumulative
        # extrema: positions past a row's valid span stay NaN and fail
        # every comparison, as if each row were truncated to its span.
        suffix_max = np.fmax.accumulate(phases[:, ::-1], axis=-1)[:, ::-1]
        suffix_min = np.fmin.accumulate(phases[:, ::-1], axis=-1)[:, ::-1]
        n_windows = window_ptp.shape[1]
        suffix_ptp = (suffix_max - suffix_min)[:, :n_windows]
        columns = np.arange(n_windows)[np.newaxis, :]
        valid = (columns < (row_bits - window)[:, np.newaxis]) \
            & (row_bits >= 2 * window)[:, np.newaxis]
        hits = (window_ptp < tolerance_ui) \
            & (suffix_ptp < 2 * tolerance_ui) & valid
        any_hit = hits.any(axis=1)
        locked[any_hit] = np.argmax(hits[any_hit], axis=1)
        return locked


def _sliding_ptp(values: np.ndarray, window: int) -> np.ndarray:
    """Peak-to-peak of every ``window``-long run along the last axis,
    ``(n_rows, n - window + 1)``, in O(n) rather than O(n * window).

    The van Herk / Gil-Werman scheme: cut each row into blocks of
    ``window`` samples (NaN-padded to a whole block) and take running
    extrema from each block's start (prefix) and from its end
    (suffix).  The window starting at ``i`` is the suffix from ``i`` to
    its block's end joined with the prefix of the next block up to
    ``i + window - 1``.  ``np.maximum``/``np.minimum`` propagate NaN as
    ``np.ptp`` does, so a window touching a NaN is NaN here too.
    """
    n_rows, n = values.shape
    n_blocks = -(-n // window)
    padded = np.full((n_rows, n_blocks * window), np.nan)
    padded[:, :n] = values
    blocks = padded.reshape(n_rows, n_blocks, window)
    n_windows = n - window + 1

    def extreme(ufunc):
        prefix = ufunc.accumulate(blocks, axis=-1).reshape(n_rows, -1)
        suffix = ufunc.accumulate(blocks[..., ::-1], axis=-1)[..., ::-1]
        return ufunc(suffix.reshape(n_rows, -1)[:, :n_windows],
                     prefix[:, window - 1:n])

    return extreme(np.maximum) - extreme(np.minimum)
