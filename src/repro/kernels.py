"""Bit-serial kernels: the CDR and DFE recurrences and their sampler.

The batched CDR and DFE engines advance N scenarios one bit-step at a
time; the per-bit recurrence (interpolation sample → vote/decision →
state update) is serial along the bit axis.  Each kernel here is the
one implementation of its algorithm: a single waveform runs as a batch
of one, so there is no scalar twin to keep in step.

Every bit-step performs one vectorized pass over all rows, so the
Python interpreter runs ``total_bits`` iterations instead of
``n_rows * total_bits``.  With few rows the cost is the number of NumPy
calls per step, not their width, so the loops keep only what truly
depends on the previous bit:

* the DFE samples every decision instant in one call before its loop
  (the instants do not depend on the feedback); each step subtracts the
  feedback, slices and pushes the decided level onto a ring of taps;
* the CDR gathers its data and edge samples in one ``(2, n_rows)``
  call, votes from booleans, slices its data decisions after the loop,
  and leaves the masked end-of-waveform and phase-wrap handling to
  steps where a single ``max`` says it is needed.

The module is deliberately self-contained (NumPy only, no imports from
the rest of ``repro``) so it can be imported at any point of package
import without a cycle.  :func:`sample_uniform` here is the one home of
the interpolation arithmetic (``repro.signals.sample_uniform`` is this
function).  The slicers follow one convention, shared with
``repro.cdr.phase_detector.vote_step``: a sample counts above a
threshold only when ``sample > threshold`` (so NaN counts low), and the
Alexander vote counts a sample at or above the middle threshold high.
"""

from __future__ import annotations

import collections

import numpy as np

__all__ = ["backend_name", "cdr_recover_batch", "dfe_equalize_batch",
           "sample_uniform"]


def backend_name() -> str:
    """Name of the kernel implementation, recorded with benchmark runs."""
    return "numpy"


def sample_uniform(data: np.ndarray, t0: float, sample_rate: float,
                   times, row_offsets=None) -> np.ndarray:
    """Linear interpolation on a uniform grid, vectorized over rows.

    ``data`` is either one signal ``(n_samples,)`` or a row stack
    ``(n_rows, n_samples)``; ``times`` is broadcast per row: a scalar or
    ``(m,)`` against 1-D data, a scalar, ``(n_rows,)`` or
    ``(n_rows, m)`` against 2-D data.  Instants outside the grid clamp
    to the end samples (as :func:`numpy.interp` does).

    ``row_offsets`` is the gather of the bit-serial kernels: with a
    C-ordered 2-D ``data``, each instant reads the row whose flat start
    (``row * n_samples``) it broadcasts against, and the result takes
    the broadcast shape of ``times`` and ``row_offsets`` — instants
    ``(2, n_rows)`` against offsets ``(n_rows,)``, or ``(n_bits, 1)``
    against ``(n_rows,)`` for a bit-major sample matrix.

    Every consumer of per-instant sampling — ``Waveform.sample_at``,
    ``WaveformBatch.sample_at`` and both kernels here — goes through
    this single function.
    """
    data = np.asarray(data, dtype=float)
    n = data.shape[-1]
    if n < 2:
        raise ValueError(f"need at least 2 samples to interpolate, got {n}")
    x = (np.asarray(times, dtype=float) - t0) * sample_rate
    x = x.clip(0.0, float(n - 1))
    i0 = np.minimum(x.astype(np.int64), n - 2)
    frac = x - i0
    if row_offsets is not None:
        flat = data.reshape(-1)
        index = i0 + row_offsets
        d0 = flat[index]
        d1 = flat[1:][index]    # flat[index + 1], one add fewer
    elif data.ndim == 1:
        d0 = data[i0]
        d1 = data[i0 + 1]
    elif data.ndim == 2:
        n_rows = data.shape[0]
        if i0.ndim >= 1 and i0.shape[0] != n_rows:
            raise ValueError(
                f"per-row instants must be scalar, ({n_rows},) or "
                f"({n_rows}, m) for {n_rows} rows, got shape {i0.shape}"
            )
        rows = np.arange(n_rows)
        if i0.ndim == 2:
            rows = rows[:, np.newaxis]
        elif i0.ndim == 0:
            i0 = np.broadcast_to(i0, (n_rows,))
            frac = np.broadcast_to(frac, (n_rows,))
        d0 = data[rows, i0]
        d1 = data[rows, i0 + 1]
    else:
        raise ValueError(f"data must be 1-D or 2-D, got shape {data.shape}")
    return d0 + frac * (d1 - d0)


def _slice(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Count of thresholds strictly below each value: the Gray level
    index (NaN counts low)."""
    return (values[..., np.newaxis] > thresholds).sum(axis=-1)


def cdr_recover_batch(data: np.ndarray, t0: float, sample_rate: float,
                      t_last: float, ui: float, kp: float, ki: float,
                      phase: np.ndarray, integral: np.ndarray,
                      total_bits: int, thresholds=None):
    """Advance N bang-bang loops together, one bit-step at a time.

    Parameters are the loop state of :class:`repro.cdr.BangBangCdr`:
    per-row ``phase`` (UI) and
    ``integral`` (fractional frequency) starting states, shared
    ``kp``/``ki`` gains.  ``thresholds`` is the modulation's sorted
    decision-threshold vector (default ``[0.0]``, the binary sign
    slicer): data decisions are the count of thresholds strictly below
    the sample (= the Gray level index), and the Alexander votes slice
    at the *middle* threshold — the only eye whose transitions carry
    timing for a bang-bang loop.  Returns ``(decisions, phases, votes,
    slips, row_bits)`` with rows that ran out of waveform blanked past
    their last valid bit (0 decisions/votes, NaN phases).
    """
    data = np.ascontiguousarray(data, dtype=float)
    thresholds = (np.zeros(1) if thresholds is None
                  else np.asarray(thresholds, dtype=float))
    center = float(thresholds[(len(thresholds) - 1) // 2])
    n_rows = data.shape[0]
    phase = np.array(phase, dtype=float)
    integral = np.array(integral, dtype=float)
    # Whole numbers held as floats: ``k + 0.5 + bit_offset`` rounds
    # exactly as it would with an integer offset.
    bit_offset = np.zeros(n_rows)
    slips = np.zeros(n_rows, dtype=np.int64)
    active = np.ones(n_rows, dtype=bool)
    row_bits = np.full(n_rows, total_bits, dtype=np.int64)
    row_offsets = np.arange(n_rows) * data.shape[1]
    # [data, edge] instants of bit k, before the per-row offset/phase.
    steps = np.arange(total_bits)[:, None, None] + np.array([[0.5], [1.0]])

    # Bit-major: each step writes one contiguous row.  Data samples are
    # kept and sliced into decisions after the loop.
    data_samples = np.zeros((total_bits, n_rows))
    phases = np.empty((total_bits, n_rows))
    votes = np.zeros((total_bits, n_rows), dtype=np.int8)
    previous_high = None

    # An empty batch has no edge instant to take the max of: no steps.
    for k in range(total_bits if n_rows else 0):
        instants = steps[k] + bit_offset
        instants += phase
        instants *= ui
        if instants[1].max() >= t_last:
            ending = active & (instants[1] >= t_last)
            if ending.any():
                row_bits[ending] = k
                active &= ~ending
                if not active.any():
                    break
        samples = sample_uniform(data, t0, sample_rate, instants,
                                 row_offsets)
        data_samples[k] = samples[0]
        phases[k] = phase
        high = (samples >= center).view(np.int8)

        if previous_high is not None:
            # Alexander vote from A (previous data), T (previous edge)
            # and B (data): (T ^ B) - (T ^ A) is +1 when T agrees with A
            # across a transition (EARLY), -1 when it agrees with B
            # (LATE) and 0 without a transition.
            edge = previous_high[1]
            vote = (edge ^ high[0]) - (edge ^ previous_high[0])
            votes[k] = vote
            # Rows past their end keep updating too: everything they
            # produce from here on is blanked below.
            integral += ki * vote
            phase += kp * vote + integral
            if np.abs(phase).max() > 1.0:
                # A wrap across +-1 UI is a cycle slip: fold the whole
                # bit into the index offset so the sampling instant (and
                # the decision sequence) stays continuous, and count it.
                wrap_up = active & (phase > 1.0)
                wrap_down = active & (phase < -1.0)
                phase[wrap_up] -= 1.0
                bit_offset[wrap_up] += 1.0
                slips[wrap_up] += 1
                phase[wrap_down] += 1.0
                bit_offset[wrap_down] -= 1.0
                slips[wrap_down] -= 1
        previous_high = high

    decisions = _slice(data_samples, thresholds).astype(np.int8)
    # Rows that ran out of waveform: blank everything past their last
    # valid bit so the rectangular arrays cannot leak the garbage
    # computed while other rows were still running.
    tail = np.arange(total_bits)[:, np.newaxis] >= row_bits
    decisions[tail] = 0
    votes[tail] = 0
    phases[tail] = np.nan
    return (np.ascontiguousarray(decisions.T), np.ascontiguousarray(phases.T),
            np.ascontiguousarray(votes.T), slips, row_bits)


def dfe_equalize_batch(data: np.ndarray, taps: np.ndarray,
                       ui_samples: float, sample_phase_ui: float,
                       decision_amplitude: float, n_bits: int,
                       thresholds=None, decision_levels=None):
    """Advance N decision-feedback loops together, one bit per step.

    ``thresholds``/``decision_levels`` carry the modulation's sorted
    decision thresholds and the level value fed back for each decided
    symbol; the defaults (``[0.0]`` / ``[-A, +A]``) are the historical
    binary sign slicer, bit for bit.  Returns ``(decisions,
    corrected)`` of shape ``(n_rows, n_bits)``; decisions are level
    indices.  The feedback dot product accumulates tap by tap in index
    order, starting from ``0.0``.
    """
    data = np.ascontiguousarray(data, dtype=float)
    taps = np.asarray(taps, dtype=float)
    thresholds = (np.zeros(1) if thresholds is None
                  else np.asarray(thresholds, dtype=float))
    if decision_levels is None:
        decision_levels = np.array([-decision_amplitude,
                                    decision_amplitude])
    else:
        decision_levels = np.asarray(decision_levels, dtype=float)
    n_rows = data.shape[0]
    binary = len(thresholds) == 1
    threshold0 = float(thresholds[0])
    # The sampling instants do not depend on the feedback: take every
    # raw sample up front, bit-major, and correct it in place below.
    instants = (np.arange(n_bits) + sample_phase_ui) * ui_samples
    corrected = sample_uniform(data, 0.0, 1.0, instants[:, np.newaxis],
                               np.arange(n_rows) * data.shape[1])
    decisions = np.zeros((n_bits, n_rows), dtype=np.int8)
    # Decided levels, newest first; the ring drops the oldest on push.
    history = collections.deque([np.zeros(n_rows)] * len(taps),
                                maxlen=len(taps))
    weights = taps.tolist()
    for k in range(n_bits):
        feedback = 0.0
        for weight, past in zip(weights, history):
            feedback = feedback + weight * past
        values = corrected[k]
        values -= feedback
        if binary:
            # Fast path, identical to the historical sign slicer.
            symbols = (values > threshold0).view(np.int8)
        else:
            symbols = _slice(values, thresholds)
        decisions[k] = symbols
        history.appendleft(decision_levels[symbols])
    return (np.ascontiguousarray(decisions.T),
            np.ascontiguousarray(corrected.T))
