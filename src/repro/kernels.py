"""Bit-serial kernels: the CDR and DFE recurrences and their sampler.

The CDR and DFE are causal recurrences along the bit axis: what a loop
does at bit k depends only on its state after bit k - 1.  Each kernel
here is the one implementation of its algorithm (a single waveform runs
as a batch of one), and it solves the recurrence a window of bits at a
time by fixed-point (Jacobi) iteration, the idea of DEER (Lim et al.,
https://arxiv.org/abs/2309.12252) and of Jacobi decoding (Santilli et
al., https://arxiv.org/abs/2305.10427).  A sweep

* takes a guessed trajectory for the window: the CDR's phase track, at
  first held flat at the current phase, or the DFE's decisions, at
  first the raw samples sliced with no feedback;
* evaluates every bit of the window from that guess in a few vectorized
  calls: one ``sample_uniform`` gather of all data and edge instants and
  all Alexander votes at once, or the feedback of every bit, tap by tap;
* rebuilds the trajectory from those votes or decisions.

The DFE repeats this on a block of bits until the decisions stop
changing.  A CDR sweep repeats it too, in passes over the same window:
each pass takes the rebuilt track as its guess, until the window is
stable (the guess equals the track it rebuilds) or a small cap of
passes is reached.  Only then does the sweep commit, once, the steps
whose guessed phase its last pass confirms, and slide its window past
them, carrying the rest of the rebuilt track as the next guess.  The
passes change only the guess a window commits from, never the commit
rule.

Why the answer is exactly the bit-serial one:

* the arithmetic is the loop's, float for float: ``np.add.accumulate``
  is a left fold that rounds each partial sum as the loop's
  ``integral += ki * vote`` and ``phase += kp * vote + integral`` do,
  the instants keep the loop's operation order
  (``(k + 0.5 + bit_offset) + phase``, then ``* ui``), and the DFE sums
  its feedback tap by tap, starting from ``0.0``;
* the first bit of a window depends only on committed state, and bit m
  only on the guess for the bits before it.  So where the guess agrees
  with the rebuilt trajectory on bits 0..m-1, those bits are the serial
  ones (by induction on m), and every pass makes at least one more bit
  exact: a block of B bits converges in at most B + 1 passes, and a CDR
  sweep commits at least one step.

Each CDR row is an independent loop at its own position.  A row's
commit stops at its first event: the step at which its edge instant
reaches the end of the waveform (the row ends there), or the step after
which its phase passes +-1 UI (a cycle slip, applied as a state edit
before its next window).  The very first step of a row samples the
first bit but casts no vote and updates nothing, whatever the initial
integral.

The module is deliberately self-contained (NumPy only, no imports from
the rest of ``repro``) so it can be imported at any point of package
import without a cycle.  :func:`sample_uniform` here is the one home of
the interpolation arithmetic (``repro.signals.sample_uniform`` is this
function).  The slicers follow one convention: a sample counts above a
threshold only when ``sample > threshold`` (so NaN counts low), and the
Alexander vote counts a sample at or above the middle threshold high.
"""

from __future__ import annotations

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
    # d0 + frac * (d1 - d0), in place in the freshly gathered d1.
    d1 -= d0
    d1 *= frac
    d1 += d0
    return d1


def _slice(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Count of thresholds strictly below each value: the Gray level
    index (NaN counts low)."""
    return (values[..., np.newaxis] > thresholds).sum(axis=-1)


# Fixed-point windows.  A CDR sweep evaluates up to _CDR_BLOCK steps of
# each live row and about _CDR_BUDGET row-steps in all, but never fewer
# than _CDR_MIN_BLOCK steps per row: a single row spreads the per-call
# overhead over a long window, while a wide batch, whose cost is the
# element work, re-evaluates fewer of the steps a sweep leaves inexact.
# A sweep takes up to _passes(rows) passes over its window before it
# commits: _CDR_PASSES for up to _CDR_PASS_ROWS // _CDR_PASSES live
# rows, fewer for more rows, and never fewer than 2.  A pass skips the
# commit bookkeeping, about half of a sweep's NumPy calls, which is
# what a few rows pay for; but it re-evaluates every row until the
# slowest is stable, element work that a wide batch pays for.
# (Measured, kernel time against the earlier one pass per sweep at 64
# steps and 2048 row-steps, medians of 7 interleaved rounds: 1 row of
# 1000 bits 0.62x, 2 rows of 300 bits 0.74x, 8 rows 0.83x, 16 rows
# 0.98x, 32 rows 0.87x, 64 rows 0.86x, 128 rows of 280 bits 0.89x,
# 500 rows 0.91x.  A flat cap of 8 passes with a 4096 row-step budget
# made 32, 128 and 500 rows 1.13x to 1.28x slower; windows of 256 steps
# are slower for one row.)  A DFE sweep is far cheaper, so its blocks
# are longer.
_CDR_BLOCK = 128
_CDR_MIN_BLOCK = 8
_CDR_BUDGET = 2048
_CDR_PASSES = 8
_CDR_PASS_ROWS = 128
_DFE_BLOCK = 256


def _window(n_rows: int) -> int:
    """Steps per CDR sweep for ``n_rows`` live rows."""
    return min(_CDR_BLOCK, max(_CDR_MIN_BLOCK, _CDR_BUDGET // n_rows))


def _passes(n_rows: int) -> int:
    """Most passes a CDR sweep takes over its window for ``n_rows``
    live rows."""
    return min(_CDR_PASSES, max(2, _CDR_PASS_ROWS // n_rows))


# [data, edge] instant of a bit-step, in UI past the step index.
_DATA_EDGE = np.array([[0.5], [1.0]])


def _unphased(steps, bit_offset):
    """Data and edge instants ``(B, 2, L)`` of the bit-steps ``steps``
    ``(B, L)`` before the phase, in UI: ``k + 0.5 + bit_offset``.  The
    serial loop then adds the phase and scales by ``ui``, in that
    order."""
    instants = steps[:, np.newaxis, :] + _DATA_EDGE
    instants += bit_offset
    return instants


def cdr_recover_batch(data: np.ndarray, t0: float, sample_rate: float,
                      t_last: float, ui: float, kp: float, ki: float,
                      phase: np.ndarray, integral: np.ndarray,
                      total_bits: int, thresholds=None):
    """Run N bang-bang loops, a window of bit-steps per fixed-point sweep.

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

    Each bit-step is what the serial loop does: sample the data and
    edge instants at the current phase; a row whose edge instant
    reaches ``t_last`` ends there; from the second step on, the
    Alexander vote updates ``integral += ki * vote`` and
    ``phase += kp * vote + integral``, and a phase past +-1 UI folds a
    whole bit into the row's index offset (a counted cycle slip).
    """
    data = np.ascontiguousarray(data, dtype=float)
    thresholds = (np.zeros(1) if thresholds is None
                  else np.asarray(thresholds, dtype=float))
    center = float(thresholds[(len(thresholds) - 1) // 2])
    # Python floats: ``ki * vote`` is then float64, as in the serial loop.
    kp, ki, ui = float(kp), float(ki), float(ui)
    n_rows = data.shape[0]
    phase = np.array(phase, dtype=float)
    integral = np.array(integral, dtype=float)
    # Whole numbers held as floats: ``k + 0.5 + bit_offset`` rounds
    # exactly as it would with an integer offset.
    bit_offset = np.zeros(n_rows)
    slips = np.zeros(n_rows, dtype=np.int64)
    row_bits = np.full(n_rows, total_bits, dtype=np.int64)
    row_offsets = np.arange(n_rows) * data.shape[1]
    # Bit-major outputs with room for a whole window past the last step:
    # a sweep writes its whole window, and a later sweep rewrites every
    # step it had not made exact.
    data_samples = np.zeros((total_bits + _CDR_BLOCK, n_rows))
    phases = np.empty((total_bits + _CDR_BLOCK, n_rows))
    votes = np.zeros((total_bits + _CDR_BLOCK, n_rows), dtype=np.int8)

    def outputs():
        decisions = _slice(data_samples[:total_bits], thresholds)
        decisions = decisions.astype(np.int8)
        # Rows that ran out of waveform: blank everything past their
        # last valid bit.
        tail = np.arange(total_bits)[:, np.newaxis] >= row_bits
        decisions[tail] = 0
        track = phases[:total_bits]
        track[tail] = np.nan
        votes_out = votes[:total_bits]
        votes_out[tail] = 0
        return (np.ascontiguousarray(decisions.T),
                np.ascontiguousarray(track.T),
                np.ascontiguousarray(votes_out.T), slips, row_bits)

    # Step 0 samples the first bit but casts no vote: the loop state is
    # untouched, whatever the initial integral.
    instants = _unphased(np.zeros((1, n_rows), dtype=np.int64), bit_offset)
    instants += phase
    instants *= ui
    live = (instants[0, 1] < t_last) & (total_bits > 0)
    row_bits[~live] = 0
    if not live.any():
        return outputs()
    samples = sample_uniform(data, t0, sample_rate, instants, row_offsets)
    data_samples[0] = samples[0, 0]
    phases[0] = phase

    # Per live row: its original index, next step, loop state, the
    # high/low data and edge slices of its previous step, and the phase
    # track guessed for the window of steps starting at ``step``.
    rows = np.flatnonzero(live)
    cols = np.arange(rows.size)
    step = np.ones(rows.size, dtype=np.int64)
    phase, integral = phase[live], integral[live]
    bit_offset = bit_offset[live]
    previous = (samples[0][:, live] >= center).view(np.int8)
    guess = np.repeat(phase[np.newaxis], _window(rows.size), axis=0)
    block = np.arange(_CDR_BLOCK)[:, np.newaxis]
    flat = (data_samples.reshape(-1), phases.reshape(-1), votes.reshape(-1))

    while rows.size:
        width = len(guess)
        steps = step + block[:width]
        unphased = _unphased(steps, bit_offset)
        row_starts = row_offsets[rows]
        passes = _passes(rows.size)
        for sweep_pass in range(passes):
            instants = unphased + guess[:, np.newaxis]
            instants *= ui
            samples = sample_uniform(data, t0, sample_rate, instants,
                                     row_starts)
            high = (samples >= center).view(np.int8)
            # Alexander vote of each step from A (previous data), T
            # (previous edge) and B (data): (T ^ B) - (T ^ A) is +1 when
            # T agrees with A across a transition (EARLY), -1 when it
            # agrees with B (LATE) and 0 without a transition.
            before = np.concatenate((previous[np.newaxis], high[:-1]))
            edge = before[:, 1]
            vote = (edge ^ high[:, 0]) - (edge ^ before[:, 0])
            # The loop's updates as left folds, in its operation order.
            integrals = ki * vote
            integrals[0] += integral
            np.add.accumulate(integrals, axis=0, out=integrals)
            track = kp * vote + integrals
            track[0] += phase
            np.add.accumulate(track, axis=0, out=track)  # phase after a step
            # The steps before the first one whose guessed phase differs
            # from the rebuilt track were sampled at the serial instants:
            # exact.
            changed = guess[1:] != track[:-1]
            if sweep_pass == passes - 1 or not changed.any():
                break
            # Not yet stable: the rebuilt track is the next pass's guess.
            guess[1:] = track[:-1]
        # Write the whole window: a later sweep rewrites every step that
        # this one does not make exact.
        at = steps * n_rows + rows
        for out, values in zip(flat, (samples[:, 0], guess, vote)):
            out[at] = values

        count = np.where(changed.any(axis=0), changed.argmax(axis=0) + 1,
                         width)
        # A row's first event, once exact, ends its commit: the row's end
        # (its edge instant reaches t_last or it runs out of steps), or
        # else a slip (a step that ends the row does not move its phase).
        ending = instants[:, 1] >= t_last
        if (step + width > total_bits).any():
            ending |= steps >= total_bits
        slipping = np.abs(track) > 1.0
        ended = slipped = np.zeros(rows.size, dtype=bool)
        if ending.any() or slipping.any():
            event = ending | slipping
            first = np.where(event.any(axis=0), event.argmax(axis=0), width)
            hit = first < count
            ended = hit & ending[np.minimum(first, width - 1), cols]
            slipped = hit & ~ended
            count = np.where(hit, first + slipped, count)
            row_bits[rows[ended]] = steps[first[ended], cols[ended]]

        last = count - 1
        phase = track[last, cols]
        integral = integrals[last, cols]
        previous = high[last, :, cols].T
        step += count
        # The rest of the rebuilt track, held flat past its end, is the
        # next window's guess.
        ahead = block[:_window(rows.size)]
        guess = track[np.minimum(last + ahead, width - 1), cols]
        wrap = np.flatnonzero(slipped)
        if wrap.size:
            # A wrap across +-1 UI is a cycle slip: fold the whole bit
            # into the index offset so the sampling instant (and the
            # decision sequence) stays continuous, and count it.
            sign = np.where(phase[wrap] > 0.0, 1.0, -1.0)
            phase[wrap] -= sign
            bit_offset[wrap] += sign
            slips[rows[wrap]] += sign.astype(np.int64)
            guess[:, wrap] = phase[wrap]
        if ended.any():
            keep = ~ended
            rows, step, phase = rows[keep], step[keep], phase[keep]
            integral, bit_offset = integral[keep], bit_offset[keep]
            previous, guess = previous[:, keep], guess[:, keep]
            cols = np.arange(rows.size)

    return outputs()


def dfe_equalize_batch(data: np.ndarray, taps: np.ndarray,
                       ui_samples: float, sample_phase_ui: float,
                       decision_amplitude: float, n_bits: int,
                       thresholds=None, decision_levels=None):
    """Run N decision-feedback loops, a block of bits per fixed-point solve.

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
    threshold0 = float(thresholds[0])

    def decide(values):
        if len(thresholds) == 1:
            # Fast path, identical to the historical sign slicer.
            return (values > threshold0).view(np.int8)
        return _slice(values, thresholds)

    # The sampling instants do not depend on the feedback: take every
    # raw sample up front, row by row.
    instants = (np.arange(n_bits) + sample_phase_ui) * ui_samples
    raw = sample_uniform(data, 0.0, 1.0, instants,
                         np.arange(n_rows)[:, np.newaxis] * data.shape[1])
    decisions = np.zeros((n_rows, n_bits), dtype=np.int8)
    corrected = np.zeros((n_rows, n_bits))
    weights = taps.tolist()
    n_taps = len(weights)
    # Fed-back level of every bit after n_taps columns of zeros: the
    # empty history before bit 0.
    fed = np.zeros((n_rows, n_taps + n_bits))
    for start in range(0, n_bits, _DFE_BLOCK):
        stop = min(start + _DFE_BLOCK, n_bits)
        guess = decide(raw[:, start:stop])
        while True:
            fed[:, n_taps + start:n_taps + stop] = decision_levels[guess]
            feedback = 0.0
            for j, weight in enumerate(weights):
                past = fed[:, n_taps + start - 1 - j:n_taps + stop - 1 - j]
                feedback = feedback + weight * past
            values = raw[:, start:stop] - feedback
            symbols = decide(values)
            if np.array_equal(symbols, guess):
                break
            guess = symbols
        decisions[:, start:stop] = symbols
        corrected[:, start:stop] = values
    return decisions, corrected
