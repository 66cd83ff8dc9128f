"""Adaptation loops for the interface's analog knobs.

The paper's circuits expose three continuous knobs — the equalizer's
NMOS gate voltage V1, the peaking differentiator's tail current, and
the delay buffer's tail current — and says they are "tunable" without
saying how they get tuned.  In a deployed SerDes an adaptation loop
does it: measure an eye-quality metric, move the knob, keep what helps.

This module provides that loop as a library API: a generic scalar-knob
optimizer (coarse grid + golden-section refinement, derivative-free —
eye metrics are noisy and non-smooth) and ready-made adapters for the
equalizer and the peaking circuit.

Batched evaluation contract
---------------------------
Candidates are scored in batches; a single waveform is a batch of one:

* :func:`eye_quality_metric_batch` scores a
  :class:`~repro.signals.batch.WaveformBatch` in one vectorized pass
  (shared fold, vectorized phase search and crossing extraction);
* :meth:`ScalarKnobSearch.maximize_batch` drives a batched objective
  ``objective_batch(np.ndarray) -> np.ndarray``: the coarse grid is
  evaluated through ONE call (all candidates at once), golden-section
  refinement through length-1 calls.  Given
  ``objective_batch(xs)[i] == objective(xs[i])`` it returns the
  identical :class:`AdaptationResult` as :meth:`~ScalarKnobSearch.maximize`
  — same candidate sequence, same history, same optimum;
* :func:`adapt_equalizer` / :func:`adapt_peaking` build every grid
  candidate's pipeline, stack the processed training waves into one
  batch and score them in a single batched metric pass.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Sequence, Tuple

import numpy as np

from ..analysis.eye import EyeDiagramBatch
from ..channel.backplane import BackplaneChannel
from ..signals.batch import WaveformBatch
from ..signals.nrz import NrzEncoder
from ..signals.prbs import prbs7
from ..signals.waveform import Waveform

__all__ = ["ScalarKnobSearch", "AdaptationResult", "adapt_equalizer",
           "adapt_peaking", "eye_quality_metric_batch"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclasses.dataclass(frozen=True)
class AdaptationResult:
    """Outcome of a knob adaptation."""

    best_setting: float
    best_score: float
    evaluations: int
    history: Tuple[Tuple[float, float], ...]
    """(setting, score) pairs in evaluation order."""


@dataclasses.dataclass
class ScalarKnobSearch:
    """Derivative-free maximizer for one bounded analog knob.

    Coarse grid to bracket the peak, then golden-section refinement
    inside the bracketing interval.  Deterministic and robust to the
    plateau/noise structure of eye metrics.

    :meth:`maximize` evaluates a scalar objective candidate by
    candidate; :meth:`maximize_batch` takes a vectorized objective and
    evaluates the whole coarse grid in one call — both walk the same
    candidate sequence and return identical results for consistent
    objectives.
    """

    lo: float
    hi: float
    n_grid: int = 7
    n_refine: int = 10

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got {self.lo}, {self.hi}")
        if self.n_grid < 3:
            raise ValueError(f"n_grid must be >= 3, got {self.n_grid}")
        if self.n_refine < 0:
            raise ValueError(f"n_refine must be >= 0, got {self.n_refine}")

    def maximize(self, objective: Callable[[float], float]
                 ) -> AdaptationResult:
        """Maximize a scalar objective (one candidate per call)."""
        return self._search(
            lambda xs: [float(objective(x)) for x in xs])

    def maximize_batch(self, objective_batch:
                       Callable[[np.ndarray], np.ndarray]
                       ) -> AdaptationResult:
        """Maximize a batched objective.

        ``objective_batch`` receives a 1-D array of candidate settings
        and must return one score per candidate; the coarse grid phase
        passes all ``n_grid`` candidates in a single call (the batched
        fast path), golden-section refinement passes length-1 arrays.
        """
        def evaluate_many(xs: List[float]) -> List[float]:
            scores = np.asarray(
                objective_batch(np.asarray(xs, dtype=float)), dtype=float)
            if scores.shape != (len(xs),):
                raise ValueError(
                    f"objective_batch returned shape {scores.shape} for "
                    f"{len(xs)} candidates"
                )
            return [float(score) for score in scores]

        return self._search(evaluate_many)

    def _search(self, evaluate_many:
                Callable[[List[float]], List[float]]) -> AdaptationResult:
        """The shared search: grid bracket, then golden-section."""
        history: List[Tuple[float, float]] = []

        def evaluate(xs: List[float]) -> List[float]:
            scores = evaluate_many(xs)
            history.extend(zip(xs, scores))
            return scores

        step = (self.hi - self.lo) / (self.n_grid - 1)
        grid = [self.lo + i * step for i in range(self.n_grid)]
        scores = evaluate(grid)
        best_index = max(range(len(grid)), key=lambda i: scores[i])

        # Bracket around the best grid point.
        left = grid[max(0, best_index - 1)]
        right = grid[min(len(grid) - 1, best_index + 1)]

        # Golden-section refinement (maximization).
        a, b = left, right
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc = evaluate([c])[0]
        fd = evaluate([d])[0]
        for _ in range(self.n_refine):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = evaluate([c])[0]
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = evaluate([d])[0]

        best_setting, best_score = max(history, key=lambda item: item[1])
        return AdaptationResult(best_setting=best_setting,
                                best_score=best_score,
                                evaluations=len(history),
                                history=tuple(history))


def eye_quality_metric_batch(batch: WaveformBatch, bit_rate: float,
                             skip_ui: int = 16) -> np.ndarray:
    """The adaptation objective per row: eye width minus a jitter
    penalty, one vectorized pass.

    Width (UI) dominates; RMS jitter (UI) is subtracted so that among
    equal-width settings the cleaner crossing wins.

    Folds the whole batch once; the vertical phase search and the
    crossing extraction run vectorized across all scenarios.  Rows
    share one length and rate, so a batch too short (or too coarsely
    sampled) to fold scores -10 on every row; a closed eye scores -1.
    """
    try:
        eye = EyeDiagramBatch(batch, bit_rate, skip_ui=skip_ui)
    except ValueError:
        return np.full(batch.n_scenarios, -10.0)
    heights = eye.eye_heights().max(axis=1)
    width = eye.eye_width_ui()
    metric = width - 2.0 * eye.jitter_rms_ui()
    is_open = (heights > 0) & (width > 0)
    return np.where(is_open, metric, -1.0)


def _training_wave(bit_rate: float, amplitude: float,
                   samples_per_bit: int, n_bits: int) -> Waveform:
    encoder = NrzEncoder(bit_rate=bit_rate, samples_per_bit=samples_per_bit,
                         amplitude=amplitude)
    return encoder.encode(prbs7(n_bits))


def adapt_equalizer(channel: BackplaneChannel, bit_rate: float = 10e9,
                    amplitude: float = 0.2, samples_per_bit: int = 16,
                    n_bits: int = 260,
                    n_refine: int = 6) -> AdaptationResult:
    """Adapt the equalizer's V1 against a channel.

    Builds the paper's input interface at each candidate V1 and scores
    the received eye; returns the optimum and the search history.
    Every coarse-grid candidate's received wave is scored in one
    :func:`eye_quality_metric_batch` pass.
    """
    from .interface import build_input_interface

    received = channel.process(
        _training_wave(bit_rate, amplitude, samples_per_bit, n_bits)
    )
    probe = build_input_interface()
    v1_lo, v1_hi = probe.equalizer.degeneration.control_range()
    # Stay inside the triode device's useful band.
    v1_hi = min(v1_hi, 1.2)

    def objective_batch(v1s: np.ndarray) -> np.ndarray:
        outs = WaveformBatch.stack([
            build_input_interface(equalizer_control_voltage=float(v1))
            .process(received) for v1 in v1s])
        return eye_quality_metric_batch(outs, bit_rate)

    search = ScalarKnobSearch(lo=v1_lo, hi=v1_hi, n_grid=6,
                              n_refine=n_refine)
    return search.maximize_batch(objective_batch)


def adapt_peaking(channel: BackplaneChannel, bit_rate: float = 10e9,
                  amplitude: float = 0.3, samples_per_bit: int = 16,
                  n_bits: int = 260,
                  n_refine: int = 6) -> AdaptationResult:
    """Adapt the peaking spike height (differentiator tail current).

    Same batched evaluation as :func:`adapt_equalizer`: the coarse
    grid's candidate waveforms are scored in one batched pass (eye
    metric plus the post-channel vertical-opening bonus).
    """
    from .interface import build_output_interface

    wave = _training_wave(bit_rate, amplitude, samples_per_bit, n_bits)

    def objective_batch(currents: np.ndarray) -> np.ndarray:
        outs = WaveformBatch.stack([
            channel.process(build_output_interface(
                spike_current=float(current)).process(wave))
            for current in currents])
        metric = eye_quality_metric_batch(outs, bit_rate)
        # Post-channel vertical opening matters for peaking; fold it in.
        try:
            eye = EyeDiagramBatch(outs, bit_rate, skip_ui=16)
            metric = metric + 2.0 * np.maximum(
                0.0, eye.eye_heights().max(axis=1))
        except ValueError:
            pass
        return metric

    search = ScalarKnobSearch(lo=0.2e-3, hi=4e-3, n_grid=5,
                              n_refine=n_refine)
    return search.maximize_batch(objective_batch)
