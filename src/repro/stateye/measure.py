"""Sweep integration: statistical eyes as a ``SweepRunner`` measure.

A stat-eye sweep sends one *difference* stimulus per scenario — the
lone-one pattern minus the all-zero baseline — through the chain, so
the processed waveform IS the pulse response for a linear chain (the
baseline subtraction commutes with every linear stage, start-up
transients included).  For chains with limiting stages use
:meth:`LinkSession.statistical_eye`, which measures stimulus-minus-
baseline through the full chain at its operating point instead.

The measure follows the runner's ``measure(batch, params_list)``
convention: one call runs the engine's vectorized pass over every row
of a processed batch.  Pin the engine's ``v_half_span`` to make rows
independent of their batch (otherwise each call sizes its own voltage
grid, so chunking could change a row) and to keep grids comparable
across structural points (e.g. channel lengths) when reducers
aggregate the outputs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..analysis.isi import PulseResponse
from ..signals.batch import WaveformBatch
from ..signals.nrz import bits_to_nrz
from ..signals.waveform import Waveform
from .engine import StatEye

__all__ = ["stat_eye_stimulus", "stat_eye_measure"]


def stat_eye_stimulus(bit_rate: float, *, samples_per_bit: int = 32,
                      n_lead_bits: int = 8, n_lag_bits: int = 24,
                      amplitude: float = 1.0
                      ) -> Callable[[Dict], Waveform]:
    """Stimulus factory: the baseline-free lone-one pulse pattern.

    The returned closure builds ``...0001000... - ...0000000...`` at
    symbol rate ``bit_rate``; a batchable ``amplitude`` axis overrides
    the default per scenario.  Lead/lag bits bound the cursor span the
    downstream engine can observe — keep them >= the engine's
    ``n_precursors``/``n_postcursors``.
    """
    if n_lead_bits < 2 or n_lag_bits < 2:
        raise ValueError("need at least 2 lead and lag bits")

    bits = np.array([0] * n_lead_bits + [1] + [0] * n_lag_bits)
    zeros = np.zeros(len(bits), dtype=int)

    def stimulus(params: Dict) -> Waveform:
        swing = float(params.get("amplitude", amplitude))
        lone = bits_to_nrz(bits, bit_rate, amplitude=swing,
                           samples_per_bit=samples_per_bit)
        base = bits_to_nrz(zeros, bit_rate, amplitude=swing,
                           samples_per_bit=samples_per_bit)
        return Waveform(lone.data - base.data, lone.sample_rate)

    return stimulus


def stat_eye_measure(engine: StatEye, bit_rate: float, *,
                     chunk_scenarios: Optional[int] = None,
                     reduce: Optional[Callable[[Any, Dict], Any]] = None):
    """Build a ``measure(batch, params_list)`` running the
    statistical eye engine over every scenario.

    Each processed waveform is interpreted as a pulse response
    (:meth:`PulseResponse.from_waveform` — pair with
    :func:`stat_eye_stimulus`); all of a structural point's scenarios
    go through :meth:`StatEye.analyze_batch` in one vectorized pass.

    ``reduce(result, params)`` maps each per-scenario
    :class:`~repro.stateye.StatEyeResult` to the value recorded in the
    :class:`~repro.sweep.runner.SweepResult` (default: the result
    itself) — reduce to scalars (e.g. ``lambda r, p: r.ber``) when
    streaming through reducers::

        runner = SweepRunner(grid, stimulus=stat_eye_stimulus(10e9),
                             measure=stat_eye_measure(
                                 StatEye(noise_rms=5e-3, v_half_span=0.5),
                                 bit_rate=10e9, reduce=lambda r, p: r.ber))
    """

    def measure(batch: WaveformBatch, params_list: List[Dict]) -> List[Any]:
        pulses = [PulseResponse.from_waveform(batch[i], bit_rate)
                  for i in range(batch.n_scenarios)]
        rows = engine.analyze_batch(
            pulses, chunk_scenarios=chunk_scenarios).rows()
        if reduce is not None:
            return [reduce(row, params)
                    for row, params in zip(rows, params_list)]
        return rows

    return measure
