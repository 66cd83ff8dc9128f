"""Sweep subsystem: declarative scenario grids + the batched runner.

The scaling layer of the library: studies over equalizer settings,
channel lengths, PVT corners, mismatch draws, jitter and noise seeds are
declared as a :class:`ScenarioGrid` of axes and executed by a
:class:`SweepRunner`, which batches every stimulus-only axis through the
signal path as one :class:`~repro.signals.batch.WaveformBatch` pass and
rebuilds pipelines only along structural axes.

    from repro.sweep import ScenarioGrid, SweepAxis, SweepRunner
    from repro.analysis import measure_eye_batch

    grid = ScenarioGrid([
        SweepAxis("length_m", (0.1, 0.3, 0.5), structural=True),
        SweepAxis("seed", tuple(range(100))),
    ])
    runner = SweepRunner(
        grid,
        stimulus=make_noisy_wave,            # params dict -> Waveform
        build=make_link,                     # structural params -> Block
        measure=lambda batch, _:
            measure_eye_batch(batch, bit_rate=10e9),
    )
    result = runner.run()
    heights = result.values(lambda m: m.eye_height)   # shape (3, 100)

Long sweeps are fault-tolerant: ``runner.run(checkpoint_dir=...)``
journals every finished (structural point, row-chunk) unit for
bit-exact resume (:mod:`repro.sweep.checkpoint`), pool execution
retries crashed/hung/raising units with backoff, and
``on_error="quarantine"`` narrows persistent failures to the offending
rows, recorded as :class:`SweepFailure` entries on
``SweepResult.failures`` while healthy rows complete.  The
deterministic fault-injection harness (:mod:`repro.sweep.faults`,
env-gated via ``REPRO_SWEEP_FAULTS``) exercises all of it in CI.

Million-scenario studies stream instead of retaining: pass
``reducers={...}`` (:mod:`repro.sweep.reducers` — count/extrema,
Welford/Chan mean-variance, fixed-bin histograms, online quantiles,
pass/fail yield) and ``keep_results=False``, and every finished unit
folds into constant-size mergeable partials instead of a dense result
list; ``SweepResult.aggregates`` carries the finalized values and the
checkpoint journal stores partials per unit, so an interrupted
streaming sweep resumes to identical aggregates.
"""

from .checkpoint import CheckpointJournal
from .faults import FaultInjected, FaultRule, SweepAbort, inject_faults
from .grid import ScenarioGrid, SweepAxis, modulation_axis
from .reducers import (Count, Histogram, HistogramResult, MeanVar,
                       MeanVarResult, MinMax, MinMaxResult, Quantiles,
                       QuantilesResult, Reducer, Yield, YieldResult)
from .runner import SweepFailure, SweepResult, SweepRunner, \
    closed_loop_cdr_measure, dfe_measure

__all__ = ["ScenarioGrid", "SweepAxis", "modulation_axis",
           "SweepRunner", "SweepResult",
           "SweepFailure", "CheckpointJournal", "FaultRule", "FaultInjected",
           "SweepAbort", "inject_faults",
           "closed_loop_cdr_measure", "dfe_measure",
           "Reducer", "Count", "MinMax", "MeanVar", "Histogram",
           "Quantiles", "Yield",
           "MinMaxResult", "MeanVarResult", "HistogramResult",
           "QuantilesResult", "YieldResult"]
