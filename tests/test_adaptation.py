"""Knob adaptation: scalar search and the equalizer/peaking adapters."""

import math

import pytest

from repro.channel import BackplaneChannel
from repro.core import (
    ScalarKnobSearch,
    adapt_equalizer,
    adapt_peaking,
    eye_quality_metric_batch,
)
from repro.signals import WaveformBatch, bits_to_nrz, prbs7
import serial_oracles as oracle

BIT_RATE = 10e9


# -- scalar search -----------------------------------------------------------

def test_search_finds_parabola_peak():
    search = ScalarKnobSearch(lo=0.0, hi=10.0, n_grid=7, n_refine=20)
    result = search.maximize(lambda x: -(x - 3.7) ** 2)
    assert result.best_setting == pytest.approx(3.7, abs=0.05)
    assert result.evaluations == 7 + 2 + 20


def test_search_handles_edge_maximum():
    search = ScalarKnobSearch(lo=0.0, hi=1.0, n_refine=10)
    result = search.maximize(lambda x: x)  # monotone: peak at hi
    assert result.best_setting == pytest.approx(1.0, abs=0.1)


def test_search_history_records_everything():
    search = ScalarKnobSearch(lo=0.0, hi=1.0, n_grid=5, n_refine=3)
    result = search.maximize(lambda x: math.sin(3 * x))
    assert len(result.history) == result.evaluations
    best = max(result.history, key=lambda item: item[1])
    assert best[1] == result.best_score


def test_search_validation():
    with pytest.raises(ValueError):
        ScalarKnobSearch(lo=1.0, hi=0.0)
    with pytest.raises(ValueError):
        ScalarKnobSearch(lo=0.0, hi=1.0, n_grid=2)
    with pytest.raises(ValueError):
        ScalarKnobSearch(lo=0.0, hi=1.0, n_refine=-1)


# -- metric -----------------------------------------------------------------

def test_metric_ranks_clean_above_degraded():
    clean = bits_to_nrz(prbs7(260), BIT_RATE, amplitude=0.3,
                        samples_per_bit=16)
    degraded = BackplaneChannel(0.6).process(clean)
    metrics = eye_quality_metric_batch(
        WaveformBatch.stack([clean, degraded]), BIT_RATE)
    assert metrics[0] > metrics[1]


def test_metric_penalizes_unmeasurable_waves():
    from repro.signals import Waveform
    import numpy as np

    flat = Waveform(np.zeros(200), 160e9)
    assert eye_quality_metric_batch(WaveformBatch.stack([flat]),
                                    BIT_RATE)[0] < 0


# -- adapters -----------------------------------------------------------

def test_equalizer_adaptation_prefers_boost_on_lossy_channel():
    result = adapt_equalizer(BackplaneChannel(0.5), n_refine=3)
    # ~13 dB of Nyquist loss wants strong equalization: V1 near the
    # bottom of its range (maximum boost).
    assert result.best_setting < 0.75
    assert result.best_score > 0.6  # a healthy reopened eye


def test_equalizer_adaptation_relaxed_on_short_channel():
    lossy = adapt_equalizer(BackplaneChannel(0.55), n_refine=3)
    mild = adapt_equalizer(BackplaneChannel(0.1), n_refine=3)
    # The mild channel needs less boost => higher (or equal) optimum V1.
    assert mild.best_setting >= lossy.best_setting - 0.05
    assert mild.best_score >= lossy.best_score


def test_peaking_adaptation_finds_nonzero_spike():
    result = adapt_peaking(BackplaneChannel(0.5), n_refine=3)
    assert 0.2e-3 <= result.best_setting <= 4e-3
    assert result.best_setting > 0.4e-3  # lossy channel wants peaking


# -- batched evaluation ------------------------------------------------------

def test_maximize_batch_matches_maximize_exactly():
    import numpy as np

    search = ScalarKnobSearch(lo=0.0, hi=10.0, n_grid=7, n_refine=8)
    objective = lambda x: math.sin(x) - 0.1 * (x - 4.0) ** 2
    serial = search.maximize(objective)
    batched = search.maximize_batch(
        lambda xs: np.array([objective(float(x)) for x in xs]))
    assert batched == serial  # same candidates, history and optimum


def test_maximize_batch_grid_goes_through_one_call():
    import numpy as np

    calls = []

    def objective_batch(xs):
        calls.append(len(xs))
        return -np.abs(xs - 0.4)

    search = ScalarKnobSearch(lo=0.0, hi=1.0, n_grid=5, n_refine=3)
    result = search.maximize_batch(objective_batch)
    assert calls[0] == 5              # the whole coarse grid at once
    assert all(n == 1 for n in calls[1:])  # golden-section refinements
    assert result.evaluations == 5 + 2 + 3


def test_maximize_batch_rejects_wrong_shape():
    import numpy as np
    import pytest

    search = ScalarKnobSearch(lo=0.0, hi=1.0)
    with pytest.raises(ValueError):
        search.maximize_batch(lambda xs: np.zeros(len(xs) + 1))


def test_eye_quality_metric_batch_is_exported():
    from repro.core import eye_quality_metric_batch
    from repro.signals import WaveformBatch

    clean = bits_to_nrz(prbs7(120), BIT_RATE, amplitude=0.3,
                        samples_per_bit=16)
    batch = WaveformBatch.stack([clean, BackplaneChannel(0.6).process(clean)])
    metrics = eye_quality_metric_batch(batch, BIT_RATE)
    assert metrics[0] == oracle.eye_quality_metric(clean, BIT_RATE)
    assert metrics[0] > metrics[1]


def test_adapt_equalizer_batched_matches_serial():
    channel = BackplaneChannel(0.4)
    batched = adapt_equalizer(channel, n_refine=2)
    assert batched == oracle.adapt_equalizer(channel, n_refine=2)


def test_adapt_peaking_batched_matches_serial():
    channel = BackplaneChannel(0.5)
    batched = adapt_peaking(channel, n_refine=2)
    assert batched == oracle.adapt_peaking(channel, n_refine=2)


def test_metric_batch_resamples_non_integer_samples_per_ui():
    # Each row is resampled to 16 samples/UI before the fold, as the
    # per-waveform oracle does, instead of reporting every row
    # unmeasurable.
    import numpy as np
    from repro.core import eye_quality_metric_batch
    from repro.signals import WaveformBatch

    wave = bits_to_nrz(prbs7(120), BIT_RATE, amplitude=0.3,
                       samples_per_bit=16).resampled(15.5 * BIT_RATE)
    batch = WaveformBatch.stack([wave, wave * 0.5])
    metrics = eye_quality_metric_batch(batch, BIT_RATE)
    for i, row in enumerate(batch.rows()):
        assert metrics[i] == oracle.eye_quality_metric(row, BIT_RATE)
    assert np.all(metrics > 0)  # a clean eye, not the -10 sentinel
