"""One entry point per kernel, one row-stack helper for the results.

``BangBangCdr.recover`` and ``DecisionFeedbackEqualizer.equalize`` /
``inner_eye_height`` take a ``Waveform`` or a ``WaveformBatch``; the
batch results (``CdrBatchResult``, ``LinkBatchResult``,
``LinkBatchReport``, ``StatEyeBatchResult``) share ``RowStack``'s
``rows``/``concatenate``.
Every parity check here is against the scalar oracles in
``serial_oracles.py`` or a per-row NumPy oracle, never against a
one-row call of the same code.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.isi import pulse_response
from repro.baselines import DecisionFeedbackEqualizer
from repro.cdr import BangBangCdr, CdrBatchResult, CdrConfig
from repro.channel.backplane import BackplaneChannel
from repro.link import LinkBatchResult, run_framed_link
from repro.serdes import LinkBatchReport
from repro.signals import (
    NrzEncoder,
    Pam4,
    RandomJitter,
    SymbolEncoder,
    WaveformBatch,
    add_awgn,
    prbs7,
)
from repro.stateye import StatEye, StatEyeBatchResult
from serial_oracles import SerialCdr, SerialDfe, run_link

BIT_RATE = 10e9


def jittered_batch(n_rows=3, n_bits=600):
    encoder = NrzEncoder(bit_rate=BIT_RATE, samples_per_bit=16,
                         amplitude=0.4)
    bits = prbs7(n_bits)
    return WaveformBatch.stack([
        encoder.encode(bits, RandomJitter(3e-12, seed=seed).offsets(
            n_bits, BIT_RATE))
        for seed in range(1, n_rows + 1)])


def pam4_batch(n_rows=2, noise=0.01):
    pam4 = Pam4()
    encoder = SymbolEncoder(symbol_rate=BIT_RATE, modulation=pam4,
                            samples_per_symbol=8, amplitude=0.4)
    symbols = pam4.bits_to_symbols(
        np.random.default_rng(17).integers(0, 2, 480))
    return WaveformBatch.stack([
        add_awgn(encoder.encode(symbols), noise, seed=seed)
        for seed in range(1, n_rows + 1)])


def assert_cdr_row_equal(row, reference):
    np.testing.assert_array_equal(row.decisions, reference.decisions)
    np.testing.assert_array_equal(row.phase_track_ui,
                                  reference.phase_track_ui)
    np.testing.assert_array_equal(row.votes, reference.votes)
    assert row.locked_at_bit == reference.locked_at_bit
    assert row.slips == reference.slips


# -- the CDR entry point ------------------------------------------------------

def test_cdr_recover_takes_a_waveform_or_a_batch():
    batch = jittered_batch()
    base = CdrConfig(bit_rate=BIT_RATE)
    phases0 = np.array([-0.3, 0.0, 0.4])
    ppm = np.array([0.0, 150.0, -150.0])
    cdr = BangBangCdr(base)
    result = cdr.recover(batch, n_bits=500, initial_phase_ui=phases0,
                         initial_frequency_ppm=ppm)
    assert isinstance(result, CdrBatchResult)
    assert len(result) == 3
    for i in range(3):
        config = dataclasses.replace(
            base, initial_phase_ui=float(phases0[i]),
            initial_frequency_ppm=float(ppm[i]))
        assert_cdr_row_equal(result[i],
                             SerialCdr(config).recover(batch[i], n_bits=500))
    single = cdr.recover(batch[1])
    assert_cdr_row_equal(single, SerialCdr(base).recover(batch[1]))


# -- the DFE entry points ----------------------------------------------------

@pytest.mark.parametrize("modulation", [None, Pam4()])
def test_dfe_entry_points_take_a_waveform_or_a_batch(modulation):
    if modulation is None:
        batch, extra = jittered_batch(), {}
    else:
        batch, extra = pam4_batch(n_rows=3), {"modulation": modulation}
    dfe = DecisionFeedbackEqualizer(taps=(0.05, 0.02), bit_rate=BIT_RATE,
                                    decision_amplitude=0.2, **extra)
    oracle = SerialDfe(dfe)
    decisions, corrected = dfe.equalize(batch)
    heights = dfe.inner_eye_height(batch, skip_bits=24)
    assert decisions.shape == corrected.shape
    assert heights.shape == (len(batch),)
    for i, wave in enumerate(batch):
        want_decisions, want_corrected = oracle.equalize(wave)
        np.testing.assert_array_equal(decisions[i], want_decisions)
        np.testing.assert_array_equal(corrected[i], want_corrected)
        assert heights[i] == oracle.inner_eye_height(wave, skip_bits=24)
    single_decisions, _ = dfe.equalize(batch[0])
    assert single_decisions.ndim == 1
    np.testing.assert_array_equal(single_decisions,
                                  oracle.equalize(batch[0])[0])
    height = dfe.inner_eye_height(batch[0])
    assert isinstance(height, float)
    assert height == oracle.inner_eye_height(batch[0])


# -- the vectorized post-lock jitter ------------------------------------------

def per_row_std(phases, locked_at, n_bits):
    """The oracle: ``np.std`` of each row's post-lock span, one row at
    a time (NaN where unlocked)."""
    out = []
    for track, lock, n in zip(phases, locked_at, n_bits):
        out.append(float(np.std(track[lock:n])) if lock >= 0
                   else np.nan)
    return np.array(out)


def test_recovered_jitter_ui_matches_per_row_std():
    rng = np.random.default_rng(3)
    n_rows, width = 40, 300
    n_bits = rng.integers(130, width + 1, n_rows)
    n_bits[:4] = width                       # rows that ran to the end
    phases = 0.2 + 0.01 * rng.standard_normal((n_rows, width))
    phases[np.arange(width) >= n_bits[:, np.newaxis]] = np.nan
    locked_at = np.array([rng.integers(0, n - 64) for n in n_bits])
    locked_at[::5] = -1                      # unlocked rows
    locked_at[1] = n_bits[1] - 1             # a one-sample post-lock span
    zeros = np.zeros((n_rows, width), dtype=np.int8)
    result = CdrBatchResult(decisions=zeros, phase_track_ui=phases,
                            votes=zeros, locked_at_bit=locked_at,
                            slips=np.zeros(n_rows, dtype=np.int64),
                            n_bits=n_bits)
    np.testing.assert_array_equal(result.recovered_jitter_ui(),
                                  per_row_std(phases, locked_at, n_bits))


def test_recovered_jitter_ui_on_locked_unlocked_and_short_rows():
    wave = jittered_batch(n_rows=1)[0]
    batch = WaveformBatch.stack([wave] * 3)
    base = CdrConfig(bit_rate=BIT_RATE, ki=2e-4)
    ppm = np.array([0.0, 9500.0, 9000.0])
    result = BangBangCdr(base).recover(batch, initial_frequency_ppm=ppm)
    width = result.phase_track_ui.shape[1]
    # One row locked over the whole span, one locked but ended early
    # (the loop ran off the waveform), one never locked.
    assert result.is_locked.tolist() == [True, True, False]
    assert result.n_bits[0] == width and result.n_bits[1] < width
    jitter = result.recovered_jitter_ui()
    for i in range(3):
        reference = SerialCdr(dataclasses.replace(
            base, initial_frequency_ppm=float(ppm[i]))).recover(wave)
        assert len(reference.decisions) == result.n_bits[i]
        if reference.is_locked:
            assert jitter[i] == reference.recovered_jitter_ui()
        else:
            assert np.isnan(jitter[i])


# -- RowStack: rows, indexing and concatenate ---------------------------------

def test_cdr_batch_result_concatenate_round_trip():
    batch = jittered_batch(n_rows=5)
    cdr = BangBangCdr(CdrConfig(bit_rate=BIT_RATE))
    merged = CdrBatchResult.concatenate(
        [cdr.recover(batch[0:2]), cdr.recover(batch[2:5])])
    assert merged.n_scenarios == len(merged) == 5
    assert merged.decisions.shape[0] == 5
    rows = merged.rows()
    for i, (row, wave) in enumerate(zip(merged, batch)):
        reference = SerialCdr(cdr.config).recover(wave)
        assert_cdr_row_equal(row, reference)
        assert_cdr_row_equal(rows[i], reference)
        assert_cdr_row_equal(merged[i], reference)


def test_link_batch_report_concatenate_round_trip():
    payload = b"row stack"
    rms = 0.01

    def framed(seeds):
        return run_framed_link(
            payload, path=lambda w: WaveformBatch.with_noise_seeds(
                w, rms, seeds),
            training_commas=24, training_bytes=4)

    merged = LinkBatchReport.concatenate([framed([1, 2]), framed([3])])
    assert len(merged) == 3
    assert merged.payloads_received == [report.payload_received
                                        for report in merged]
    for seed, row in zip([1, 2, 3], merged):
        reference = run_link(
            payload, analog_path=lambda w, seed=seed: add_awgn(
                w, rms, seed=seed),
            training_commas=24, training_bytes=4)
        assert row == reference
    np.testing.assert_array_equal(merged.slips(), merged.cdr_slips)
    assert merged.lock_yield() == 1.0


def test_concatenate_rejects_chunks_that_disagree():
    batch = jittered_batch(n_rows=2)
    with pytest.raises(ValueError, match="zero"):
        CdrBatchResult.concatenate([])
    with_eyes = LinkBatchResult(output=batch, eyes=[None, None])
    without = LinkBatchResult(output=batch)
    with pytest.raises(ValueError, match="eyes"):
        LinkBatchResult.concatenate([with_eyes, without])
    slower = WaveformBatch(batch.data, batch.sample_rate / 2)
    with pytest.raises(ValueError, match="sample_rate"):
        WaveformBatch.concatenate([batch, slower])
    merged = WaveformBatch.concatenate([batch, batch[1:]])
    np.testing.assert_array_equal(merged.data,
                                  batch.data[[0, 1, 1]])
    with pytest.raises(ValueError, match="payload_sent"):
        LinkBatchReport.concatenate([
            run_framed_link(b"one", path=lambda w: WaveformBatch.stack([w])),
            run_framed_link(b"two", path=lambda w: WaveformBatch.stack([w])),
        ])


def test_concatenate_keeps_one_copy_of_shared_grids():
    # phases_ui and voltages are marked shared: the merged result holds
    # one grid of the parts' shape, and its rows are the parts' rows.
    pulses = [pulse_response(BackplaneChannel(d), BIT_RATE, amplitude=0.4)
              for d in (0.1, 0.3, 0.5)]
    pinned = StatEye(noise_rms=8e-3, v_half_span=0.6)
    parts = [pinned.analyze_batch(pulses[:2]),
             pinned.analyze_batch(pulses[2:])]
    merged = StatEyeBatchResult.concatenate(parts)
    assert len(merged) == 3
    for name in ("phases_ui", "voltages"):
        grid = getattr(parts[0], name)
        assert getattr(merged, name).shape == grid.shape
        np.testing.assert_array_equal(getattr(merged, name), grid)
    whole = pinned.analyze_batch(pulses)
    for name in ("min_bers", "best_phases_ui", "best_thresholds",
                 "eye_heights", "eye_widths_ui", "bathtubs", "surfaces"):
        np.testing.assert_array_equal(getattr(merged, name),
                                      getattr(whole, name))
    np.testing.assert_array_equal(merged[2].surfaces,
                                  pinned.analyze(pulses[2]).surfaces)


def test_concatenate_names_the_shared_grid_that_differs():
    pulses = [pulse_response(BackplaneChannel(d), BIT_RATE, amplitude=0.4)
              for d in (0.1, 0.5)]
    unpinned = StatEye(noise_rms=8e-3)   # each call sizes its own grid
    parts = [unpinned.analyze_batch([pulse]) for pulse in pulses]
    with pytest.raises(ValueError, match="'voltages'"):
        StatEyeBatchResult.concatenate(parts)
    shifted = dataclasses.replace(parts[0],
                                  phases_ui=parts[0].phases_ui + 0.01)
    with pytest.raises(ValueError, match="'phases_ui'"):
        StatEyeBatchResult.concatenate([parts[0], shifted])
