"""Pinned NRZ regression: the modulation refactor is bit-exact.

Every reference function in this file is an inline frozen copy of the
*pre-refactor* algorithm (the hardcoded two-level code paths: the NRZ
``(bits - 0.5) * amplitude`` encoder, the ``value > 0`` DFE sign
slicer with ``+-A`` feedback, the sign-sliced Alexander CDR, the
threshold-0 eye clusters).  The tests assert the modulation-aware
paths reproduce them bit for bit on NRZ defaults — through the
single-waveform methods, the batched kernels, ``run_batch``, and a
checkpoint-resumed chunked sweep.
"""

import numpy as np
import pytest

from repro.analysis.eye import EyeDiagramBatch
from repro.baselines import DecisionFeedbackEqualizer
from repro.cdr import BangBangCdr, CdrConfig
from repro.link import ChannelConfig, DfeConfig, LinkSession, TxConfig
from repro.signals import (
    NrzEncoder,
    RandomJitter,
    WaveformBatch,
    add_awgn,
    prbs7,
)
from repro.signals.waveform import Waveform, sample_uniform
from repro.sweep import ScenarioGrid, SweepAxis
from serial_oracles import vote_step

BIT_RATE = 10e9


# ---------------------------------------------------------------------------
# Frozen pre-refactor reference implementations.
# ---------------------------------------------------------------------------

def _old_nrz_encode(bits, bit_rate, samples_per_bit, amplitude, rise_time,
                    edge_offsets=None):
    """The pre-refactor NrzEncoder.encode, verbatim."""
    bits = np.asarray(bits)
    levels = (bits.astype(float) - 0.5) * amplitude
    n_samples = len(bits) * samples_per_bit
    sample_rate = bit_rate * samples_per_bit
    times = np.arange(n_samples) / sample_rate
    bit_period = 1.0 / bit_rate
    edge_times = np.arange(len(bits)) * bit_period
    if edge_offsets is not None:
        edge_times = edge_times + np.asarray(edge_offsets, dtype=float)
    if rise_time <= 0.0:
        edge_index = np.searchsorted(edge_times, times, side="right") - 1
        data = levels[np.clip(edge_index, 0, len(bits) - 1)]
    else:
        tau = rise_time / (2.0 * np.arctanh(0.6))
        data = np.full(n_samples, levels[0])
        for k in range(1, len(bits)):
            step = levels[k] - levels[k - 1]
            if step != 0.0:
                data = data + step * 0.5 * (
                    1.0 + np.tanh((times - edge_times[k]) / tau))
    return Waveform(data, sample_rate)


def _old_dfe_equalize(wave, taps, bit_rate, decision_amplitude,
                      sample_phase_ui):
    """The pre-refactor serial DFE loop: sign slicer, +-A feedback."""
    taps = np.asarray(taps, dtype=float)
    ui_samples = wave.sample_rate / bit_rate
    n_bits = int(np.floor((len(wave) - 1) / ui_samples
                          - sample_phase_ui)) + 1
    decisions = np.zeros(n_bits, dtype=np.int8)
    corrected = np.zeros(n_bits)
    history = np.zeros(len(taps))
    data = wave.data
    for k in range(n_bits):
        index = (k + sample_phase_ui) * ui_samples
        raw = float(sample_uniform(data, 0.0, 1.0, index))
        feedback = 0.0
        for weight, past in zip(taps, history):
            feedback += weight * past
        value = raw - feedback
        corrected[k] = value
        bit = 1 if value > 0 else 0
        decisions[k] = bit
        history = np.roll(history, 1)
        history[0] = decision_amplitude if bit else -decision_amplitude
    return decisions, corrected


def _old_inner_eye_height(corrected, skip_bits=16):
    """The pre-refactor binary inner-eye metric."""
    usable = np.asarray(corrected, dtype=float)[..., skip_bits:]
    if usable.shape[-1] == 0:
        return np.full(usable.shape[:-1], -np.inf)
    ones = usable > 0
    upper = np.where(ones, usable, np.inf).min(axis=-1)
    lower = np.where(~ones, usable, -np.inf).max(axis=-1)
    valid = ones.any(axis=-1) & (~ones).any(axis=-1)
    return np.where(valid, upper - lower, -np.inf)


def _old_cdr_recover(wave, config, n_bits=None):
    """The pre-refactor serial bang-bang loop: sign-sliced decisions,
    raw-sample Alexander votes."""
    ui = 1.0 / config.bit_rate
    total_bits = int(wave.duration / ui) - 2
    if n_bits is not None:
        total_bits = min(total_bits, n_bits)
    data, t0, sample_rate = wave.data, wave.t0, wave.sample_rate
    t_last = wave.time[-1]
    phase = config.initial_phase_ui
    integral = config.initial_frequency_ppm * 1e-6
    bit_offset = 0
    slips = 0
    decisions = np.zeros(total_bits, dtype=np.int8)
    phases = np.empty(total_bits)
    votes = np.zeros(total_bits, dtype=np.int8)
    previous_data = previous_edge = None
    for k in range(total_bits):
        t_data = (k + 0.5 + bit_offset + phase) * ui
        t_edge = (k + 1.0 + bit_offset + phase) * ui
        if t_edge >= t_last:
            decisions, phases, votes = decisions[:k], phases[:k], votes[:k]
            break
        sample_data = float(sample_uniform(data, t0, sample_rate, t_data))
        sample_edge = float(sample_uniform(data, t0, sample_rate, t_edge))
        decisions[k] = 1 if sample_data > 0 else 0
        phases[k] = phase
        if previous_data is not None:
            vote = int(vote_step(np.array([previous_data]),
                                 np.array([previous_edge]),
                                 np.array([sample_data]))[0])
            votes[k] = vote
            integral = integral + config.ki * vote
            phase = phase + (config.kp * vote + integral)
            if phase > 1.0:
                phase -= 1.0
                bit_offset += 1
                slips += 1
            elif phase < -1.0:
                phase += 1.0
                bit_offset -= 1
                slips -= 1
        previous_data = sample_data
        previous_edge = sample_edge
    return decisions, phases, votes, slips


def make_batch(n_scenarios=6, n_bits=240, samples_per_bit=8):
    encoder = NrzEncoder(bit_rate=BIT_RATE, samples_per_bit=samples_per_bit,
                         amplitude=0.4)
    bits = prbs7(n_bits)
    waves = []
    for seed in range(1, n_scenarios + 1):
        jitter = RandomJitter(3e-12, seed=seed)
        wave = encoder.encode(bits,
                              edge_offsets=jitter.offsets(n_bits, BIT_RATE))
        waves.append(add_awgn(wave, rms_volts=0.02, seed=seed))
    return WaveformBatch.stack(waves)


# ---------------------------------------------------------------------------
# Encoder pin.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rise_time", [0.0, 15e-12, 40e-12])
def test_encoder_bit_exact_vs_pre_refactor(rise_time):
    rng = np.random.default_rng(21)
    bits = rng.integers(0, 2, 100)
    offsets = RandomJitter(2e-12, seed=4).offsets(len(bits), BIT_RATE)
    for offs in (None, offsets):
        old = _old_nrz_encode(bits, BIT_RATE, 16, 0.4, rise_time, offs)
        new = NrzEncoder(bit_rate=BIT_RATE, samples_per_bit=16,
                         amplitude=0.4,
                         rise_time=rise_time).encode(bits, edge_offsets=offs)
        np.testing.assert_array_equal(old.data, new.data)
        assert old.sample_rate == new.sample_rate


# ---------------------------------------------------------------------------
# DFE pin: single waveform + batch.
# ---------------------------------------------------------------------------

def test_dfe_serial_bit_exact_vs_sign_slicer():
    batch = make_batch()
    dfe = DecisionFeedbackEqualizer(taps=(0.08, 0.03), bit_rate=BIT_RATE,
                                    decision_amplitude=0.2)
    for i in range(batch.n_scenarios):
        wave = batch[i]
        old_dec, old_corr = _old_dfe_equalize(
            wave, dfe.taps, BIT_RATE, 0.2, dfe.sample_phase_ui)
        new_dec, new_corr = dfe.equalize(wave)
        np.testing.assert_array_equal(old_dec, new_dec)
        np.testing.assert_array_equal(old_corr, new_corr)
        assert dfe.inner_eye_height(wave) == float(
            _old_inner_eye_height(old_corr))


def test_dfe_batch_bit_exact_per_backend():
    batch = make_batch()
    dfe = DecisionFeedbackEqualizer(taps=(0.08, 0.03), bit_rate=BIT_RATE,
                                    decision_amplitude=0.2)
    decisions, corrected = dfe.equalize(batch)
    for i in range(batch.n_scenarios):
        old_dec, old_corr = _old_dfe_equalize(
            batch[i], dfe.taps, BIT_RATE, 0.2, dfe.sample_phase_ui)
        np.testing.assert_array_equal(decisions[i], old_dec)
        np.testing.assert_array_equal(corrected[i], old_corr)


# ---------------------------------------------------------------------------
# CDR pin: single waveform + batch.
# ---------------------------------------------------------------------------

def test_cdr_serial_bit_exact_vs_sign_slicer():
    batch = make_batch()
    config = CdrConfig(bit_rate=BIT_RATE, initial_phase_ui=0.25)
    cdr = BangBangCdr(config)
    for i in range(batch.n_scenarios):
        old_dec, old_phases, old_votes, old_slips = _old_cdr_recover(
            batch[i], config)
        result = cdr.recover(batch[i])
        np.testing.assert_array_equal(result.decisions, old_dec)
        np.testing.assert_array_equal(result.phase_track_ui, old_phases)
        np.testing.assert_array_equal(result.votes, old_votes)
        assert result.slips == old_slips


def test_cdr_batch_bit_exact_per_backend():
    batch = make_batch()
    config = CdrConfig(bit_rate=BIT_RATE, initial_phase_ui=0.25)
    result = BangBangCdr(config).recover(batch)
    for i in range(batch.n_scenarios):
        old_dec, old_phases, old_votes, old_slips = _old_cdr_recover(
            batch[i], config)
        row = result.row(i)
        np.testing.assert_array_equal(row.decisions, old_dec)
        np.testing.assert_array_equal(row.phase_track_ui, old_phases)
        np.testing.assert_array_equal(row.votes, old_votes)
        assert row.slips == old_slips


# ---------------------------------------------------------------------------
# Eye pin: NRZ decision thresholds are exactly zero, clusters unchanged.
# ---------------------------------------------------------------------------

def test_nrz_eye_thresholds_exactly_zero():
    batch = make_batch()
    eye_batch = EyeDiagramBatch(batch, BIT_RATE, skip_ui=8)
    thresholds = eye_batch.decision_thresholds()
    assert thresholds.shape == (batch.n_scenarios, 1)
    assert np.all(thresholds == 0.0)


def test_nrz_eye_heights_match_threshold_zero_clusters():
    batch = make_batch()
    eye_batch = EyeDiagramBatch(batch, BIT_RATE, skip_ui=8)
    heights = eye_batch.eye_heights()
    traces = eye_batch.traces
    # Pre-refactor vertical metric, per (scenario, phase):
    # min(ones) - max(zeros) over the >0 / <=0 clusters.
    ones = traces > 0
    upper = np.where(ones, traces, np.inf).min(axis=1)
    lower = np.where(~ones, traces, -np.inf).max(axis=1)
    valid = ones.any(axis=1) & (~ones).any(axis=1)
    per_phase = np.where(valid, upper - lower, -np.inf)
    np.testing.assert_array_equal(heights, per_phase)


# ---------------------------------------------------------------------------
# Facade pin: run_batch and a checkpoint-resumed chunked sweep.
# ---------------------------------------------------------------------------

def test_run_batch_bit_exact_vs_pre_refactor():
    batch = make_batch()
    session = LinkSession(
        [], bit_rate=BIT_RATE, cdr=CdrConfig(bit_rate=BIT_RATE),
        dfe=DfeConfig(taps=(0.08,), decision_amplitude=0.2))
    result = session.run_batch(batch)
    dfe = session.dfe
    config = session.cdr_config
    for i in range(batch.n_scenarios):
        old_dec, old_corr = _old_dfe_equalize(
            batch[i], dfe.taps, BIT_RATE, 0.2, dfe.sample_phase_ui)
        np.testing.assert_array_equal(result.dfe_decisions[i], old_dec)
        np.testing.assert_array_equal(result.dfe_corrected[i], old_corr)
        assert result.dfe_inner_eye_heights[i] == float(
            _old_inner_eye_height(old_corr))
        cdr_dec, cdr_phases, _, _ = _old_cdr_recover(batch[i], config)
        row = result.cdr.row(i)
        np.testing.assert_array_equal(row.decisions, cdr_dec)
        np.testing.assert_array_equal(row.phase_track_ui, cdr_phases)


def test_checkpoint_resumed_chunked_sweep_bit_exact(tmp_path):
    session = LinkSession.from_configs(
        tx=TxConfig(), channel=ChannelConfig(0.1), bit_rate=BIT_RATE,
        dfe=DfeConfig(taps=(0.06,), decision_amplitude=0.2))
    grid = ScenarioGrid([
        SweepAxis("length_m", (0.1, 0.2), structural=True),
        SweepAxis("seed", tuple(range(4))),
    ])

    def stimulus(params):
        bits = prbs7(160)
        jitter = RandomJitter(2e-12, seed=params["seed"] + 1)
        wave = NrzEncoder(bit_rate=BIT_RATE, samples_per_bit=8,
                          amplitude=0.4).encode(
            bits, edge_offsets=jitter.offsets(len(bits), BIT_RATE))
        return add_awgn(wave, 0.02, seed=params["seed"] + 1)

    def heights(result):
        return [(r.eye.eye_height, r.dfe_inner_eye_height)
                for r in result.results]

    fresh = session.sweep(grid, stimulus, chunk_rows=3)
    first = session.sweep(grid, stimulus, chunk_rows=3,
                          checkpoint_dir=tmp_path)
    resumed = session.sweep(grid, stimulus, chunk_rows=3,
                            checkpoint_dir=tmp_path)
    assert heights(first) == heights(fresh)
    assert heights(resumed) == heights(fresh)
    # The resumed pass replayed the journal rather than recomputing.
    for r_fresh, r_resumed in zip(fresh.results, resumed.results):
        np.testing.assert_array_equal(r_fresh.dfe_decisions,
                                      r_resumed.dfe_decisions)
        np.testing.assert_array_equal(r_fresh.dfe_corrected,
                                      r_resumed.dfe_corrected)
