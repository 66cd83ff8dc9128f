"""Clock-data recovery: the reference loop's phase-detector votes, loop
locking, cycle slips, and batch rows against the scalar reference
loop."""

import dataclasses

import numpy as np
import pytest

from repro.cdr import BangBangCdr, CdrConfig
from repro.signals import (
    RandomJitter,
    NrzEncoder,
    WaveformBatch,
    bits_to_nrz,
    prbs7,
)
from serial_oracles import SerialCdr, vote_step

BIT_RATE = 10e9


# -- phase detector (the scalar loop's Alexander vote) -----------------------

def test_votes_on_transitions_only():
    # Data +1 -> +1: no transition, HOLD regardless of edge sample.
    assert vote_step(np.array([1.0]), np.array([0.5]), np.array([1.0]))[0] == 0


def test_early_vote():
    # Transition +1 -> -1 with edge sample still at the OLD value:
    # the edge came after the crossing sample -> clock EARLY.
    assert vote_step(np.array([1.0]), np.array([0.8]),
                     np.array([-1.0]))[0] == 1


def test_late_vote():
    # Edge sample already at the NEW value -> clock LATE.
    assert vote_step(np.array([1.0]), np.array([-0.8]),
                     np.array([-1.0]))[0] == -1


# -- loop ---------------------------------------------------------------

def clean_wave(n_bits=600, amplitude=0.4, spb=16):
    return bits_to_nrz(prbs7(n_bits), BIT_RATE, amplitude=amplitude,
                       samples_per_bit=spb)


def test_cdr_locks_on_clean_data():
    result = BangBangCdr(CdrConfig(bit_rate=BIT_RATE)).recover(clean_wave())
    assert result.is_locked
    assert result.locked_at_bit < 300
    # Locks near zero phase (data sampled at bit centres).
    assert abs(result.steady_state_phase_ui()) < 0.06


def test_cdr_decisions_match_pattern():
    bits = prbs7(600)
    wave = bits_to_nrz(bits, BIT_RATE, amplitude=0.4, samples_per_bit=16)
    result = BangBangCdr(CdrConfig(bit_rate=BIT_RATE)).recover(wave)
    decisions = result.decisions
    errors = min(
        int(np.sum(decisions[lag:lag + 400] != bits[:400]))
        for lag in range(0, 4)
    )
    assert errors == 0


def test_cdr_hunting_jitter_scale():
    # Bang-bang limit cycle: recovered jitter on the order of kp.
    config = CdrConfig(bit_rate=BIT_RATE, kp=4e-3)
    result = BangBangCdr(config).recover(clean_wave())
    assert result.recovered_jitter_ui() < 10 * config.kp


def test_cdr_locks_from_any_initial_phase():
    for phase0 in (-0.4, -0.2, 0.1, 0.45):
        config = CdrConfig(bit_rate=BIT_RATE, initial_phase_ui=phase0)
        result = BangBangCdr(config).recover(clean_wave())
        assert result.is_locked, f"failed from phase {phase0}"


def test_cdr_tracks_frequency_offset():
    # 200 ppm offset: the integral path must absorb the ramp.
    config = CdrConfig(bit_rate=BIT_RATE, ki=5e-5,
                       initial_frequency_ppm=200.0)
    result = BangBangCdr(config).recover(clean_wave(n_bits=800))
    bits = prbs7(800)
    errors = min(
        int(np.sum(result.decisions[lag:lag + 500] != bits[:500]))
        for lag in range(0, 4)
    )
    assert errors <= 1


def test_cdr_tolerates_input_jitter():
    encoder = NrzEncoder(bit_rate=BIT_RATE, samples_per_bit=16,
                         amplitude=0.4)
    bits = prbs7(600)
    jittered = encoder.encode(
        bits, edge_offsets=RandomJitter(2e-12, seed=3).offsets(600,
                                                               BIT_RATE)
    )
    result = BangBangCdr(CdrConfig(bit_rate=BIT_RATE)).recover(jittered)
    assert result.is_locked
    errors = min(
        int(np.sum(result.decisions[lag:lag + 400] != bits[:400]))
        for lag in range(0, 4)
    )
    assert errors == 0


def test_cdr_through_receiver_chain():
    from repro.core import build_input_interface

    rx = build_input_interface()
    wave = bits_to_nrz(prbs7(600), BIT_RATE, amplitude=0.01,
                       samples_per_bit=16)
    out = rx.process(wave)
    result = BangBangCdr(CdrConfig(bit_rate=BIT_RATE)).recover(out)
    assert result.is_locked


def test_cdr_validation():
    with pytest.raises(ValueError):
        CdrConfig(bit_rate=0.0)
    with pytest.raises(ValueError):
        CdrConfig(bit_rate=1e9, kp=0.0)
    short = bits_to_nrz(prbs7(10), BIT_RATE, samples_per_bit=16)
    with pytest.raises(ValueError):
        BangBangCdr(CdrConfig(bit_rate=BIT_RATE)).recover(short)


FLOAT_FIELDS = ("bit_rate", "kp", "ki", "initial_phase_ui",
                "initial_frequency_ppm", "amplitude")


def test_float_fields_are_every_numeric_config_field():
    numeric = [f.name for f in dataclasses.fields(CdrConfig)
               if isinstance(getattr(CdrConfig(bit_rate=BIT_RATE), f.name),
                             (int, float))]
    assert tuple(numeric) == FLOAT_FIELDS


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_config_rejects_non_finite_fields(field, value):
    # A NaN passes every ordering check (``nan <= 0`` is False): before
    # the finite check a NaN or inf phase gave an empty never-locked
    # result, and a NaN ppm or kp an IndexError inside the sampler.
    with pytest.raises(ValueError, match=field):
        CdrConfig(**{"bit_rate": BIT_RATE, field: value})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("override", ["initial_phase_ui",
                                      "initial_frequency_ppm"])
def test_recover_rejects_non_finite_overrides(override, value):
    batch = jittered_batch(n_rows=3)
    state = np.zeros(3)
    state[1] = value
    with pytest.raises(ValueError, match=override):
        BangBangCdr(CdrConfig(bit_rate=BIT_RATE)).recover(
            batch, **{override: state})


def test_result_accessors_require_lock():
    from repro.cdr import CdrResult

    unlocked = CdrResult(decisions=np.array([1]),
                         phase_track_ui=np.array([0.0]),
                         votes=np.array([0]), locked_at_bit=-1)
    assert not unlocked.is_locked
    with pytest.raises(ValueError):
        unlocked.steady_state_phase_ui()
    with pytest.raises(ValueError):
        unlocked.recovered_jitter_ui()


# -- cycle slips and frequency offset -----------------------------------


def test_no_slips_on_clean_tracking():
    result = BangBangCdr(CdrConfig(bit_rate=BIT_RATE)).recover(clean_wave())
    assert result.slips == 0


def test_frequency_offset_pull_in():
    # A 300 ppm offset with a live integral path: the loop pulls the
    # frequency in without slipping a cycle and still decodes the data.
    config = CdrConfig(bit_rate=BIT_RATE, ki=5e-5,
                       initial_frequency_ppm=300.0)
    result = BangBangCdr(config).recover(clean_wave(n_bits=800))
    assert result.slips == 0
    assert result.is_locked
    bits = prbs7(800)
    errors = min(
        int(np.sum(result.decisions[lag:lag + 500] != bits[:500]))
        for lag in range(0, 4)
    )
    assert errors <= 1


def test_induced_cycle_slip_is_tracked_and_index_consistent():
    # ki = 0 cannot absorb a steady frequency ramp: the phase marches
    # through +-1 UI and must wrap.  The wrap is a counted slip and the
    # decision stream stays one-per-loop-step (no silent duplicates or
    # drops): after the slips, the decisions align to the transmitted
    # pattern at a lag that reflects the slipped bits.
    n_bits = 600
    bits = prbs7(n_bits)
    wave = bits_to_nrz(bits, BIT_RATE, amplitude=0.4, samples_per_bit=16)
    config = CdrConfig(bit_rate=BIT_RATE, ki=0.0,
                       initial_frequency_ppm=4000.0)
    result = BangBangCdr(config).recover(wave)

    assert result.slips >= 1
    # Index consistency: one decision, one phase point, one vote slot
    # per executed loop step.
    assert len(result.decisions) == len(result.phase_track_ui)
    assert len(result.decisions) == len(result.votes)
    # The tail of the decision stream matches the pattern shifted by
    # (about) the slip count — the slipped bits were skipped, not
    # duplicated into the stream.
    tail_len = 100
    k0 = len(result.decisions) - tail_len
    tail = result.decisions[k0:]
    matches = [
        lag for lag in range(result.slips + 3)
        if np.array_equal(tail, bits[k0 + lag:k0 + lag + tail_len])
    ]
    assert matches, "slipped stream no longer aligns to the pattern"
    assert max(matches) >= result.slips - 1


def test_slip_keeps_sampling_instant_continuous():
    # Across a wrap the recorded (wrapped) phase jumps by ~1 UI exactly
    # once per slip; the unwrapped sampling instant never jumps.
    config = CdrConfig(bit_rate=BIT_RATE, ki=0.0,
                       initial_frequency_ppm=4000.0)
    result = BangBangCdr(config).recover(clean_wave(n_bits=600))
    jumps = np.abs(np.diff(result.phase_track_ui)) > 0.5
    assert int(np.sum(jumps)) == abs(result.slips)


# -- vectorized lock detection ------------------------------------------


def naive_detect_lock(phases, window=64, tolerance_ui=0.05):
    """The seed's O(n*window) reference implementation."""
    if len(phases) < 2 * window:
        return -1
    for start in range(0, len(phases) - window):
        segment = phases[start:start + window]
        if np.ptp(segment) < tolerance_ui:
            remaining = phases[start:]
            if np.ptp(remaining) < 2 * tolerance_ui:
                return start
    return -1


def detect_lock(track):
    """The library's lock detector on one track (a batch of one)."""
    return int(BangBangCdr._detect_lock_batch(
        np.asarray(track)[np.newaxis], np.array([len(track)]))[0])


def test_detect_lock_matches_naive_reference():
    rng = np.random.default_rng(17)
    tracks = [
        # Converging pull-in: ramp into a small limit cycle.
        np.concatenate([np.linspace(0.4, 0.0, 150),
                        0.004 * rng.standard_normal(250)]),
        # Pure limit cycle from the start.
        0.01 * np.sin(np.arange(300)),
        # Random walk: never locks.
        np.cumsum(0.02 * rng.standard_normal(400)),
        # Locks, then wanders off: the suffix guard must reject early
        # windows.
        np.concatenate([0.002 * rng.standard_normal(200),
                        np.linspace(0.0, 0.5, 100)]),
        # Too short for the window.
        np.zeros(100),
        # Exactly at the 2*window boundary.
        0.001 * rng.standard_normal(128),
    ]
    for i, track in enumerate(tracks):
        expected = naive_detect_lock(track)
        got = detect_lock(track)
        assert got == expected, f"track {i}: {got} != {expected}"


def test_detect_lock_matches_naive_on_real_tracks():
    for phase0 in (-0.4, 0.1, 0.45):
        config = CdrConfig(bit_rate=BIT_RATE, initial_phase_ui=phase0)
        track = BangBangCdr(config).recover(clean_wave()).phase_track_ui
        assert detect_lock(track) == naive_detect_lock(track)


# -- batched closed-loop recovery ---------------------------------------


def jittered_batch(n_rows=6, n_bits=600, amplitude=0.4):
    encoder = NrzEncoder(bit_rate=BIT_RATE, samples_per_bit=16,
                         amplitude=amplitude)
    bits = prbs7(n_bits)
    waves = [
        encoder.encode(bits, edge_offsets=RandomJitter(
            3e-12, seed=seed).offsets(n_bits, BIT_RATE))
        for seed in range(1, n_rows + 1)
    ]
    return WaveformBatch.stack(waves)


def test_recover_batch_rows_match_serial_on_jittered_waveforms():
    batch = jittered_batch()
    cdr = BangBangCdr(CdrConfig(bit_rate=BIT_RATE))
    batched = cdr.recover(batch)
    assert batched.n_scenarios == len(batch)
    for i in range(len(batch)):
        serial = SerialCdr(cdr.config).recover(batch[i])
        row = batched.row(i)
        np.testing.assert_array_equal(row.decisions, serial.decisions)
        np.testing.assert_array_equal(row.phase_track_ui,
                                      serial.phase_track_ui)
        np.testing.assert_array_equal(row.votes, serial.votes)
        assert row.locked_at_bit == serial.locked_at_bit
        assert row.slips == serial.slips
    assert batched.lock_yield() == 1.0
    assert np.isfinite(batched.recovered_jitter_ui()).all()


def test_recover_batch_rows_match_serial_with_slips():
    # Row-exactness must survive cycle slips and per-row truncation.
    batch = jittered_batch(n_rows=4)
    config = CdrConfig(bit_rate=BIT_RATE, ki=0.0,
                       initial_frequency_ppm=4000.0)
    cdr = BangBangCdr(config)
    batched = cdr.recover(batch)
    for i in range(len(batch)):
        serial = SerialCdr(cdr.config).recover(batch[i])
        row = batched.row(i)
        assert int(batched.n_bits[i]) == len(serial.decisions)
        np.testing.assert_array_equal(row.decisions, serial.decisions)
        np.testing.assert_array_equal(row.phase_track_ui,
                                      serial.phase_track_ui)
        assert row.slips == serial.slips
        assert row.slips >= 1


def test_recover_batch_initial_state_overrides():
    batch = jittered_batch(n_rows=3)
    base = CdrConfig(bit_rate=BIT_RATE)
    phases0 = np.array([-0.3, 0.0, 0.4])
    ppm = np.array([0.0, 100.0, -100.0])
    batched = BangBangCdr(base).recover(
        batch, initial_phase_ui=phases0, initial_frequency_ppm=ppm)
    for i in range(3):
        config = dataclasses.replace(base,
                                     initial_phase_ui=float(phases0[i]),
                                     initial_frequency_ppm=float(ppm[i]))
        serial = SerialCdr(config).recover(batch[i])
        np.testing.assert_array_equal(batched.row(i).decisions,
                                      serial.decisions)
        np.testing.assert_array_equal(batched.row(i).phase_track_ui,
                                      serial.phase_track_ui)


def test_recover_batch_validation():
    batch = jittered_batch(n_rows=2)
    cdr = BangBangCdr(CdrConfig(bit_rate=BIT_RATE))
    with pytest.raises(ValueError):
        cdr.recover(batch, initial_phase_ui=np.zeros(5))
    short = WaveformBatch.stack(
        [bits_to_nrz(prbs7(10), BIT_RATE, samples_per_bit=16)] * 3)
    with pytest.raises(ValueError):
        cdr.recover(short)
