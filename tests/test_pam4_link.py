"""PAM4 end to end through the facade.

The acceptance contract of the modulation refactor: ``run_batch`` over
a PAM4 stimulus reports per-sub-eye measurements (three sub-eyes),
Gray-coded DFE decisions recover the transmitted bits over a clean
channel, and a sweep with a structural ``modulation`` axis runs NRZ and
PAM4 points inside one ``SweepResult``.
"""

import numpy as np
import pytest

from repro.analysis import measure_eye_batch
from repro.baselines import DecisionFeedbackEqualizer
from repro.cdr import BangBangCdr, CdrConfig
from repro.link import (
    ChannelConfig,
    DfeConfig,
    LinkBatchResult,
    LinkSession,
    TxConfig,
)
from repro.signals import (
    Nrz,
    Pam4,
    RandomJitter,
    SymbolEncoder,
    WaveformBatch,
    add_awgn,
)
from repro.sweep import ScenarioGrid, SweepAxis, modulation_axis
from serial_oracles import SerialCdr, SerialDfe

SYMBOL_RATE = 5e9


def make_pam4_batch(n_scenarios=4, n_bits=480, samples_per_symbol=8,
                    noise=0.01):
    pam4 = Pam4()
    enc = SymbolEncoder(symbol_rate=SYMBOL_RATE, modulation=pam4,
                        samples_per_symbol=samples_per_symbol,
                        amplitude=0.4)
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, n_bits)
    symbols = pam4.bits_to_symbols(bits)
    waves = []
    for seed in range(1, n_scenarios + 1):
        jitter = RandomJitter(2e-12, seed=seed)
        wave = enc.encode(symbols, edge_offsets=jitter.offsets(
            len(symbols), SYMBOL_RATE))
        waves.append(add_awgn(wave, rms_volts=noise, seed=seed))
    return WaveformBatch.stack(waves), bits, symbols


# ---------------------------------------------------------------------------
# Eyes: three sub-eyes per scenario.
# ---------------------------------------------------------------------------

def test_run_batch_reports_three_sub_eyes():
    batch, _, _ = make_pam4_batch()
    session = LinkSession([], bit_rate=SYMBOL_RATE, modulation=Pam4())
    result = session.run_batch(batch)
    assert result.modulation == Pam4()
    assert len(result.eyes) == batch.n_scenarios
    for eye in result.eyes:
        assert eye.n_levels == 4 and eye.n_eyes == 3
        assert len(eye.eye_heights) == 3
        assert len(eye.eye_widths_ui) == 3
        assert len(eye.q_factors) == 3
        assert all(h > 0 for h in eye.eye_heights)
        # The scalar fields report the worst sub-eye.
        assert eye.eye_height == min(eye.eye_heights)
        assert eye.eye_width_ui == min(eye.eye_widths_ui)
        assert eye.q_factor == min(eye.q_factors)
        assert eye.worst_eye == int(np.argmin(eye.eye_heights))
        # Four reconstructed levels, in order.
        assert len(eye.levels) == 4
        assert list(eye.levels) == sorted(eye.levels)


def test_measure_eye_batch_rows_match_serial_pam4():
    batch, _, _ = make_pam4_batch(n_scenarios=3)
    pam4 = Pam4()
    batched = measure_eye_batch(batch, SYMBOL_RATE, skip_ui=8,
                                modulation=pam4)
    from repro.analysis import EyeDiagram
    for i, measurement in enumerate(batched):
        serial = EyeDiagram(batch[i], SYMBOL_RATE, skip_ui=8,
                            modulation=pam4).measure()
        assert measurement.eye_heights == serial.eye_heights
        assert measurement.eye_widths_ui == serial.eye_widths_ui
        assert measurement.q_factors == serial.q_factors


# ---------------------------------------------------------------------------
# Decisions: Gray-coded recovery over a clean channel.
# ---------------------------------------------------------------------------

def test_dfe_recovers_bits_over_clean_channel():
    pam4 = Pam4()
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2, 800)
    wave = SymbolEncoder(symbol_rate=SYMBOL_RATE, modulation=pam4,
                         samples_per_symbol=16,
                         amplitude=0.5).encode_bits(bits)
    dfe = DecisionFeedbackEqualizer(taps=(1e-12,), bit_rate=SYMBOL_RATE,
                                    decision_amplitude=0.25,
                                    modulation=pam4)
    decisions, _ = dfe.equalize(wave)
    symbols = pam4.bits_to_symbols(bits)
    n = min(len(decisions), len(symbols))
    np.testing.assert_array_equal(decisions[:n], symbols[:n])
    np.testing.assert_array_equal(pam4.symbols_to_bits(decisions[:n]),
                                  bits[:2 * n])


def test_dfe_batch_matches_serial_pam4():
    batch, _, _ = make_pam4_batch(n_scenarios=3)
    dfe = DecisionFeedbackEqualizer(taps=(0.05, 0.02),
                                    bit_rate=SYMBOL_RATE,
                                    decision_amplitude=0.2,
                                    modulation=Pam4())
    decisions, corrected = dfe.equalize(batch)
    assert decisions.max() == 3
    for i in range(batch.n_scenarios):
        serial_dec, serial_corr = SerialDfe(dfe).equalize(batch[i])
        np.testing.assert_array_equal(decisions[i], serial_dec)
        np.testing.assert_array_equal(corrected[i], serial_corr)


def test_cdr_batch_matches_serial_pam4():
    batch, _, _ = make_pam4_batch(n_scenarios=3)
    config = CdrConfig(bit_rate=SYMBOL_RATE, initial_phase_ui=0.2,
                       modulation=Pam4(), amplitude=0.4)
    cdr = BangBangCdr(config)
    result = cdr.recover(batch)
    assert result.decisions.max() == 3
    for i in range(batch.n_scenarios):
        serial = SerialCdr(config).recover(batch[i])
        row = result.row(i)
        np.testing.assert_array_equal(row.decisions, serial.decisions)
        np.testing.assert_array_equal(row.phase_track_ui,
                                      serial.phase_track_ui)
        np.testing.assert_array_equal(row.votes, serial.votes)


def test_cdr_locks_on_pam4():
    batch, _, _ = make_pam4_batch(n_scenarios=2, n_bits=960)
    session = LinkSession([], bit_rate=SYMBOL_RATE, modulation=Pam4(),
                          cdr=True)
    assert session.cdr_config.modulation == Pam4()
    result = session.run_batch(batch)
    assert result.cdr.lock_yield() == 1.0


# ---------------------------------------------------------------------------
# The facade: threading, chunking, concatenation.
# ---------------------------------------------------------------------------

def test_session_threads_modulation_from_tx_config():
    session = LinkSession.from_configs(
        tx=TxConfig(modulation=Pam4()), channel=ChannelConfig(0.0),
        bit_rate=SYMBOL_RATE, cdr=True,
        dfe=DfeConfig(taps=(0.05,), decision_amplitude=0.2))
    assert session.modulation == Pam4()
    assert session.cdr_config.modulation == Pam4()
    assert session.dfe.modulation == Pam4()
    batch, _, _ = make_pam4_batch(n_scenarios=2)
    result = session.run_batch(batch)
    assert result.modulation == Pam4()
    assert result.row(0).modulation == Pam4()
    assert result.row(0).eye.n_eyes == 3
    assert result.dfe_decisions.max() == 3


def test_chunked_run_batch_row_exact_pam4():
    batch, _, _ = make_pam4_batch(n_scenarios=5)
    session = LinkSession(
        [], bit_rate=SYMBOL_RATE, modulation=Pam4(), cdr=True,
        dfe=DfeConfig(taps=(0.05,), decision_amplitude=0.2))
    mono = session.run_batch(batch)
    chunked = session.run_batch(batch, chunk_rows=2)
    assert chunked.modulation == Pam4()
    np.testing.assert_array_equal(mono.dfe_decisions,
                                  chunked.dfe_decisions)
    np.testing.assert_array_equal(mono.dfe_corrected,
                                  chunked.dfe_corrected)
    np.testing.assert_array_equal(mono.cdr.decisions,
                                  chunked.cdr.decisions)
    for a, b in zip(mono.eyes, chunked.eyes):
        assert a.eye_heights == b.eye_heights


def test_concatenate_preserves_modulation():
    batch, _, _ = make_pam4_batch(n_scenarios=2)
    session = LinkSession([], bit_rate=SYMBOL_RATE, modulation=Pam4())
    part = session.run_batch(batch)
    whole = LinkBatchResult.concatenate([part, part])
    assert whole.modulation == Pam4()
    assert whole.n_scenarios == 4


# ---------------------------------------------------------------------------
# Sweeps: NRZ and PAM4 in one grid.
# ---------------------------------------------------------------------------

def test_mixed_modulation_sweep_single_result():
    session = LinkSession.from_configs(
        tx=TxConfig(), channel=ChannelConfig(0.1), bit_rate=SYMBOL_RATE,
        dfe=DfeConfig(taps=(0.05,), decision_amplitude=0.2))
    grid = ScenarioGrid([
        modulation_axis([Nrz(), Pam4()]),
        SweepAxis("seed", (0, 1, 2)),
    ])

    def stimulus(params):
        rng = np.random.default_rng(params["seed"])
        bits = rng.integers(0, 2, 400)
        enc = SymbolEncoder(symbol_rate=SYMBOL_RATE,
                            modulation=params["modulation"],
                            amplitude=0.4, samples_per_symbol=8)
        return enc.encode_bits(bits)

    result = session.sweep(grid, stimulus)
    assert len(result.results) == 6
    for params, row in zip(grid.points(), result.results):
        expected = params["modulation"]
        assert row.modulation == expected
        assert row.eye.n_levels == expected.n_levels
        assert row.eye.n_eyes == expected.n_eyes
        # Every point measured with its own alphabet: all eyes open.
        assert row.eye.eye_height > 0
        assert int(row.dfe_decisions.max()) == expected.n_levels - 1


def test_batchable_modulation_axis_rejected():
    session = LinkSession([], bit_rate=SYMBOL_RATE)
    grid = ScenarioGrid([SweepAxis("modulation", (Nrz(), Pam4()))])
    with pytest.raises(ValueError, match="structural"):
        session.sweep(grid, lambda params: None)


def test_modulation_axis_helper_is_structural():
    axis = modulation_axis([Nrz(), Pam4()])
    assert axis.name == "modulation"
    assert axis.structural
    assert axis.values == (Nrz(), Pam4())


def test_checkpointed_mixed_sweep_resumes(tmp_path):
    session = LinkSession.from_configs(
        tx=TxConfig(), channel=ChannelConfig(0.1), bit_rate=SYMBOL_RATE)
    grid = ScenarioGrid([
        modulation_axis([Nrz(), Pam4()]),
        SweepAxis("seed", (0, 1)),
    ])

    def stimulus(params):
        rng = np.random.default_rng(params["seed"])
        bits = rng.integers(0, 2, 400)
        enc = SymbolEncoder(symbol_rate=SYMBOL_RATE,
                            modulation=params["modulation"],
                            amplitude=0.4, samples_per_symbol=8)
        return enc.encode_bits(bits)

    first = session.sweep(grid, stimulus, checkpoint_dir=tmp_path)
    resumed = session.sweep(grid, stimulus, checkpoint_dir=tmp_path)
    for a, b in zip(first.results, resumed.results):
        assert a.eye.eye_heights == b.eye.eye_heights
        assert a.modulation == b.modulation


def test_dfe_measure_reports_the_worst_pam4_sub_eye():
    # dfe_measure's default height is the DFE's own inner-eye height:
    # on PAM4 the worst of three sub-eyes, not the binary middle eye.
    from repro.sweep import dfe_measure

    batch, _, _ = make_pam4_batch(n_scenarios=2, noise=0.01)
    dfe = DecisionFeedbackEqualizer(taps=(0.05,), bit_rate=SYMBOL_RATE,
                                    decision_amplitude=0.2,
                                    modulation=Pam4())
    heights = dfe_measure(dfe, skip_bits=16)(batch, [{}, {}])
    for wave, height in zip(batch, heights):
        assert height == SerialDfe(dfe).inner_eye_height(wave, 16)
