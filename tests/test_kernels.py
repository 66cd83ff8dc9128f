"""The kernel layer: oracle parity, lock detection, chunked passes.

Three contracts:

* **oracle parity** — the CDR and DFE kernels reproduce the scalar
  reference loops in ``serial_oracles`` row by row, including
  early-terminating rows, cycle slips and NaN phase tails, a single
  waveform recovered as a batch of one matches them too, and
  ``sample_uniform`` matches ``np.interp``;
* **lock detection** — the vectorized batch lock detector matches the
  scalar reference row by row;
* **chunked fused pass** — ``LinkSession.run_batch(chunk_rows=...)``
  and ``SweepRunner(chunk_rows=...)`` are row-exact against their
  monolithic runs across uneven chunk boundaries.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import kernels
from repro.baselines import DecisionFeedbackEqualizer, dfe_taps_from_channel
from repro.cdr import BangBangCdr, CdrConfig
from repro.channel import BackplaneChannel
from repro.link import ChannelConfig, DfeConfig, LinkSession, RxConfig, \
    TxConfig
from repro.signals import (
    NrzEncoder,
    RandomJitter,
    WaveformBatch,
    add_awgn,
    bits_to_nrz,
    prbs7,
)
from repro.sweep import ScenarioGrid, SweepAxis
from serial_oracles import SerialCdr, SerialDfe

BIT_RATE = 10e9


def make_batch(n_scenarios=8, n_bits=220, samples_per_bit=8):
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
# The one kernel implementation.
# ---------------------------------------------------------------------------

def test_numpy_backend_always_available():
    assert kernels.backend_name() == "numpy"


def _fresh_interpreter(script: str) -> str:
    """Run ``script`` in a new interpreter with ``src`` on the path and
    return its standard output."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_repro_with_default_selection():
    """`import repro` works in a fresh interpreter and reports the
    NumPy kernels, and neither the import nor a link run, a batch, a
    statistical eye and a journaled sweep load any scipy package: the
    only scipy module in ``sys.modules`` is the compiled filter loop
    (``scipy.signal`` alone used to be most of the import time and
    memory, ``scipy.fft`` and ``scipy.special`` most of the rest)."""
    stdout = _fresh_interpreter(
        "import sys, tempfile\n"
        "import repro\n"
        "from repro import kernels\n"
        "from repro import (ChannelConfig, Count, LinkSession, MeanVar,\n"
        "                   ScenarioGrid, SweepAxis, Waveform, WaveformBatch,\n"
        "                   bits_to_nrz, prbs7)\n"
        "from repro.analysis import measure_eye_batch\n"
        "session = LinkSession.from_configs(channel=ChannelConfig(0.1))\n"
        "wave = bits_to_nrz(prbs7(40), 10e9, amplitude=0.25,\n"
        "                   samples_per_bit=8)\n"
        "assert session.run(wave).eye.eye_height > 0\n"
        "batch = WaveformBatch.with_noise_seeds(wave, 3e-3, [1, 2, 3])\n"
        "assert session.run_batch(batch).n_scenarios == 3\n"
        "assert 0 <= session.statistical_eye(noise_rms=5e-3).ber < 0.5\n"
        "def stimulus(params):\n"
        "    return Waveform(wave.data * params['gain'], wave.sample_rate)\n"
        "def heights(out, params):\n"
        "    return [eye.eye_height for eye in measure_eye_batch(out, 10e9)]\n"
        "grid = ScenarioGrid([SweepAxis('gain', (0.8, 1.0, 1.2))])\n"
        "with tempfile.TemporaryDirectory() as journal:\n"
        "    aggregates = session.sweep(\n"
        "        grid, stimulus, measure=heights, chunk_rows=2,\n"
        "        reducers={'count': Count(), 'height': MeanVar()},\n"
        "        keep_results=False, checkpoint_dir=journal).aggregates\n"
        "assert aggregates['count'] == 3\n"
        "loaded = sorted(name for name in sys.modules\n"
        "                if name == 'scipy' or name.startswith('scipy.'))\n"
        "assert loaded == ['scipy.signal._sigtools'], loaded\n"
        "print(kernels.backend_name())\n")
    assert stdout.strip() == "numpy"


def test_q_ber_helpers_load_scipy_special_on_first_call():
    stdout = _fresh_interpreter(
        "import sys\n"
        "from repro.analysis import q_to_ber\n"
        "assert 'scipy.special' not in sys.modules\n"
        "print(q_to_ber(7.0))\n"
        "assert 'scipy.special' in sys.modules\n")
    assert float(stdout) == pytest.approx(1.28e-12, rel=1e-2)


def test_later_scipy_signal_import_shares_the_filter_loop():
    """The filter loop repro loads is the module a later
    ``import scipy.signal`` finds: one ``_linear_filter`` in the
    process, run by both ``scipy.signal.lfilter`` and repro."""
    stdout = _fresh_interpreter(
        "import sys\n"
        "from repro.lti import discretize\n"
        "sigtools = sys.modules['scipy.signal._sigtools']\n"
        "assert sigtools._linear_filter is discretize._linear_filter\n"
        "import scipy.signal\n"
        "from scipy.signal import _signaltools\n"
        "assert sys.modules['scipy.signal._sigtools'] is sigtools\n"
        "assert _signaltools._sigtools is sigtools\n"
        "print('shared')\n")
    assert stdout.strip() == "shared"


# ---------------------------------------------------------------------------
# Parity with the scalar reference loops.
# ---------------------------------------------------------------------------

def test_cdr_ragged_rows_match_serial_oracle():
    batch = make_batch()
    config = CdrConfig(bit_rate=BIT_RATE, kp=8e-3, ki=2e-5)
    # Large per-row frequency offsets force cycle slips and make some
    # rows run out of waveform early — the ragged-tail code paths.
    ppm = np.linspace(-4e4, 4e4, batch.n_scenarios)
    result = BangBangCdr(config).recover(
        batch, initial_frequency_ppm=ppm)
    # The offsets above must actually produce ragged rows and slips for
    # this test to mean anything.
    assert len(np.unique(result.n_bits)) > 1
    assert np.any(result.slips != 0)
    for i, wave in enumerate(batch.rows()):
        reference = SerialCdr(dataclasses.replace(
            config, initial_frequency_ppm=float(ppm[i]))).recover(wave)
        row = result.row(i)
        np.testing.assert_array_equal(row.decisions, reference.decisions)
        np.testing.assert_array_equal(row.phase_track_ui,
                                      reference.phase_track_ui)
        np.testing.assert_array_equal(row.votes, reference.votes)
        assert row.slips == reference.slips
        assert row.locked_at_bit == reference.locked_at_bit
        assert np.isnan(result.phase_track_ui[i, result.n_bits[i]:]).all()


def test_dfe_rows_match_serial_oracle():
    channel = BackplaneChannel(0.5)
    received = channel.process(
        bits_to_nrz(prbs7(260), BIT_RATE, amplitude=1.0, samples_per_bit=16))
    batch = WaveformBatch.with_noise_seeds(received, rms_volts=0.01,
                                           seeds=list(range(1, 9)))
    dfe = DecisionFeedbackEqualizer(
        taps=dfe_taps_from_channel(channel, BIT_RATE, n_taps=3,
                                   amplitude=1.0),
        bit_rate=BIT_RATE)
    decisions, corrected = dfe.equalize(batch)
    for i, wave in enumerate(batch.rows()):
        ref_decisions, ref_corrected = SerialDfe(dfe).equalize(wave)
        np.testing.assert_array_equal(decisions[i], ref_decisions)
        np.testing.assert_array_equal(corrected[i], ref_corrected)


def test_sample_uniform_matches_np_interp():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(6, 50))
    t0, sample_rate = 2e-10, 8e10
    grid = t0 + np.arange(50) / sample_rate
    # Includes times outside the span: both ends must clamp the way
    # np.interp does.
    times = np.array([-1e-9, 0.0, 2.5e-10, 3.1e-10, 5e-10, 1e-6])
    got = kernels.sample_uniform(data, t0, sample_rate, times)
    assert got.shape == (6,)
    want = [np.interp(t, grid, row) for t, row in zip(times, data)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_one_row_recover_matches_serial_oracle():
    """``BangBangCdr.recover`` (a batch of one) against the scalar
    loop."""
    batch = make_batch(n_scenarios=4)
    config = CdrConfig(bit_rate=BIT_RATE, kp=8e-3, ki=2e-5)
    for wave in batch.rows():
        got = BangBangCdr(config).recover(wave)
        reference = SerialCdr(config).recover(wave)
        np.testing.assert_array_equal(got.decisions, reference.decisions)
        np.testing.assert_array_equal(got.phase_track_ui,
                                      reference.phase_track_ui)
        assert got.slips == reference.slips
        assert got.locked_at_bit == reference.locked_at_bit


# ---------------------------------------------------------------------------
# Vectorized lock detection.
# ---------------------------------------------------------------------------

def test_detect_lock_batch_matches_serial_rows():
    batch = make_batch(n_scenarios=10)
    ppm = np.linspace(-4e4, 4e4, batch.n_scenarios)
    cdr = BangBangCdr(CdrConfig(bit_rate=BIT_RATE, kp=8e-3, ki=2e-5))
    result = cdr.recover(batch, initial_frequency_ppm=ppm)
    locked = BangBangCdr._detect_lock_batch(result.phase_track_ui,
                                            result.n_bits)
    for i in range(batch.n_scenarios):
        track = result.phase_track_ui[i, :result.n_bits[i]]
        assert locked[i] == SerialCdr._detect_lock(track), f"row {i}"


def test_detect_lock_batch_synthetic_edges():
    window = 64
    # Row 0: flat from the start — locks at 0.  Row 1: settles exactly
    # at the last admissible window.  Row 2: never settles.  Row 3: too
    # short once its ragged length is accounted for.
    total = 4 * window
    phases = np.empty((4, total))
    phases[0] = 0.3
    phases[1] = np.concatenate([np.linspace(1.0, 0.3, total - 2 * window),
                                np.full(2 * window, 0.3)])
    phases[2] = np.linspace(0.0, 5.0, total)
    phases[3, :] = 0.3
    phases[3, window:] = np.nan
    row_bits = np.array([total, total, total, window], dtype=np.int64)
    locked = BangBangCdr._detect_lock_batch(phases, row_bits)
    assert locked[0] == 0
    # The ramp's tail fits the tolerance window a few bits before it
    # ends; the exact index is pinned by the serial-parity loop below.
    assert 0 < locked[1] <= total - 2 * window
    assert locked[2] == -1
    assert locked[3] == -1
    for i in range(4):
        track = phases[i, :row_bits[i]]
        assert locked[i] == SerialCdr._detect_lock(track), f"row {i}"


def test_detect_lock_batch_short_batch_returns_unlocked():
    phases = np.zeros((3, 40))
    row_bits = np.full(3, 40, dtype=np.int64)
    locked = BangBangCdr._detect_lock_batch(phases, row_bits)
    np.testing.assert_array_equal(locked, [-1, -1, -1])


# ---------------------------------------------------------------------------
# Chunked fused pass.
# ---------------------------------------------------------------------------

def _session():
    return LinkSession.from_configs(
        TxConfig(), ChannelConfig(0.3), RxConfig(),
        bit_rate=BIT_RATE,
        cdr=CdrConfig(bit_rate=BIT_RATE, kp=8e-3, ki=2e-5),
        dfe=DfeConfig(taps=(0.05, 0.02)),
    )


def _assert_batch_results_equal(chunked, mono):
    np.testing.assert_array_equal(chunked.output.data, mono.output.data)
    assert chunked.output.sample_rate == mono.output.sample_rate
    assert chunked.output.t0 == mono.output.t0
    assert chunked.eyes == mono.eyes
    np.testing.assert_array_equal(chunked.cdr.decisions, mono.cdr.decisions)
    assert np.array_equal(chunked.cdr.phase_track_ui,
                          mono.cdr.phase_track_ui, equal_nan=True)
    np.testing.assert_array_equal(chunked.cdr.locked_at_bit,
                                  mono.cdr.locked_at_bit)
    np.testing.assert_array_equal(chunked.cdr.slips, mono.cdr.slips)
    np.testing.assert_array_equal(chunked.dfe_decisions, mono.dfe_decisions)
    np.testing.assert_array_equal(chunked.dfe_corrected, mono.dfe_corrected)
    np.testing.assert_array_equal(chunked.dfe_inner_eye_heights,
                                  mono.dfe_inner_eye_heights)


@pytest.mark.parametrize("chunk_rows", [1, 5, 7, 23, 50])
def test_chunked_run_batch_row_exact(chunk_rows):
    batch = make_batch(n_scenarios=23, n_bits=120)
    session = _session()
    mono = session.run_batch(batch)
    chunked = session.run_batch(batch, chunk_rows=chunk_rows)
    assert chunked.n_scenarios == 23
    _assert_batch_results_equal(chunked, mono)


def test_run_batch_keep_output_false_drops_waveforms():
    batch = make_batch(n_scenarios=9, n_bits=120)
    session = _session()
    mono = session.run_batch(batch)
    slim = session.run_batch(batch, chunk_rows=4, keep_output=False)
    assert slim.output.data.shape == (9, 0)
    assert slim.eyes == mono.eyes
    np.testing.assert_array_equal(slim.cdr.decisions, mono.cdr.decisions)
    np.testing.assert_array_equal(slim.dfe_corrected, mono.dfe_corrected)


def test_run_batch_chunk_rows_validation():
    session = _session()
    batch = make_batch(n_scenarios=2, n_bits=120)
    with pytest.raises(ValueError, match="chunk_rows"):
        session.run_batch(batch, chunk_rows=0)


def test_sweep_chunk_rows_matches_monolithic():
    session = _session()
    encoder = NrzEncoder(bit_rate=BIT_RATE, samples_per_bit=8, amplitude=0.4)
    bits = prbs7(120)

    def stimulus(params):
        jitter = RandomJitter(2e-12, seed=params["seed"])
        return encoder.encode(
            bits, edge_offsets=jitter.offsets(120, BIT_RATE))

    grid = ScenarioGrid([SweepAxis("seed", tuple(range(1, 8)))])
    mono = session.sweep(grid, stimulus,
                         measure=lambda out, params: list(out.data.sum(1)))
    chunked = session.sweep(grid, stimulus, chunk_rows=3,
                            measure=lambda out, params: list(out.data.sum(1)))
    assert mono.results == chunked.results
