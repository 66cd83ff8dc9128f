"""Pinned kernel oracle: the lean NumPy kernels are bit-exact.

The functions in the first section are inline frozen copies of the
per-bit-step NumPy kernels as they were before the bit-serial loops
were slimmed down (one interpolation pass per sample stream, ``np.sign``
Alexander votes with masked assignments, a shifted 2-D DFE history).
The property tests assert that the kernels reproduce them exactly —
every output array, NaN tails included — over random loop gains,
per-row start phases and frequency offsets (so cycle slips and ragged
rows occur), NRZ and PAM4 thresholds, 1 to 9 DFE taps and 1, 2 or 64
rows.  The inputs are finite: on NaN samples the old votes and
multi-level decisions disagreed with the scalar reference loops, which
``test_nan_sample_counts_low_on_every_path`` pins instead.

The kernels solve the recurrences a window of bits at a time by
fixed-point iteration, so the properties also draw record lengths on
either side of the CDR window and the DFE block, and DFE taps large
enough to need several sweeps; pinned hard cases cover a near-closed
eye, forced cycle slips, a nonzero initial integral on a one-window
record and a large-tap PAM4 DFE.  A CDR sweep re-evaluates its window
in passes until it is stable or a cap is reached, so a property with
large loop gains and frequency offsets drives windows to the cap, with
slips and row ends inside them, and a work-count guard pins the sweeps
and passes on a 1000-bit record.  Every property runs a quick sample by
default and the ``kernel-deep`` profile's count under
``--hypothesis-profile=kernel-deep`` (see ``conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.baselines import DecisionFeedbackEqualizer
from repro.cdr import BangBangCdr, CdrConfig
from repro.signals import Nrz, Pam4, Waveform, WaveformBatch
from serial_oracles import SerialCdr, SerialDfe, vote_step
from serial_oracles import detect_lock_batch as oracle_detect_lock

BIT_RATE = 10e9
SAMPLES_PER_BIT = 8


def examples(quick: int) -> int:
    """``quick`` examples under the default profile; a loaded profile
    that asks for more (``kernel-deep``) gets its own count.

    A profile alone cannot do this: a ``max_examples`` given to the
    ``@settings`` decorator overrides every profile, and leaving it out
    would run the default profile's 100 examples in tier-1.
    """
    loaded = settings.default.max_examples
    default = settings.get_profile("default").max_examples
    return loaded if loaded > default else quick


# ---------------------------------------------------------------------------
# Frozen pre-optimization NumPy kernels, verbatim.
# ---------------------------------------------------------------------------

def _old_sample_uniform(data, t0, sample_rate, times):
    data = np.asarray(data, dtype=float)
    n = data.shape[-1]
    if n < 2:
        raise ValueError(f"need at least 2 samples to interpolate, got {n}")
    x = (np.asarray(times, dtype=float) - t0) * sample_rate
    x = np.clip(x, 0.0, float(n - 1))
    i0 = np.minimum(x.astype(np.int64), n - 2)
    frac = x - i0
    if data.ndim == 1:
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
    return d0 + frac * (d1 - d0)


def _old_vote_step(previous_data, samples_edge, samples_data):
    def sign(values):
        signs = np.sign(values)
        signs[signs == 0] = 1
        return signs

    a = sign(previous_data)
    b = sign(samples_data)
    t = sign(samples_edge)
    transition = a != b
    votes = np.zeros(np.shape(t), dtype=np.int8)
    votes[transition & (t == a)] = 1     # EARLY
    votes[transition & (t == b)] = -1    # LATE
    return votes


def _old_cdr_recover_batch(data, t0, sample_rate, t_last, ui, kp, ki,
                           phase, integral, total_bits, thresholds=None):
    data = np.asarray(data, dtype=float)
    thresholds = (np.zeros(1) if thresholds is None
                  else np.asarray(thresholds, dtype=float))
    center = float(thresholds[(len(thresholds) - 1) // 2])
    n_rows = data.shape[0]
    phase = np.array(phase, dtype=float)
    integral = np.array(integral, dtype=float)
    bit_offset = np.zeros(n_rows, dtype=np.int64)
    slips = np.zeros(n_rows, dtype=np.int64)
    active = np.ones(n_rows, dtype=bool)
    row_bits = np.full(n_rows, total_bits, dtype=np.int64)

    decisions = np.zeros((n_rows, total_bits), dtype=np.int8)
    phases = np.empty((n_rows, total_bits))
    votes = np.zeros((n_rows, total_bits), dtype=np.int8)
    previous_data = None
    previous_edge = None

    for k in range(total_bits):
        t_data = (k + 0.5 + bit_offset + phase) * ui
        t_edge = (k + 1.0 + bit_offset + phase) * ui
        ending = active & (t_edge >= t_last)
        if ending.any():
            row_bits[ending] = k
            active = active & ~ending
            if not active.any():
                break
        sample_data = _old_sample_uniform(data, t0, sample_rate, t_data)
        sample_edge = _old_sample_uniform(data, t0, sample_rate, t_edge)
        if len(thresholds) == 1:
            decisions[:, k] = sample_data > center
        else:
            decisions[:, k] = np.searchsorted(thresholds, sample_data,
                                              side="left")
        phases[:, k] = phase

        if k > 0:
            if center != 0.0:
                votes_k = _old_vote_step(previous_data - center,
                                         previous_edge - center,
                                         sample_data - center)
            else:
                votes_k = _old_vote_step(previous_data, previous_edge,
                                         sample_data)
            votes[:, k] = votes_k
            new_integral = integral + ki * votes_k
            new_phase = phase + (kp * votes_k + new_integral)
            integral = np.where(active, new_integral, integral)
            phase = np.where(active, new_phase, phase)
            wrap_up = active & (phase > 1.0)
            wrap_down = active & (phase < -1.0)
            phase[wrap_up] -= 1.0
            bit_offset[wrap_up] += 1
            slips[wrap_up] += 1
            phase[wrap_down] += 1.0
            bit_offset[wrap_down] -= 1
            slips[wrap_down] -= 1
        previous_data = sample_data
        previous_edge = sample_edge

    tail = np.arange(total_bits)[np.newaxis, :] >= row_bits[:, np.newaxis]
    decisions[tail] = 0
    votes[tail] = 0
    phases[tail] = np.nan
    return decisions, phases, votes, slips, row_bits


def _old_dfe_equalize_batch(data, taps, ui_samples, sample_phase_ui,
                            decision_amplitude, n_bits, thresholds=None,
                            decision_levels=None):
    data = np.asarray(data, dtype=float)
    taps = np.asarray(taps, dtype=float)
    thresholds = (np.zeros(1) if thresholds is None
                  else np.asarray(thresholds, dtype=float))
    if decision_levels is None:
        decision_levels = np.array([-decision_amplitude,
                                    decision_amplitude])
    else:
        decision_levels = np.asarray(decision_levels, dtype=float)
    n_rows = data.shape[0]
    n_taps = len(taps)
    decisions = np.zeros((n_rows, n_bits), dtype=np.int8)
    corrected = np.zeros((n_rows, n_bits))
    history = np.zeros((n_rows, n_taps))
    binary = len(thresholds) == 1
    threshold0 = float(thresholds[0])
    for k in range(n_bits):
        index = (k + sample_phase_ui) * ui_samples
        raw = _old_sample_uniform(data, 0.0, 1.0, index)
        feedback = np.zeros(n_rows)
        for j in range(n_taps):
            feedback = feedback + taps[j] * history[:, j]
        values = raw - feedback
        corrected[:, k] = values
        if binary:
            symbols = (values > threshold0).astype(np.int64)
        else:
            symbols = np.searchsorted(thresholds, values, side="left")
        decisions[:, k] = symbols
        history[:, 1:] = history[:, :-1]
        history[:, 0] = decision_levels[symbols]
    return decisions, corrected


# ---------------------------------------------------------------------------
# Random inputs.
# ---------------------------------------------------------------------------

AMPLITUDE = 0.4
# Sorted thresholds and fed-back levels of the unit-swing alphabets.
MODULATIONS = {
    "nrz": (np.array([0.0]), np.array([-0.5, 0.5])),
    "pam4": (np.array([-1.0, 0.0, 1.0]) / 3.0,
             np.array([-0.5, -1.0 / 6.0, 1.0 / 6.0, 0.5])),
}


def _waveforms(rng, n_rows, n_bits, modulation):
    """Random-symbol staircases, linearly smoothed, plus AWGN, with a
    few bits held at exactly 0 V (on the middle threshold, which the
    slicers count high)."""
    levels = MODULATIONS[modulation][1] * AMPLITUDE
    symbols = rng.integers(0, len(levels), (n_rows, n_bits))
    data = np.repeat(levels[symbols], SAMPLES_PER_BIT, axis=1)
    kernel = np.ones(3) / 3.0
    data = np.apply_along_axis(np.convolve, 1, data, kernel, "same")
    data += rng.normal(0.0, 0.02, data.shape)
    zero_bits = np.repeat(rng.random((n_rows, n_bits)) < 0.05,
                          SAMPLES_PER_BIT, axis=1)
    data[zero_bits] = 0.0
    return data


def _assert_cdr_equal(got, want):
    names = ("decisions", "phases", "votes", "slips", "row_bits")
    for name, a, b in zip(names, got, want):
        assert a.shape == b.shape, name
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b, equal_nan=(name == "phases")), name


cdr_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n_rows": st.sampled_from([1, 2, 64]),
    "modulation": st.sampled_from(sorted(MODULATIONS)),
    "kp": st.floats(1e-3, 0.3),
    "ki": st.floats(0.0, 1e-3),
    "t0": st.sampled_from([0.0, 3.7e-12]),
})


def _edges(block):
    """Record lengths on either side of a block of ``block`` bits."""
    return [2, block - 1, block, block + 1, 3 * block + 2]


# Bit-steps of the CDR records: the historical 118 (a 120-bit
# waveform), and the window edges of one row and of 64 rows.
CDR_LENGTHS = sorted({118, *_edges(kernels._CDR_BLOCK),
                      *_edges(kernels._window(64))})


@settings(max_examples=examples(60), deadline=None)
@given(case=cdr_cases, total_bits=st.sampled_from(CDR_LENGTHS))
def test_cdr_kernel_matches_frozen_oracle(case, total_bits):
    rng = np.random.default_rng(case["seed"])
    n_rows = case["n_rows"]
    n_bits = total_bits + 2
    data = _waveforms(rng, n_rows, n_bits, case["modulation"])
    sample_rate = BIT_RATE * SAMPLES_PER_BIT
    t0 = case["t0"]
    t_last = t0 + (data.shape[1] - 1) / sample_rate
    # Per-row start phases and frequency offsets up to 5 %: slips and
    # rows that run out of waveform early.
    phase = rng.uniform(-0.9, 0.9, n_rows)
    integral = rng.uniform(-0.05, 0.05, n_rows)
    thresholds = MODULATIONS[case["modulation"]][0] * AMPLITUDE
    args = (data, t0, sample_rate, t_last, 1.0 / BIT_RATE, case["kp"],
            case["ki"], phase, integral, n_bits - 2, thresholds)
    want = _old_cdr_recover_batch(*args)
    got = kernels.cdr_recover_batch(*args)
    _assert_cdr_equal(got, want)


dfe_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n_rows": st.sampled_from([1, 2, 64]),
    "modulation": st.sampled_from(sorted(MODULATIONS)),
    "n_taps": st.integers(1, 9),
    "sample_phase_ui": st.floats(0.0, 0.9),
    "ui_samples": st.sampled_from([8.0, 7.3]),
    # Waveform UI: the historical 100, and the DFE block edges (at 8
    # samples per UI and a sample phase below 7/8, that many bits).
    "n_ui": st.sampled_from([100, *_edges(kernels._DFE_BLOCK)]),
    # Taps up to +-0.5 feed back up to half the decision amplitude, so
    # the decisions of a block take several sweeps.
    "tap_scale": st.sampled_from([0.1, 0.5]),
})


@settings(max_examples=examples(60), deadline=None)
@given(case=dfe_cases)
def test_dfe_kernel_matches_frozen_oracle(case):
    rng = np.random.default_rng(case["seed"])
    data = _waveforms(rng, case["n_rows"], case["n_ui"], case["modulation"])
    taps = rng.uniform(-case["tap_scale"], case["tap_scale"],
                       case["n_taps"])
    thresholds, levels = (AMPLITUDE * v
                          for v in MODULATIONS[case["modulation"]])
    n_bits = int((data.shape[1] - 1) / case["ui_samples"]
                 - case["sample_phase_ui"]) + 1
    args = (data, taps, case["ui_samples"], case["sample_phase_ui"],
            AMPLITUDE / 2, n_bits, thresholds, levels)
    want = _old_dfe_equalize_batch(*args)
    got = kernels.dfe_equalize_batch(*args)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# The fixed-point structure: window and block edges, multi-sweep cases.
# ---------------------------------------------------------------------------

def _cdr_args(data, phase, integral, total_bits, modulation="nrz",
              kp=2e-2, ki=1e-4, t0=0.0):
    sample_rate = BIT_RATE * SAMPLES_PER_BIT
    t_last = t0 + (data.shape[1] - 1) / sample_rate
    thresholds = MODULATIONS[modulation][0] * AMPLITUDE
    return (data, t0, sample_rate, t_last, 1.0 / BIT_RATE, kp, ki,
            np.asarray(phase, dtype=float),
            np.asarray(integral, dtype=float), total_bits, thresholds)


def _dfe_args(data, taps, n_bits, modulation):
    thresholds, levels = (AMPLITUDE * v for v in MODULATIONS[modulation])
    return (data, np.asarray(taps, dtype=float), float(SAMPLES_PER_BIT),
            0.5, AMPLITUDE / 2, n_bits, thresholds, levels)


def _assert_dfe_equal(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def test_cdr_near_closed_eye_matches_frozen_oracle():
    rng = np.random.default_rng(11)
    data = _waveforms(rng, 1, 1000, "nrz")
    # Noise comparable to the signal: the edge votes flip under tiny
    # phase changes, so most windows need several sweeps.
    data += rng.normal(0.0, 0.25, data.shape)
    args = _cdr_args(data, [0.1], [0.0], 998)
    got = kernels.cdr_recover_batch(*args)
    _assert_cdr_equal(got, _old_cdr_recover_batch(*args))
    decisions = got[0][0]
    assert 0.3 < decisions.mean() < 0.7


@pytest.mark.parametrize("modulation", ["nrz", "pam4"])
def test_cdr_forced_cycle_slips_match_frozen_oracle(modulation):
    rng = np.random.default_rng(12)
    data = _waveforms(rng, 3, 1000, modulation)
    # A 2 % frequency offset outruns the integrator: the phase wraps
    # past +-1 UI again and again, in both directions across the rows.
    args = _cdr_args(data, [0.3, -0.4, 0.0], [0.02, -0.02, 0.02], 998,
                     modulation)
    got = kernels.cdr_recover_batch(*args)
    _assert_cdr_equal(got, _old_cdr_recover_batch(*args))
    slips = got[3]
    assert slips[0] > 0 and slips[1] < 0
    assert got[4][0] < 998       # the slipping row runs out of waveform


@pytest.mark.parametrize("n_rows", [1, 64])
def test_cdr_initial_integral_on_one_window_record(n_rows):
    # The first step casts no vote and updates nothing: with a nonzero
    # initial integral, applying it at step 0 would shift every phase.
    rng = np.random.default_rng(13)
    total_bits = kernels._window(n_rows) - 3
    data = _waveforms(rng, n_rows, total_bits + 2, "nrz")
    args = _cdr_args(data, rng.uniform(-0.5, 0.5, n_rows),
                     np.full(n_rows, 3e-3), total_bits)
    got = kernels.cdr_recover_batch(*args)
    _assert_cdr_equal(got, _old_cdr_recover_batch(*args))
    np.testing.assert_array_equal(got[1][:, 1], args[7])


# ---------------------------------------------------------------------------
# Windows that take several passes before a sweep commits.
# ---------------------------------------------------------------------------

class _PassLog:
    """Counts the CDR kernel's sweeps (one ``_passes`` call each), the
    live rows and pass cap of each sweep and its passes (one
    ``sample_uniform`` call each, after the step-0 sample that precedes
    every sweep)."""

    def __init__(self, monkeypatch):
        self.per_sweep, self.rows, self.caps = [], [], []
        sample, passes = kernels.sample_uniform, kernels._passes

        def counted_sample(data, t0, sample_rate, times, row_offsets=None):
            if self.per_sweep:
                self.per_sweep[-1] += 1
            return sample(data, t0, sample_rate, times, row_offsets)

        def counted_passes(n_rows):
            self.per_sweep.append(0)
            self.rows.append(n_rows)
            self.caps.append(passes(n_rows))
            return self.caps[-1]

        monkeypatch.setattr(kernels, "sample_uniform", counted_sample)
        monkeypatch.setattr(kernels, "_passes", counted_passes)

    @property
    def sweeps(self):
        return len(self.per_sweep)

    @property
    def passes(self):
        return sum(self.per_sweep)


multi_pass_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n_rows": st.sampled_from([1, 2, 64]),
    "modulation": st.sampled_from(sorted(MODULATIONS)),
    # Proportional steps of 5 % to 50 % of a UI and frequency offsets
    # of 2 % to 10 %: votes flip under every pass, so windows run to
    # the pass cap, phases wrap again and again and rows run out of
    # waveform inside a window.
    "kp": st.floats(0.05, 0.5),
    "ki": st.floats(0.0, 1e-2),
    "offset": st.floats(0.02, 0.1),
    "noise": st.sampled_from([0.0, 0.25]),
})


@settings(max_examples=examples(40), deadline=None)
@given(case=multi_pass_cases, total_bits=st.sampled_from(CDR_LENGTHS))
def test_multi_pass_windows_match_frozen_oracle(case, total_bits):
    rng = np.random.default_rng(case["seed"])
    n_rows = case["n_rows"]
    data = _waveforms(rng, n_rows, total_bits + 2, case["modulation"])
    data += rng.normal(0.0, case["noise"], data.shape)
    sign = rng.choice([-1.0, 1.0], n_rows)
    args = _cdr_args(data, rng.uniform(-0.9, 0.9, n_rows),
                     sign * case["offset"], total_bits, case["modulation"],
                     kp=case["kp"], ki=case["ki"])
    _assert_cdr_equal(kernels.cdr_recover_batch(*args),
                      _old_cdr_recover_batch(*args))


@pytest.mark.parametrize("n_rows", [1, 2, 64])
def test_capped_windows_with_slips_and_row_ends(monkeypatch, n_rows):
    # Pinned: sweeps that stop at the pass cap, cycle slips and rows
    # that end inside a window all occur, and every output is exact.
    rng = np.random.default_rng(15)
    data = _waveforms(rng, n_rows, 600, "nrz")
    data += rng.normal(0.0, 0.25, data.shape)
    sign = np.where(np.arange(n_rows) % 2, -1.0, 1.0)
    args = _cdr_args(data, np.full(n_rows, 0.3), sign * 0.05, 598,
                     kp=0.2, ki=1e-3)
    want = _old_cdr_recover_batch(*args)
    log = _PassLog(monkeypatch)
    got = kernels.cdr_recover_batch(*args)
    _assert_cdr_equal(got, want)
    assert any(p == cap > 1 for p, cap in zip(log.per_sweep, log.caps))
    assert np.abs(got[3]).max() > 0         # slips
    assert got[4].min() < 598               # rows that end early
    # A row ends in a sweep of several passes (the next sweep has fewer
    # live rows, or there is none).
    after = log.rows[1:] + [0]
    assert any(p > 1 and later < rows for p, rows, later
               in zip(log.per_sweep, log.rows, after))


# Passes and sweeps of the kernel on the pinned 1000-bit record below:
# 120 and 16 as measured, plus 20 %.  One pass per sweep (64-step
# windows) took 121 sweeps on it.
WORK_PASSES = 144
WORK_SWEEPS = 19


def test_single_record_work_count(monkeypatch):
    """A lone 1000-bit row: the passes confirm most of each window
    before it commits, so the sweeps stay few.  A silent fall-back to one pass per sweep (or a
    shorter window) multiplies the sweeps and fails here."""
    rng = np.random.default_rng(16)
    data = _waveforms(rng, 1, 1002, "nrz")
    args = _cdr_args(data, [0.25], [0.0], 1000, kp=4e-3, ki=1e-5)
    log = _PassLog(monkeypatch)
    got = kernels.cdr_recover_batch(*args)
    _assert_cdr_equal(got, _old_cdr_recover_batch(*args))
    assert log.sweeps <= WORK_SWEEPS
    assert log.passes <= WORK_PASSES


def test_large_tap_pam4_dfe_matches_frozen_oracle():
    rng = np.random.default_rng(14)
    data = _waveforms(rng, 2, 1000, "pam4")
    args = _dfe_args(data, [0.4, 0.3, 0.25, 0.2, 0.15], 998, "pam4")
    decisions, corrected = kernels.dfe_equalize_batch(*args)
    _assert_dfe_equal((decisions, corrected), _old_dfe_equalize_batch(*args))
    # The feedback moves decisions: the no-feedback first guess is wrong,
    # so the blocks really iterate.
    no_feedback, _ = kernels.dfe_equalize_batch(data, [], *args[2:])
    assert not np.array_equal(no_feedback, decisions)


lock_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n_rows": st.sampled_from([1, 2, 64]),
    "window": st.sampled_from([3, 16, 64]),
    # Below, at and above 2 * window, and off any multiple of it.
    "length_windows": st.sampled_from([0.5, 1.9, 2.0, 2.1, 3.0, 5.3, 9.7]),
    "ragged": st.booleans(),
    "holes": st.booleans(),
})


@settings(max_examples=examples(60), deadline=None)
@given(case=lock_cases)
def test_lock_detector_matches_full_window_oracle(case):
    """The O(n) running-extrema lock detector against every window's
    peak-to-peak taken in full: pull-in ramps into limit cycles of
    random width (some lock, some do not, some wander off again), with
    ragged rows whose NaN tails start anywhere and scattered NaN
    samples inside the rows."""
    rng = np.random.default_rng(case["seed"])
    n_rows, window = case["n_rows"], case["window"]
    total_bits = max(1, int(case["length_windows"] * window))
    t = np.arange(total_bits)
    pull_in = rng.uniform(0, total_bits, (n_rows, 1))
    phases = (rng.uniform(-0.5, 0.5, (n_rows, 1))
              * np.clip(1 - t / np.maximum(pull_in, 1), 0, None)
              + rng.uniform(0.0, 0.04, (n_rows, 1))
              * rng.standard_normal((n_rows, total_bits)))
    drift_from = rng.uniform(0, 2 * total_bits, (n_rows, 1))
    phases += 0.01 * np.clip(t - drift_from, 0, None)
    if case["holes"]:       # a NaN inside a window keeps it from locking
        phases[rng.random((n_rows, total_bits)) < 0.01] = np.nan
    row_bits = np.full(n_rows, total_bits)
    if case["ragged"]:
        row_bits = rng.integers(0, total_bits + 1, n_rows)
        phases[t >= row_bits[:, np.newaxis]] = np.nan
    want = oracle_detect_lock(phases, row_bits, window=window)
    got = BangBangCdr._detect_lock_batch(phases, row_bits, window=window)
    np.testing.assert_array_equal(got, want)


def test_zero_row_batch_returns_empty_arrays():
    data = np.zeros((0, 400))
    empty = np.zeros(0)
    cdr_args = (data, 0.0, 8e10, 399 / 8e10, 1e-10, 1e-2, 1e-5,
                empty, empty, 48)
    _assert_cdr_equal(kernels.cdr_recover_batch(*cdr_args),
                      _old_cdr_recover_batch(*cdr_args))
    dfe_args = (data, np.array([0.05, 0.02]), 8.0, 0.5, 0.2, 48)
    for a, b in zip(kernels.dfe_equalize_batch(*dfe_args),
                    _old_dfe_equalize_batch(*dfe_args)):
        assert a.shape == b.shape == (0, 48)
        assert a.dtype == b.dtype


# ---------------------------------------------------------------------------
# NaN samples: one slicer convention everywhere.
# ---------------------------------------------------------------------------

def test_vote_step_counts_nan_low():
    # A high, T NaN (low), B low: T agrees with B -> LATE.  Under the
    # old np.sign convention T was NaN, equal to neither, so HOLD.
    assert vote_step(np.array([1.0]), np.array([np.nan]),
                     np.array([-1.0]))[0] == -1
    # A NaN (low), T high, B high: T agrees with B -> LATE.
    assert vote_step(np.array([np.nan]), np.array([1.0]),
                     np.array([1.0]))[0] == -1
    # A NaN, T NaN, B NaN: all low, no transition.
    assert vote_step(*[np.array([np.nan])] * 3)[0] == 0
    # Zero still counts high.
    assert vote_step(np.array([-1.0]), np.array([0.0]),
                     np.array([1.0]))[0] == -1


@pytest.mark.parametrize("name", ["nrz", "pam4"])
def test_nan_sample_counts_low_on_every_path(name):
    modulation = {"nrz": Nrz(), "pam4": Pam4()}[name]
    rng = np.random.default_rng(5)
    data = _waveforms(rng, 3, 200, name)
    # A stretch of NaN samples over several bits of row 1, so data and
    # edge instants across transitions land on NaN.
    data[1, 60 * SAMPLES_PER_BIT:66 * SAMPLES_PER_BIT] = np.nan
    sample_rate = BIT_RATE * SAMPLES_PER_BIT
    batch = WaveformBatch(data, sample_rate)
    cdr = BangBangCdr(CdrConfig(bit_rate=BIT_RATE, kp=2e-2, ki=1e-4,
                                modulation=modulation, amplitude=AMPLITUDE))
    dfe = DecisionFeedbackEqualizer(taps=(0.05, 0.02), bit_rate=BIT_RATE,
                                    decision_amplitude=AMPLITUDE / 2,
                                    modulation=modulation)
    recovered = cdr.recover(batch)
    decisions, corrected = dfe.equalize(batch)
    for i in range(batch.n_scenarios):
        wave = Waveform(data[i], sample_rate)
        serial = SerialCdr(cdr.config).recover(wave)
        row = recovered.row(i)
        np.testing.assert_array_equal(row.decisions, serial.decisions)
        np.testing.assert_array_equal(row.votes, serial.votes)
        np.testing.assert_array_equal(row.phase_track_ui,
                                      serial.phase_track_ui)
        assert row.slips == serial.slips
        serial_decisions, serial_corrected = SerialDfe(dfe).equalize(wave)
        np.testing.assert_array_equal(decisions[i], serial_decisions)
        np.testing.assert_array_equal(corrected[i], serial_corrected)
