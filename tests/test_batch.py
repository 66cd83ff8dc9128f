"""WaveformBatch: API mirror of Waveform and batch-vs-serial equivalence.

The batched engine's contract is that row ``i`` of a batch pushed
through any block — including the complete paper link — is numerically
identical to pushing the same waveform through on its own.  These tests
pin that contract down, including the degenerate ``lfilter_zi`` fallback
branch (pure gains and s=0 poles).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_io_interface
from repro.analysis import (
    ber_from_eye_batch,
    measure_eye_batch,
    pulse_response_batch,
)
from repro.channel import BackplaneChannel
from repro.lti import (
    LinearBlock,
    Pipeline,
    RationalTF,
    TanhLimiter,
    first_order_lowpass,
    pole_zero_tf,
)
from repro.signals import (
    NrzEncoder,
    RandomJitter,
    Waveform,
    WaveformBatch,
    add_awgn,
    bits_to_nrz,
    prbs7,
)
from toy_blocks import GainBlock
import serial_oracles as oracle

FS = 160e9
BIT_RATE = 10e9


def make_batch(n_rows=3, n_samples=64, seed=0):
    rng = np.random.default_rng(seed)
    return WaveformBatch(rng.standard_normal((n_rows, n_samples)), FS)


# -- construction -------------------------------------------------------------

def test_stack_requires_compatible_waveforms():
    a = Waveform(np.zeros(8), FS)
    b = Waveform(np.zeros(9), FS)
    with pytest.raises(ValueError):
        WaveformBatch.stack([a, b])
    with pytest.raises(ValueError):
        WaveformBatch.stack([])
    with pytest.raises(ValueError):
        WaveformBatch.stack([a, Waveform(np.zeros(8), 2 * FS)])


def test_stack_names_the_first_mismatch():
    a = Waveform(np.zeros(8), FS)
    waves = [a, a, Waveform(np.zeros(8), FS, t0=1e-6),
             Waveform(np.zeros(9), FS)]
    with pytest.raises(ValueError,
                       match=r"^waveform start times differ: 0.0 vs 1e-06$"):
        WaveformBatch.stack(waves)
    with pytest.raises(ValueError,
                       match=r"^waveform lengths differ: 8 vs 9$"):
        WaveformBatch.stack(waves[:2] + waves[3:])
    with pytest.raises(ValueError, match=r"^waveform sample rates differ: "):
        WaveformBatch.stack([a, a, Waveform(np.zeros(8), 2 * FS)])
    # Within np.isclose tolerance the first row's timebase wins.
    near = Waveform(np.ones(8), FS * (1 + 1e-9), t0=1e-12)
    batch = WaveformBatch.stack([a, near])
    assert batch.sample_rate == FS and batch.t0 == 0.0


def _at_tolerance(reference, sign):
    """The float one step inside (``sign=-1``) or outside (``+1``) of
    ``np.isclose``'s default tolerance above ``reference``."""
    edge = reference + (1e-8 + 1e-5 * abs(reference))
    while not np.isclose(edge, reference):
        edge = np.nextafter(edge, -np.inf)
    while np.isclose(np.nextafter(edge, np.inf), reference):
        edge = np.nextafter(edge, np.inf)
    return float(edge if sign < 0 else np.nextafter(edge, np.inf))


@pytest.mark.parametrize("field", ["sample_rate", "t0"])
def test_stack_tolerance_edge_matches_isclose(field):
    # The timebase check accepts exactly what np.isclose accepts: the
    # last float inside the tolerance stacks, the first outside raises.
    a = Waveform(np.zeros(8), FS, t0=2e-9)
    reference = getattr(a, field)
    inside = dataclasses.replace(a, **{field: _at_tolerance(reference, -1)})
    outside = dataclasses.replace(a, **{field: _at_tolerance(reference, +1)})
    assert np.isclose(getattr(inside, field), reference)
    assert not np.isclose(getattr(outside, field), reference)
    batch = WaveformBatch.stack([a, inside])
    assert (batch.sample_rate, batch.t0) == (a.sample_rate, a.t0)
    with pytest.raises(ValueError, match="differ"):
        WaveformBatch.stack([a, outside])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["sample_rate", "t0"]),
       st.sampled_from([FS, 1.0, 2e-9, np.inf]),
       st.one_of(st.floats(-1.1, 1.1),
                 st.sampled_from([-np.inf, np.inf, np.nan])),
       st.sampled_from([None, 1.0, np.inf, np.nan]))
def test_stack_accepts_what_isclose_accepts(field, reference, scale, raw):
    # Offsets of up to 1.1 tolerances either way, infinities and NaN:
    # stack accepts a second timebase exactly when np.isclose does.
    value = reference + scale * (1e-8 + 1e-5 * abs(reference))
    if raw is not None:
        value = raw
    if field == "sample_rate" and not value > 0:
        return  # not a valid sample rate
    first = dataclasses.replace(Waveform(np.zeros(4), FS),
                                **{field: reference})
    other = dataclasses.replace(first, **{field: value})
    if np.isclose(value, reference):
        WaveformBatch.stack([first, other])
    else:
        with pytest.raises(ValueError, match="differ"):
            WaveformBatch.stack([first, other])


def test_stack_and_rows_round_trip():
    waves = [Waveform(np.arange(5.0) + i, FS) for i in range(4)]
    batch = WaveformBatch.stack(waves)
    assert batch.n_scenarios == 4
    assert batch.n_samples == 5
    for original, row in zip(waves, batch.rows()):
        np.testing.assert_array_equal(original.data, row.data)
        assert row.sample_rate == original.sample_rate


def test_batch_rejects_1d_data():
    with pytest.raises(ValueError):
        WaveformBatch(np.zeros(8), FS)


def test_noise_seed_rows_match_serial_awgn():
    # add_awgn draws through with_noise_seeds; the oracle is the plain
    # per-seed generator call, not the library.
    wave = bits_to_nrz(prbs7(16), BIT_RATE, amplitude=0.2,
                       samples_per_bit=8)
    seeds = [11, 12, 13]
    batch = WaveformBatch.with_noise_seeds(wave, 1e-3, seeds)
    for seed, row in zip(seeds, batch.rows()):
        expected = wave.data + np.random.default_rng(seed).normal(
            0.0, 1e-3, size=len(wave))
        np.testing.assert_array_equal(row.data, expected)
        np.testing.assert_array_equal(
            add_awgn(wave, 1e-3, seed=seed).data, expected)


def _jittered_rows(encoder, bits, seeds):
    """One 2 ps RJ encoding of ``bits`` per seed."""
    return [encoder.encode(bits, RandomJitter(2e-12, seed=seed).offsets(
        len(bits), BIT_RATE)) for seed in seeds]


# -- API mirror ---------------------------------------------------------------

def test_indexing_and_iteration():
    batch = make_batch(3, 16)
    assert len(batch) == 3
    assert isinstance(batch[1], Waveform)
    sliced = batch[1:]
    assert isinstance(sliced, WaveformBatch)
    assert sliced.n_scenarios == 2
    assert len(list(batch)) == 3


def test_statistics_are_per_row():
    batch = WaveformBatch(np.array([[1.0, -1.0], [3.0, 3.0]]), FS)
    np.testing.assert_allclose(batch.peak_to_peak(), [2.0, 0.0])
    np.testing.assert_allclose(batch.mean(), [0.0, 3.0])
    np.testing.assert_allclose(batch.rms(), [1.0, 3.0])


def test_arithmetic_with_scalars_vectors_and_waveforms():
    batch = make_batch(3, 8)
    wave = Waveform(np.ones(8), FS)
    per_row = np.array([1.0, 2.0, 3.0])

    np.testing.assert_array_equal((batch + 1.0).data, batch.data + 1.0)
    np.testing.assert_array_equal((batch + wave).data, batch.data + 1.0)
    np.testing.assert_array_equal((batch + per_row).data,
                                  batch.data + per_row[:, None])
    np.testing.assert_array_equal((batch - batch).data,
                                  np.zeros_like(batch.data))
    np.testing.assert_array_equal((batch * 2.0).data, 2.0 * batch.data)
    np.testing.assert_array_equal((-batch).data, -batch.data)


def test_arithmetic_shape_checks():
    batch = make_batch(3, 8)
    with pytest.raises(ValueError):
        batch + np.ones(5)  # neither per-row nor per-sample
    with pytest.raises(ValueError):
        batch + make_batch(2, 8)
    with pytest.raises(ValueError):
        batch + Waveform(np.ones(9), FS)


@given(delay_ps=st.floats(min_value=0.0, max_value=400.0))
@settings(max_examples=25, deadline=None)
def test_delayed_matches_serial(delay_ps):
    batch = make_batch(4, 48, seed=3)
    delayed = batch.delayed(delay_ps * 1e-12)
    for row, out in zip(batch.rows(), delayed.rows()):
        np.testing.assert_array_equal(row.delayed(delay_ps * 1e-12).data,
                                      out.data)


def test_skip_and_slice_time_match_serial():
    batch = make_batch(3, 40)
    np.testing.assert_array_equal(
        batch.skip(7).data,
        np.stack([row.skip(7).data for row in batch.rows()]),
    )
    sliced = batch.slice_time(5 / FS, 20 / FS)
    np.testing.assert_array_equal(
        sliced.data,
        np.stack([row.slice_time(5 / FS, 20 / FS).data
                  for row in batch.rows()]),
    )
    assert sliced.t0 == batch.rows()[0].slice_time(5 / FS, 20 / FS).t0


# -- block transparency -------------------------------------------------------

@pytest.mark.parametrize("block", [
    LinearBlock(pole_zero_tf([6e9], [1.5e9], gain=2.0)),
    LinearBlock(RationalTF.constant(3.0)),    # degenerate zi: pure gain
    LinearBlock(RationalTF.integrator(1e9)),  # degenerate zi: s=0 pole
    TanhLimiter(gain=4.0, limit=0.125),
    GainBlock(-1.5),
])
def test_blocks_process_batches_row_identically(block):
    batch = make_batch(3, 96, seed=5)
    out = block.process(batch)
    assert isinstance(out, WaveformBatch)
    for row, out_row in zip(batch.rows(), out.rows()):
        np.testing.assert_array_equal(block.process(row).data, out_row.data)


def test_fir_preemphasis_baseline_is_batch_transparent():
    from repro.baselines import FirPreEmphasis

    ffe = FirPreEmphasis(taps=[1.0, -0.25], bit_rate=BIT_RATE)
    batch = make_batch(3, 96, seed=6)
    out = ffe.process(batch)
    for row, out_row in zip(batch.rows(), out.rows()):
        np.testing.assert_array_equal(ffe.process(row).data, out_row.data)


def test_pipeline_batch_matches_serial():
    pipe = Pipeline([
        LinearBlock(pole_zero_tf([8e9], [2e9], gain=1.5)),
        TanhLimiter(gain=3.0, limit=0.2),
        LinearBlock(first_order_lowpass(9e9)),
    ])
    batch = make_batch(4, 128, seed=9)
    out = pipe.process(batch)
    for row, out_row in zip(batch.rows(), out.rows()):
        np.testing.assert_array_equal(pipe.process(row).data, out_row.data)


def test_backplane_channel_batch_matches_serial():
    channel = BackplaneChannel(0.4)
    base = bits_to_nrz(prbs7(40), BIT_RATE, amplitude=0.25,
                       samples_per_bit=16)
    batch = WaveformBatch.stack([base * a for a in (0.5, 1.0, 1.5)])
    out = channel.process(batch)
    for row, out_row in zip(batch.rows(), out.rows()):
        np.testing.assert_allclose(channel.process(row).data, out_row.data,
                                   atol=1e-12)


# -- the headline contract: the full paper link -------------------------------

@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=5, deadline=None)
def test_full_link_batch_rows_match_single_waveform_path(seed):
    """Each row through build_io_interface() matches the serial path to
    <= 1e-12 — the tentpole equivalence guarantee."""
    rng = np.random.default_rng(seed)
    link = build_io_interface(channel=BackplaneChannel(0.2))
    base = bits_to_nrz(prbs7(36, seed=3), BIT_RATE, amplitude=0.01,
                       samples_per_bit=16)
    scales = 1.0 + 0.2 * rng.standard_normal(4)
    offsets = rng.normal(0.0, 1e-3, 4)
    waves = [base * s + o for s, o in zip(scales, offsets)]
    batch = WaveformBatch.stack(waves)
    out = link.process(batch)
    assert isinstance(out, WaveformBatch)
    for wave, out_row in zip(waves, out.rows()):
        serial = link.process(wave)
        assert np.max(np.abs(serial.data - out_row.data)) <= 1e-12


def test_full_link_batch_through_degenerate_gain_stage():
    """The degenerate-zi fallback (pure gain prepended to the link
    pipeline) stays row-exact inside a batch."""
    link = build_io_interface()
    pre = Pipeline([GainBlock(0.5), LinearBlock(RationalTF.constant(2.0))])
    base = bits_to_nrz(prbs7(30), BIT_RATE, amplitude=0.008,
                       samples_per_bit=16)
    waves = [base * s for s in (0.6, 1.0, 1.7)]
    batch = pre.process(WaveformBatch.stack(waves))
    out = link.process(batch)
    for wave, out_row in zip(waves, out.rows()):
        serial = link.process(pre.process(wave))
        assert np.max(np.abs(serial.data - out_row.data)) <= 1e-12


# -- batched analysis ---------------------------------------------------------

def test_measure_eye_batch_matches_serial_measurements():
    base = bits_to_nrz(prbs7(60), BIT_RATE, amplitude=0.3,
                       samples_per_bit=16)
    batch = WaveformBatch.stack([add_awgn(base, 5e-3, seed=s)
                                 for s in range(5)])
    batched = measure_eye_batch(batch, BIT_RATE, skip_ui=8)
    for row, measurement in zip(batch.rows(), batched):
        assert measurement == oracle.eye_diagram(row, BIT_RATE,
                                                 skip_ui=8).measure()


def test_measure_eye_batch_resamples_non_integer_rows_like_the_oracle():
    # 15.5 samples/UI: every row is resampled to 16 samples/UI on its
    # own before the fold, as the per-waveform oracle does.
    base = bits_to_nrz(prbs7(60), BIT_RATE, amplitude=0.3,
                       samples_per_bit=16).resampled(15.5 * BIT_RATE)
    batch = WaveformBatch.stack([add_awgn(base, 5e-3, seed=s)
                                 for s in range(3)])
    batched = measure_eye_batch(batch, BIT_RATE, skip_ui=8)
    for row, measurement in zip(batch.rows(), batched):
        assert measurement == oracle.eye_diagram(row, BIT_RATE,
                                                 skip_ui=8).measure()
    assert all(m.eye_height > 0 for m in batched)


def test_ber_from_eye_batch_matches_serial():
    base = bits_to_nrz(prbs7(60), BIT_RATE, amplitude=0.3,
                       samples_per_bit=16)
    batch = WaveformBatch.stack([add_awgn(base, 10e-3, seed=s)
                                 for s in range(3)])
    batched = ber_from_eye_batch(batch, BIT_RATE)
    for row, ber in zip(batch.rows(), batched):
        assert ber == pytest.approx(oracle.ber_from_eye(row, BIT_RATE),
                                    rel=1e-12)


def test_pulse_response_batch_matches_serial():
    system = Pipeline([LinearBlock(pole_zero_tf([7e9], [2e9])),
                       TanhLimiter(gain=2.0, limit=0.3)])
    amplitudes = (0.05, 0.2, 0.8)
    batched = pulse_response_batch(system, BIT_RATE, amplitudes,
                                   samples_per_bit=16)
    for amplitude, response in zip(amplitudes, batched):
        serial = oracle.pulse_response(system, BIT_RATE,
                                       samples_per_bit=16,
                                       amplitude=amplitude)
        assert response.cursor_index == serial.cursor_index
        np.testing.assert_array_equal(response.cursors, serial.cursors)


# -- per-row interpolated sampling --------------------------------------------

def test_batch_sample_at_per_row_instants_match_serial():
    rng = np.random.default_rng(9)
    batch = WaveformBatch(rng.normal(size=(5, 64)), 16e9, t0=1e-10)
    times = batch.t0 + rng.uniform(0, 60 / 16e9, size=5)
    sampled = batch.sample_at(times)
    assert sampled.shape == (5,)
    for i in range(5):
        assert sampled[i] == float(batch[i].sample_at(times[i]))


def test_batch_sample_at_shared_scalar_and_2d_instants():
    rng = np.random.default_rng(10)
    batch = WaveformBatch(rng.normal(size=(4, 32)), 1.0)
    shared = batch.sample_at(7.25)
    assert shared.shape == (4,)
    grid = rng.uniform(0, 30, size=(4, 6))
    sampled = batch.sample_at(grid)
    assert sampled.shape == (4, 6)
    for i in range(4):
        np.testing.assert_array_equal(sampled[i],
                                      batch[i].sample_at(grid[i]))


def test_batch_sample_at_rejects_mismatched_instant_rows():
    batch = WaveformBatch(np.zeros((4, 16)), 1.0)
    with pytest.raises(ValueError):
        batch.sample_at(np.zeros(3))
    with pytest.raises(ValueError):
        batch.sample_at(np.zeros((5, 2)))


# -- batched DFE --------------------------------------------------------------

@given(n_taps=st.integers(min_value=1, max_value=4),
       ui_samples=st.sampled_from((8.0, 10.25, 12.5, 16.0)),
       extra_samples=st.integers(min_value=0, max_value=13),
       n_rows=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_dfe_equalize_batch_property_row_exact(n_taps, ui_samples,
                                               extra_samples, n_rows, seed):
    """The batched DFE dispatch is row-exact against the scalar
    reference loop across tap counts, non-integer samples-per-UI and
    mixed scenario lengths."""
    from repro.baselines import DecisionFeedbackEqualizer
    from serial_oracles import SerialDfe

    rng = np.random.default_rng(seed)
    sample_rate = ui_samples * BIT_RATE
    n_samples = int(20 * ui_samples) + extra_samples
    batch = WaveformBatch(rng.standard_normal((n_rows, n_samples)),
                          sample_rate)
    dfe = DecisionFeedbackEqualizer(
        taps=0.1 * rng.standard_normal(n_taps) + 0.05,
        bit_rate=BIT_RATE,
        sample_phase_ui=float(rng.uniform(0.2, 0.8)),
    )
    decisions, corrected = dfe.equalize(batch)
    heights = dfe.inner_eye_height(batch, skip_bits=4)
    for i, row in enumerate(batch.rows()):
        ref_decisions, ref_corrected = SerialDfe(dfe).equalize(row)
        np.testing.assert_array_equal(decisions[i], ref_decisions)
        np.testing.assert_array_equal(corrected[i], ref_corrected)
        assert heights[i] == SerialDfe(dfe).inner_eye_height(row,
                                                             skip_bits=4)


def test_dfe_measure_pair_rows_match():
    from repro.baselines import DecisionFeedbackEqualizer
    from repro.sweep import dfe_measure
    from serial_oracles import SerialDfe

    dfe = DecisionFeedbackEqualizer(taps=[0.04, 0.01], bit_rate=BIT_RATE)
    base = bits_to_nrz(prbs7(60), BIT_RATE, amplitude=0.4,
                       samples_per_bit=16)
    batch = WaveformBatch.stack([add_awgn(base, 5e-3, seed=s)
                                 for s in range(3)])
    oracle = SerialDfe(dfe)
    params = [{"seed": s} for s in range(3)]
    batched = dfe_measure(dfe)(batch, params)
    assert batched == [oracle.inner_eye_height(row, skip_bits=16)
                       for row in batch.rows()]

    reducer = lambda result, p: int(result[0].sum())
    batched = dfe_measure(dfe, reduce=reducer)(batch, params)
    assert batched == [reducer(oracle.equalize(row), p)
                       for row, p in zip(batch.rows(), params)]


# -- batched crossing extraction and adaptation metric ------------------------

def noisy_eye_batch(n_rows=5, rms=8e-3):
    base = bits_to_nrz(prbs7(80), BIT_RATE, amplitude=0.3,
                       samples_per_bit=16)
    return WaveformBatch.stack([add_awgn(base, rms, seed=s)
                                for s in range(n_rows)])


def test_batch_crossing_extraction_rows_match_serial():
    from repro.analysis import EyeDiagramBatch

    batch = noisy_eye_batch()
    batched = EyeDiagramBatch(batch, BIT_RATE)
    per_row = batched.crossing_times_ui()
    rms = batched.jitter_rms_ui()
    pp = batched.jitter_pp_ui()
    width = batched.eye_width_ui()
    for i, row in enumerate(batch.rows()):
        serial = oracle.eye_diagram(row, BIT_RATE)
        np.testing.assert_array_equal(per_row[i],
                                      serial.crossing_times_ui())
        assert rms[i] == serial.jitter_rms_ui()
        assert pp[i] == serial.jitter_pp_ui()
        assert width[i] == serial.eye_width_ui()


def test_batch_crossing_extraction_handles_crossing_free_rows():
    from repro.analysis import EyeDiagramBatch

    base = bits_to_nrz(prbs7(40), BIT_RATE, amplitude=0.3,
                       samples_per_bit=16)
    flat = Waveform(np.full(len(base), 0.1), base.sample_rate)
    batch = WaveformBatch.stack([base, flat])
    per_row = EyeDiagramBatch(batch, BIT_RATE).crossing_times_ui()
    assert per_row[0].size > 0
    assert per_row[1].size == 0
    assert EyeDiagramBatch(batch, BIT_RATE).jitter_pp_ui()[1] == 0.0


def test_eye_quality_metric_batch_rows_match_serial():
    from repro.channel import BackplaneChannel
    from repro.core import eye_quality_metric_batch

    base = bits_to_nrz(prbs7(120), BIT_RATE, amplitude=0.3,
                       samples_per_bit=16)
    rows = [
        base,                                        # clean, open
        BackplaneChannel(0.6).process(base),         # degraded
        Waveform(np.zeros(len(base)), base.sample_rate),  # unmeasurable
        add_awgn(base, 0.02, seed=7),                # noisy
    ]
    batch = WaveformBatch.stack(rows)
    metrics = eye_quality_metric_batch(batch, BIT_RATE)
    assert metrics.shape == (4,)
    for i, row in enumerate(rows):
        assert metrics[i] == oracle.eye_quality_metric(row, BIT_RATE)
