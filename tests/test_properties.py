"""Property-based tests (hypothesis) on core data structures and
invariants: LTI algebra, waveform operations, PRBS structure, eye
measurement bounds, device monotonicities.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.analysis import q_to_ber
from repro.core import node_impedance, ResistiveLoad
from repro.core.cml_buffer import apply_active_feedback
from repro.devices import nmos
from repro.analysis.isi import PulseResponse
from repro.lti import (
    LinearBlock,
    Pipeline,
    RationalTF,
    bilinear_transform,
    first_order_lowpass,
    pole_zero_tf,
    simulate_tf,
)
from repro.signals import Nrz, Pam4, PrbsGenerator, Waveform, bits_to_nrz
from repro.stateye import StatEye
from toy_blocks import GainBlock


# -- strategies ---------------------------------------------------------------

pole_freqs = st.floats(min_value=1e8, max_value=5e10)
gains = st.floats(min_value=0.01, max_value=1e4)
q_values = st.floats(min_value=0.2, max_value=5.0)


@st.composite
def stable_tfs(draw):
    """Random stable low-order transfer functions."""
    kind = draw(st.integers(min_value=0, max_value=2))
    gain = draw(gains)
    if kind == 0:
        return RationalTF.constant(gain)
    if kind == 1:
        return first_order_lowpass(draw(pole_freqs), gain=gain)
    wn = 2.0 * np.pi * draw(pole_freqs)
    return RationalTF(np.array([gain * wn**2]),
                      np.array([1.0, wn / draw(q_values), wn**2]))


# -- LTI algebra ----------------------------------------------------------------

@given(stable_tfs(), stable_tfs())
@settings(max_examples=40, deadline=None)
def test_cascade_dc_gain_multiplies(a, b):
    assert a.cascade(b).dc_gain() == pytest.approx(
        a.dc_gain() * b.dc_gain(), rel=1e-6
    )


@given(stable_tfs(), stable_tfs())
@settings(max_examples=40, deadline=None)
def test_cascade_is_commutative_in_response(a, b):
    freqs = np.array([1e8, 1e9, 1e10])
    left = a.cascade(b).response(freqs)
    right = b.cascade(a).response(freqs)
    np.testing.assert_allclose(left, right, rtol=1e-6)


@given(stable_tfs(), stable_tfs())
@settings(max_examples=40, deadline=None)
def test_parallel_dc_gain_adds(a, b):
    assert a.parallel(b).dc_gain() == pytest.approx(
        a.dc_gain() + b.dc_gain(), rel=1e-6, abs=1e-12
    )


@given(stable_tfs())
@settings(max_examples=40, deadline=None)
def test_stable_tfs_report_stable(tf):
    assert tf.is_stable()


@given(stable_tfs())
@settings(max_examples=30, deadline=None)
def test_bandwidth_at_most_where_gain_drops(tf):
    bw = tf.bandwidth_3db()
    if math.isinf(bw):
        return
    target = abs(tf.dc_gain()) / math.sqrt(2.0)
    just_above = abs(tf.response(np.array([bw * 1.05]))[0])
    # Slight peaking can raise the response locally, but well past the
    # measured -3 dB point the response must have fallen below target.
    far_above = abs(tf.response(np.array([bw * 4.0]))[0])
    assert just_above < target * 1.25
    assert far_above < target * 1.05


@given(stable_tfs(), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=40, deadline=None)
def test_feedback_reduces_dc_gain_by_loop_factor(tf, loop):
    closed = apply_active_feedback(tf, loop, restore_gain=False)
    assert closed.dc_gain() == pytest.approx(
        tf.dc_gain() / (1 + loop), rel=1e-6
    )


@given(stable_tfs())
@settings(max_examples=30, deadline=None)
def test_bilinear_preserves_dc_gain(tf):
    b, a = bilinear_transform(tf, 320e9)
    assert np.sum(b) / np.sum(a) == pytest.approx(tf.dc_gain(), rel=1e-6)




@given(st.floats(min_value=1e8, max_value=2e10),
       st.floats(min_value=1e8, max_value=2e10), gains)
@settings(max_examples=40, deadline=None)
def test_pole_zero_tf_dc_gain_invariant(fp, fz, gain):
    tf = pole_zero_tf([fp], [fz], gain=gain)
    assert tf.dc_gain() == pytest.approx(gain, rel=1e-9)


# -- LTI blocks ----------------------------------------------------------------

LTI_FS = 320e9


@st.composite
def linear_blocks(draw):
    """A random linear ``repro.lti`` block and the transfer function it
    should realize (a pipeline's is the cascade of its stages')."""
    stages = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            stages.append(LinearBlock(draw(stable_tfs())))
        else:
            stages.append(GainBlock(draw(st.floats(min_value=-50.0,
                                                   max_value=50.0))))
    tf = stages[0].transfer_function()
    for stage in stages[1:]:
        tf = tf.cascade(stage.transfer_function())
    block = stages[0] if len(stages) == 1 else Pipeline(stages)
    return block, tf


def _block_path(block):
    return lambda data: block.process(Waveform(data, LTI_FS)).data


#: ``(run, tf)``: a way to filter samples through ``tf`` — bare
#: ``simulate_tf`` or a (possibly pipelined) block.
lti_paths = st.one_of(
    stable_tfs().map(
        lambda tf: (lambda data: simulate_tf(tf, data, LTI_FS), tf)),
    linear_blocks().map(lambda pair: (_block_path(pair[0]), pair[1])),
)


@given(lti_paths, st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=50, deadline=None)
def test_constant_input_settles_to_dc_gain(path, level):
    run, tf = path
    out = run(np.full(256, level))
    assert out[-1] == pytest.approx(tf.dc_gain() * level,
                                    rel=1e-3, abs=1e-9)


signals = st.lists(st.floats(min_value=-1.0, max_value=1.0),
                   min_size=64, max_size=64).map(np.array)
scales = st.floats(min_value=-3.0, max_value=3.0)


@given(st.one_of(lti_paths.map(lambda path: path[0]),
                 st.floats(min_value=0.0, max_value=20.0).map(
                     lambda samples: lambda data: Waveform(
                         data, LTI_FS).delayed(samples / LTI_FS).data)),
       signals, signals, scales, scales)
@settings(max_examples=60, deadline=None)
@example(run=_block_path(GainBlock(5e-324)), x=np.ones(64), y=np.ones(64),
         a=0.5, b=0.5)
def test_lti_blocks_are_linear(run, x, y, a, b):
    lhs = run(a * x + b * y)
    rhs = a * run(x) + b * run(y)
    scale = np.max(np.abs(a * run(x))) + np.max(np.abs(b * run(y)))
    # Subnormal outputs round in absolute steps of 5e-324, which a
    # relative tolerance cannot cover: floor it at the smallest normal.
    tolerance = max(1e-9 * scale, np.finfo(float).tiny)
    assert np.max(np.abs(lhs - rhs)) <= tolerance


# -- statistical-eye ISI distribution -------------------------------------------

ISI_PHASES = 8


def staircase_pulse(main, isi, n_precursors):
    """A pulse whose every UI is flat, so each phase samples the same
    cursors: ``isi[:n_precursors]`` before the main UI, the rest after.
    One raised sample in the main UI pins the peak to the UI centre."""
    spu = ISI_PHASES
    values = [0.0, *isi[:n_precursors], main, *isi[n_precursors:], 0.0]
    data = np.repeat(np.array(values), spu)
    data[(n_precursors + 1) * spu + spu // 2] += 0.01
    return PulseResponse.from_waveform(Waveform(data, 10e9 * spu), 10e9)


@given(st.lists(st.floats(min_value=-0.2, max_value=0.2),
                min_size=7, max_size=7),
       st.floats(min_value=0.4, max_value=1.0),
       st.permutations(range(7)),
       st.sampled_from([Nrz(), Pam4()]))
@settings(max_examples=40, deadline=None)
def test_isi_pdf_conserves_mass_and_ignores_cursor_order(isi, main, order,
                                                        modulation):
    engine = StatEye(modulation=modulation, n_phases=ISI_PHASES,
                     n_voltages=257, n_precursors=2, n_postcursors=5,
                     noise_rms=1e-3)
    voltages, pdf = engine.isi_distribution(staircase_pulse(main, isi, 2))
    np.testing.assert_allclose(pdf.sum(axis=-1), 1.0, atol=1e-12)
    shuffled = [isi[i] for i in order]
    voltages_p, pdf_p = engine.isi_distribution(
        staircase_pulse(main, shuffled, 2))
    # The grid step comes from a cursor sum, so it may move by an ulp.
    np.testing.assert_allclose(voltages_p, voltages, rtol=1e-12, atol=0)
    np.testing.assert_allclose(pdf_p, pdf, atol=1e-12)


# -- waveform ------------------------------------------------------------------

finite_arrays = st.lists(
    st.floats(min_value=-10.0, max_value=10.0,
              allow_nan=False, allow_infinity=False),
    min_size=2, max_size=64,
).map(lambda values: np.array(values))


@given(finite_arrays, st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_waveform_scaling_scales_statistics(data, scale):
    wave = Waveform(data, 1e9)
    scaled = wave * scale
    assert scaled.peak_to_peak() == pytest.approx(
        wave.peak_to_peak() * scale, rel=1e-9, abs=1e-12
    )
    assert scaled.rms() == pytest.approx(wave.rms() * scale,
                                         rel=1e-9, abs=1e-12)


@given(finite_arrays)
@settings(max_examples=50, deadline=None)
def test_waveform_add_then_subtract_roundtrip(data):
    wave = Waveform(data, 1e9)
    other = Waveform(data[::-1].copy(), 1e9)
    roundtrip = (wave + other) - other
    np.testing.assert_allclose(roundtrip.data, wave.data, atol=1e-12)


@given(finite_arrays, st.integers(min_value=0, max_value=32))
@settings(max_examples=50, deadline=None)
def test_integer_delay_preserves_values(data, n):
    wave = Waveform(data, 1e9)
    delayed = wave.delayed(n / 1e9)
    if n == 0:
        np.testing.assert_allclose(delayed.data, wave.data)
    elif n < len(data):
        np.testing.assert_allclose(delayed.data[n:], wave.data[:-n],
                                   atol=1e-12)
        np.testing.assert_allclose(delayed.data[:n], wave.data[0],
                                   atol=1e-12)


@given(finite_arrays)
@settings(max_examples=30, deadline=None)
def test_delay_never_exceeds_input_range(data):
    wave = Waveform(data, 1e9)
    delayed = wave.delayed(2.5 / 1e9)
    assert delayed.data.max() <= data.max() + 1e-12
    assert delayed.data.min() >= data.min() - 1e-12


# -- PRBS ----------------------------------------------------------------------

@given(st.sampled_from([7, 9, 11, 15]),
       st.integers(min_value=1, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_prbs_period_and_balance(order, seed):
    # The generator's contract: the seed must be nonzero modulo
    # 2**order (an all-zero register never leaves the zero state).
    assume(seed & ((1 << order) - 1) != 0)
    gen = PrbsGenerator(order=order, seed=seed)
    period = gen.period
    seq = gen.bits(period)
    again = gen.bits(period)
    np.testing.assert_array_equal(seq, again)
    assert int(seq.sum()) == 2 ** (order - 1)


@given(st.integers(min_value=1, max_value=126))
@settings(max_examples=30, deadline=None)
def test_prbs_no_short_cycles(shift):
    gen = PrbsGenerator(order=7)
    seq = gen.full_period()
    assert not np.array_equal(seq, np.roll(seq, shift))


# -- eye / ber -----------------------------------------------------------------

@given(st.floats(min_value=0.0, max_value=20.0))
@settings(max_examples=50, deadline=None)
def test_ber_is_probability(q):
    ber = q_to_ber(q)
    assert 0.0 <= ber <= 0.5


@given(st.floats(min_value=0.05, max_value=1.5),
       st.integers(min_value=1, max_value=100))
@settings(max_examples=20, deadline=None)
def test_eye_amplitude_tracks_nrz_amplitude(amplitude, seed):
    from repro.analysis import EyeDiagram
    from repro.signals import prbs7

    wave = bits_to_nrz(prbs7(120, seed=seed), 10e9, amplitude=amplitude,
                       samples_per_bit=16)
    m = EyeDiagram.measure_waveform(wave, 10e9)
    assert m.eye_amplitude == pytest.approx(amplitude, rel=0.05)


# -- devices --------------------------------------------------------------------

@given(st.floats(min_value=5e-6, max_value=200e-6),
       st.floats(min_value=0.2e-3, max_value=8e-3))
@settings(max_examples=50, deadline=None)
def test_mosfet_quantities_positive_and_ft_consistent(width, current):
    device = nmos(width, 0.18e-6, current)
    assert device.gm > 0
    assert device.cgs > 0
    assert device.ft == pytest.approx(
        device.gm / (2 * math.pi * (device.cgs + device.cgd)), rel=1e-9
    )


@given(st.floats(min_value=5e-6, max_value=100e-6),
       st.floats(min_value=0.2e-3, max_value=4e-3),
       st.floats(min_value=1.1, max_value=4.0))
@settings(max_examples=50, deadline=None)
def test_mosfet_gm_monotone_in_current(width, current, factor):
    base = nmos(width, 0.18e-6, current)
    more = nmos(width, 0.18e-6, current * factor)
    assert more.gm > base.gm


@given(st.floats(min_value=50.0, max_value=2000.0),
       st.floats(min_value=1e-15, max_value=500e-15))
@settings(max_examples=50, deadline=None)
def test_node_impedance_bandwidth_decreases_with_cap(resistance, cap):
    # Keep both poles inside the bandwidth-search range (< 100 GHz).
    assume(1.0 / (2 * math.pi * resistance * cap / 2.0) < 8e10)
    load = ResistiveLoad(resistance)
    wide = node_impedance(load, cap / 2.0)
    narrow = node_impedance(load, cap)
    assert narrow.bandwidth_3db() < wide.bandwidth_3db() * 1.01
