"""Rational transfer-function algebra and frequency-domain metrics."""

import math

import numpy as np
import pytest

from repro.lti import (
    RationalTF,
    first_order_lowpass,
    pole_zero_tf,
)


def test_constant_tf():
    tf = RationalTF.constant(5.0)
    assert tf.dc_gain() == pytest.approx(5.0)
    assert tf.order == 0
    np.testing.assert_allclose(np.abs(tf.response(np.array([1e9]))), 5.0)


def test_denominator_zero_rejected():
    with pytest.raises(ValueError):
        RationalTF(np.array([1.0]), np.array([0.0]))


def test_normalization_makes_den_monic():
    tf = RationalTF(np.array([2.0]), np.array([4.0, 8.0]))
    assert tf.den[0] == pytest.approx(1.0)
    assert tf.dc_gain() == pytest.approx(0.25)


def test_first_order_lowpass_3db_point():
    tf = first_order_lowpass(1e9, gain=10.0)
    assert tf.dc_gain() == pytest.approx(10.0)
    assert tf.bandwidth_3db() == pytest.approx(1e9, rel=1e-3)
    mag = abs(tf.response(np.array([1e9]))[0])
    assert mag == pytest.approx(10.0 / math.sqrt(2.0), rel=1e-6)


def test_cascade_multiplies_gain_and_shrinks_bandwidth():
    one = first_order_lowpass(1e9, gain=2.0)
    two = one.cascade(one)
    assert two.dc_gain() == pytest.approx(4.0)
    # Two identical poles: BW shrinks by sqrt(sqrt(2)-1) ~ 0.644.
    assert two.bandwidth_3db() == pytest.approx(0.6436e9, rel=1e-2)


def test_parallel_adds_responses():
    a = RationalTF.constant(1.0)
    b = RationalTF.constant(2.0)
    assert (a + b).dc_gain() == pytest.approx(3.0)
    assert (b - a).dc_gain() == pytest.approx(1.0)


def test_unity_feedback_divides_gain():
    tf = RationalTF.constant(9.0).feedback()
    assert tf.dc_gain() == pytest.approx(0.9)


def test_feedback_with_loop_tf():
    forward = first_order_lowpass(1e9, gain=100.0)
    loop = RationalTF.constant(0.01)
    closed = forward.feedback(loop)
    assert closed.dc_gain() == pytest.approx(50.0)
    # Feedback extends bandwidth by (1 + T) for a single pole.
    assert closed.bandwidth_3db() == pytest.approx(2e9, rel=1e-2)


def test_inverse():
    tf = RationalTF.constant(4.0)
    assert tf.inverse().dc_gain() == pytest.approx(0.25)
    with pytest.raises(ValueError):
        RationalTF(np.array([0.0]), np.array([1.0])).inverse()


def test_poles_zeros_roundtrip():
    poles = [-1e9, -2e9]
    zeros = [-5e8]
    tf = RationalTF.from_poles_zeros(zeros, poles, gain=3.0)
    np.testing.assert_allclose(sorted(tf.poles().real), sorted(poles))
    np.testing.assert_allclose(tf.zeros().real, zeros)


def test_from_poles_zeros_rejects_unpaired_complex():
    with pytest.raises(ValueError):
        RationalTF.from_poles_zeros([], [-1e9 + 1e9j], gain=1.0)


def test_complex_pair_is_accepted():
    tf = RationalTF.from_poles_zeros([], [-1e9 + 2e9j, -1e9 - 2e9j])
    assert tf.is_stable()
    assert tf.order == 2


def test_stability_detection():
    assert first_order_lowpass(1e9).is_stable()
    unstable = RationalTF(np.array([1.0]), np.array([1.0, -1.0]))
    assert not unstable.is_stable()


def test_dc_gain_with_pole_at_origin_raises():
    with pytest.raises(ZeroDivisionError):
        RationalTF.integrator().dc_gain()


def resonant_lowpass(natural_hz, q):
    """``wn^2 / (s^2 + wn/Q s + wn^2)``."""
    wn = 2.0 * np.pi * natural_hz
    return RationalTF(np.array([wn**2]), np.array([1.0, wn / q, wn**2]))


def test_second_order_lowpass_peaking():
    # Q = 2 peaks by ~6.3 dB; Q = 0.5 (critically damped) doesn't peak.
    peaked = resonant_lowpass(5e9, q=2.0)
    flat = resonant_lowpass(5e9, q=0.5)
    assert peaked.peaking_db() == pytest.approx(6.3, abs=0.3)
    assert flat.peaking_db() == pytest.approx(0.0, abs=0.01)


def test_second_order_butterworth_bandwidth():
    # Q = 0.707 gives -3 dB exactly at the natural frequency.
    tf = resonant_lowpass(5e9, q=1.0 / math.sqrt(2.0))
    assert tf.bandwidth_3db() == pytest.approx(5e9, rel=1e-2)


def test_pole_zero_tf_dc_gain_independent_of_placement():
    tf = pole_zero_tf([1e9, 3e9], [5e8], gain=7.0)
    assert tf.dc_gain() == pytest.approx(7.0)


def test_pole_zero_tf_zero_boosts_high_frequency():
    tf = pole_zero_tf([20e9], [1e9], gain=1.0)
    mag = np.abs(tf.response(np.array([5e9])))[0]
    assert mag > 3.0  # well above DC gain


def test_pole_zero_tf_rejects_nonpositive():
    with pytest.raises(ValueError):
        pole_zero_tf([-1e9])
    with pytest.raises(ValueError):
        pole_zero_tf([1e9], [0.0])


def test_bandwidth_returns_inf_for_allpass():
    tf = RationalTF.constant(2.0)
    assert math.isinf(tf.bandwidth_3db())


def test_group_delay_of_lowpass():
    # Single pole: group delay at DC = 1/wp.
    tf = first_order_lowpass(1e9)
    freqs = np.linspace(1e6, 1e8, 50)
    gd = tf.group_delay(freqs)
    assert gd[0] == pytest.approx(1.0 / (2 * np.pi * 1e9), rel=0.01)


def test_phase_of_lowpass_at_pole():
    tf = first_order_lowpass(1e9)
    phase = tf.phase_deg(np.array([1e6, 1e9]))
    assert phase[1] == pytest.approx(-45.0, abs=1.0)


def test_magnitude_db():
    tf = RationalTF.constant(10.0)
    np.testing.assert_allclose(tf.magnitude_db(np.array([1e9])), 20.0)


def test_scaled():
    tf = first_order_lowpass(1e9, gain=2.0).scaled(3.0)
    assert tf.dc_gain() == pytest.approx(6.0)
