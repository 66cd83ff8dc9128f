"""Bilinear discretization and transient simulation accuracy."""

import math

import numpy as np
import pytest

from repro.lti import (
    RationalTF,
    bilinear_transform,
    first_order_lowpass,
    pole_zero_tf,
    simulate_tf,
)


FS = 320e9  # the library's standard 32 samples/bit at 10 Gb/s


def resonant_lowpass(natural_hz, q):
    """``wn^2 / (s^2 + wn/Q s + wn^2)``."""
    wn = 2.0 * np.pi * natural_hz
    return RationalTF(np.array([wn**2]), np.array([1.0, wn / q, wn**2]))


def step_response(tf, duration, prewarp_hz=None):
    """A unit step at t=0 (zero before) through ``tf``."""
    return simulate_tf(tf, np.ones(int(round(duration * FS))), FS,
                       prewarp_hz=prewarp_hz, initial_value=0.0)


def test_constant_tf_passthrough():
    data = np.array([1.0, -2.0, 3.0])
    out = simulate_tf(RationalTF.constant(2.5), data, FS)
    np.testing.assert_allclose(out, 2.5 * data)


def test_bilinear_preserves_dc():
    tf = first_order_lowpass(2e9, gain=7.0)
    b, a = bilinear_transform(tf, FS)
    # H(z=1) = sum(b)/sum(a) equals the analog DC gain exactly.
    assert np.sum(b) / np.sum(a) == pytest.approx(7.0)


def test_bilinear_rejects_bad_rates():
    tf = first_order_lowpass(1e9)
    with pytest.raises(ValueError):
        bilinear_transform(tf, 0.0)
    with pytest.raises(ValueError):
        bilinear_transform(tf, 1e9, prewarp_hz=1e9)  # above Nyquist


def test_prewarp_matches_analog_exactly_at_frequency():
    tf = first_order_lowpass(3e9)
    fs = 20e9
    f0 = 3e9
    b, a = bilinear_transform(tf, fs, prewarp_hz=f0)
    z = np.exp(2j * np.pi * f0 / fs)
    h_digital = np.polyval(b, 1 / z) / np.polyval(a, 1 / z)
    h_analog = tf.response(np.array([f0]))[0]
    assert abs(h_digital) == pytest.approx(abs(h_analog), rel=1e-9)


def test_step_response_of_lowpass_settles_to_dc_gain():
    tf = first_order_lowpass(1e9, gain=3.0)
    y = step_response(tf, duration=5e-9)
    assert y[-1] == pytest.approx(3.0, rel=1e-3)


def test_step_response_time_constant():
    tf = first_order_lowpass(1e9)
    y = step_response(tf, duration=2e-9)
    tau = 1.0 / (2 * np.pi * 1e9)
    idx = int(round(tau * FS))
    assert y[idx] == pytest.approx(1 - math.exp(-1), rel=0.02)


def test_impulse_response_integrates_to_dc_gain():
    tf = first_order_lowpass(2e9, gain=4.0)
    impulse = np.zeros(int(round(3e-9 * FS)))
    impulse[0] = FS  # unit area
    h = simulate_tf(tf, impulse, FS, initial_value=0.0)
    assert np.sum(h) / FS == pytest.approx(4.0, rel=1e-3)


def test_sine_through_lowpass_matches_analytic_gain():
    tf = first_order_lowpass(5e9)
    f0 = 5e9
    t = np.arange(int(20 * FS / f0)) / FS
    x = np.sin(2 * np.pi * f0 * t)
    y = simulate_tf(tf, x, FS)
    steady = y[len(y) // 2:]
    assert np.max(np.abs(steady)) == pytest.approx(1 / math.sqrt(2),
                                                   rel=0.02)


def test_simulate_starts_in_steady_state():
    # A constant input should pass through a low-pass without transient.
    tf = first_order_lowpass(1e9, gain=2.0)
    out = simulate_tf(tf, np.full(64, 0.5), FS)
    np.testing.assert_allclose(out, 1.0, rtol=1e-6)


def test_simulate_initial_value_override():
    tf = first_order_lowpass(1e9, gain=1.0)
    # Pretend the line idled at 1.0 before a step to 0.
    out = simulate_tf(tf, np.zeros(3000), FS, initial_value=1.0)
    assert out[0] == pytest.approx(1.0, abs=0.05)
    assert out[-1] == pytest.approx(0.0, abs=1e-3)


def test_simulate_accepts_2d_batches():
    tf = first_order_lowpass(1e9, gain=2.0)
    rows = np.stack([np.full(64, 0.5), np.full(64, -0.25)])
    out = simulate_tf(tf, rows, FS)
    assert out.shape == rows.shape
    # Per-row steady-state initialization: each row passes its own DC.
    np.testing.assert_allclose(out[0], 1.0, rtol=1e-6)
    np.testing.assert_allclose(out[1], -0.5, rtol=1e-6)


def test_simulate_2d_rows_match_1d_runs():
    tf = resonant_lowpass(5e9, q=1.2)
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((5, 256))
    batched = simulate_tf(tf, rows, FS)
    for row_in, row_out in zip(rows, batched):
        np.testing.assert_array_equal(simulate_tf(tf, row_in, FS), row_out)


def test_simulate_rejects_3d():
    with pytest.raises(ValueError):
        simulate_tf(RationalTF.constant(1.0), np.zeros((2, 2, 2)), FS)


def test_empty_data_passthrough():
    out = simulate_tf(RationalTF.constant(1.0), np.array([]), FS)
    assert out.size == 0


def test_second_order_transient_matches_peaking():
    # A peaked TF overshoots a step; flat Q does not.
    peaked = resonant_lowpass(5e9, q=1.5)
    flat = resonant_lowpass(5e9, q=0.5)
    step = np.ones(int(FS * 2e-9))
    step[0] = 0.0
    y_peaked = simulate_tf(peaked, step, FS, initial_value=0.0)
    y_flat = simulate_tf(flat, step, FS, initial_value=0.0)
    assert y_peaked.max() > 1.05
    assert y_flat.max() < 1.01


def test_highpass_zero_differentiates_edges():
    # A TF with a zero boosts edges: output overshoots the settled value.
    tf = pole_zero_tf([8e9], [1e9], gain=1.0)
    step = np.concatenate([np.zeros(100), np.ones(4000)])
    y = simulate_tf(tf, step, FS, initial_value=0.0)
    assert y.max() > 1.5
    assert y[-1] == pytest.approx(1.0, rel=1e-2)


def test_step_response_accepts_prewarp():
    tf = first_order_lowpass(1e9, gain=3.0)
    y = step_response(tf, duration=5e-9, prewarp_hz=1e9)
    assert y[-1] == pytest.approx(3.0, rel=1e-3)


def test_responses_consistent_with_transient_for_s0_pole():
    # An integrator (pole at s=0) has a degenerate lfilter_zi; a
    # transient run that idles at zero before the edge still ramps.
    tf = RationalTF.integrator(gain=2e9)
    y_step = step_response(tf, duration=1e-9)
    # The integral of a unit step ramps at `gain`.
    t_end = (len(y_step) - 1) / FS
    assert y_step[-1] == pytest.approx(2e9 * t_end, rel=1e-2)
