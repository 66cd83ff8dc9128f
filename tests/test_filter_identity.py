"""The filter loop of ``repro.lti.discretize`` against ``scipy.signal``.

``discretize`` runs scipy's compiled direct-form loop without importing
the ``scipy.signal`` package, repeats ``lfilter``'s dispatch and ports
``lfilter_zi``.  Every filtered sample and every initial state must
equal what ``scipy.signal.lfilter`` and ``lfilter_zi`` give, bit for bit
(``np.array_equal``): on random stable transfer functions of order 0-4,
on every coefficient set the paper's input and output interfaces build,
and on the two warm-up fallbacks (an s=0 pole, a pure gain).  This is
the only module that imports ``scipy.signal``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter, lfilter_zi

from repro import bits_to_nrz, build_input_interface, build_output_interface
from repro import prbs7
from repro.lti import RationalTF, bilinear_transform, simulate_tf
from repro.lti import discretize

BIT_RATE = 10e9


def reference_steady_state(b, a, data, x0, tf, sample_rate):
    """The steady-state filter written with ``scipy.signal``."""
    try:
        zi_unit = lfilter_zi(b, a)
    except (ValueError, np.linalg.LinAlgError):
        n_warm = discretize._settle_samples(tf, sample_rate)
        warm = np.broadcast_to(x0[..., np.newaxis],
                               data.shape[:-1] + (n_warm,))
        y_all = lfilter(b, a, np.concatenate([warm, data], axis=-1),
                        axis=-1)
        return y_all[..., n_warm:]
    y, _ = lfilter(b, a, data, axis=-1, zi=zi_unit * x0[..., np.newaxis])
    return y


def assert_matches_scipy(b, a, data, x0, tf, sample_rate):
    """Initial state, plain filter and steady-state filter, bit for bit.

    Returns whether scipy's ``lfilter_zi`` rejected the filter (so the
    warm-up fallback ran).
    """
    try:
        want_zi = lfilter_zi(b, a)
    except (ValueError, np.linalg.LinAlgError) as exc:
        with pytest.raises(type(exc)) as raised:
            discretize._lfilter_zi(b, a)
        assert type(raised.value) is type(exc)
        degenerate = True
    else:
        assert np.array_equal(discretize._lfilter_zi(b, a), want_zi)
        degenerate = False
    assert np.array_equal(discretize._lfilter(b, a, data),
                          lfilter(b, a, data))
    got = discretize._steady_state_lfilter(b, a, data, x0, tf, sample_rate)
    assert np.array_equal(
        got, reference_steady_state(b, a, data, x0, tf, sample_rate))
    return degenerate


@st.composite
def stable_tfs(draw):
    """A stable rational ``H(s)`` of order 0-4 with real coefficients:
    real and complex-pair poles in the left half plane, up to as many
    zeros (either half plane) and a gain."""
    omega = st.floats(2 * math.pi * 1e8, 2 * math.pi * 6e10)
    n_pairs = draw(st.integers(0, 2))
    n_real = draw(st.integers(0, 4 - 2 * n_pairs))
    poles = [-draw(omega) for _ in range(n_real)]
    for _ in range(n_pairs):
        sigma, wd = draw(omega), draw(omega)
        poles += [complex(-sigma, wd), complex(-sigma, -wd)]
    n_zeros = draw(st.integers(0, len(poles)))
    zeros = [draw(omega) * draw(st.sampled_from((-1.0, 1.0)))
             for _ in range(n_zeros)]
    gain = draw(st.floats(1e-2, 1e2))
    return RationalTF.from_poles_zeros(zeros, poles, gain)


@settings(deadline=None)
@given(tf=stable_tfs(),
       samples_per_bit=st.sampled_from((4, 8, 16, 32)),
       rows=st.sampled_from((None, 1, 3)),
       n_samples=st.integers(1, 200),
       start=st.sampled_from(("first", "scalar", "rows")),
       seed=st.integers(0, 2**32 - 1))
def test_random_stable_filters_match_scipy(tf, samples_per_bit, rows,
                                           n_samples, start, seed):
    sample_rate = BIT_RATE * samples_per_bit
    rng = np.random.default_rng(seed)
    shape = (n_samples,) if rows is None else (rows, n_samples)
    data = rng.normal(scale=0.2, size=shape)
    b, a = bilinear_transform(tf, sample_rate)
    if start == "first":
        x0 = np.asarray(data[..., 0])
    elif start == "scalar":
        x0 = np.broadcast_to(rng.normal(), shape[:-1])
    else:
        x0 = np.broadcast_to(rng.normal(size=shape[:-1]), shape[:-1])
    degenerate = assert_matches_scipy(b, a, data, x0, tf, sample_rate)
    assert degenerate == (tf.order == 0)


@pytest.mark.parametrize("samples_per_bit", [8, 16, 32])
def test_interface_coefficient_sets_match_scipy(monkeypatch,
                                                samples_per_bit):
    """Every filter the paper's rx and tx interfaces run, recorded at
    the point ``simulate_tf`` hands it to the loop."""
    calls = []
    real = discretize._steady_state_lfilter

    def record(b, a, data, x0, tf, sample_rate):
        calls.append((b, a, data.copy(), np.array(x0), tf, sample_rate))
        return real(b, a, data, x0, tf, sample_rate)

    monkeypatch.setattr(discretize, "_steady_state_lfilter", record)
    wave = bits_to_nrz(prbs7(60), BIT_RATE, amplitude=0.25,
                       samples_per_bit=samples_per_bit)
    build_output_interface().process(wave)
    n_tx = len(calls)
    build_input_interface().process(wave)
    assert n_tx >= 4 and len(calls) - n_tx >= 6
    monkeypatch.undo()
    for b, a, data, x0, tf, sample_rate in calls:
        assert sample_rate == BIT_RATE * samples_per_bit
        assert not assert_matches_scipy(b, a, data, x0, tf, sample_rate)


@pytest.mark.parametrize("tf, singular", [
    (RationalTF.integrator(gain=2e9), True),
    # Rounding in the bilinear expansion leaves the z=1 pole a hair
    # off, so whether the solve is singular is up to LAPACK.
    (RationalTF.integrator(gain=2e9).cascade(
        RationalTF.from_poles_zeros([], [-2 * math.pi * 5e9])), None),
], ids=["integrator", "integrator-lowpass"])
def test_s0_pole_fallback_matches_scipy(tf, singular):
    """A pole at s=0 lands on z=1: ``lfilter_zi`` is singular and the
    filter warms up instead, on 1-D and 2-D data."""
    sample_rate = 16 * BIT_RATE
    b, a = bilinear_transform(tf, sample_rate)
    rng = np.random.default_rng(3)
    for data, x0 in [(rng.normal(size=90), np.asarray(0.25)),
                     (rng.normal(size=(3, 90)), np.array([0.0, 1.0, -2.0]))]:
        degenerate = assert_matches_scipy(b, a, data, x0, tf, sample_rate)
        assert singular is None or degenerate == singular
        assert np.array_equal(
            simulate_tf(tf, data, sample_rate, initial_value=x0),
            reference_steady_state(b, a, data, x0, tf, sample_rate))
    if singular:
        with pytest.raises(np.linalg.LinAlgError):
            discretize._lfilter_zi(b, a)


def test_order0_fallback_matches_scipy():
    """A pure gain has a one-coefficient denominator: no state, and
    scipy's convolution path instead of the compiled loop."""
    tf = RationalTF.constant(-2.5)
    sample_rate = 8 * BIT_RATE
    b, a = bilinear_transform(tf, sample_rate)
    assert len(a) == 1
    with pytest.raises(ValueError):
        discretize._lfilter_zi(b, a)
    rng = np.random.default_rng(4)
    for data, x0 in [(rng.normal(size=50), np.asarray(1.0)),
                     (rng.normal(size=(4, 50)), rng.normal(size=4))]:
        assert assert_matches_scipy(b, a, data, x0, tf, sample_rate)
        assert np.array_equal(simulate_tf(tf, data, sample_rate),
                              lfilter(b, a, data))
