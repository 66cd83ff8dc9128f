"""NRZ line coding: levels, rise time, jitter hooks."""

import numpy as np
import pytest

from repro.signals import NrzEncoder, bits_to_nrz


def test_levels_map_to_half_amplitude():
    w = bits_to_nrz(np.array([1, 1, 0, 0]), 10e9, amplitude=0.2,
                    rise_time=0.0)
    assert w.data.max() == pytest.approx(0.1)
    assert w.data.min() == pytest.approx(-0.1)
    assert w.peak_to_peak() == pytest.approx(0.2)


def test_sample_rate_and_length():
    enc = NrzEncoder(bit_rate=10e9, samples_per_bit=32)
    w = enc.encode(np.array([0, 1, 0]))
    assert w.sample_rate == pytest.approx(320e9)
    assert len(w) == 96


def test_default_rise_time_is_15_percent_ui():
    enc = NrzEncoder(bit_rate=10e9)
    assert enc.rise_time == pytest.approx(15e-12)


def test_rise_time_measured_20_80():
    enc = NrzEncoder(bit_rate=1e9, samples_per_bit=256, amplitude=1.0,
                     rise_time=200e-12)
    w = enc.encode(np.array([0, 1, 1, 1]))
    data = w.data
    # Measure the 20-80% crossing around the single rising edge.
    t20 = np.flatnonzero(data > -0.5 + 0.2)[0]
    t80 = np.flatnonzero(data > -0.5 + 0.8)[0]
    measured = (t80 - t20) / w.sample_rate
    assert measured == pytest.approx(200e-12, rel=0.1)


def test_square_edges_when_rise_time_zero():
    w = bits_to_nrz(np.array([0, 1]), 1e9, rise_time=0.0, samples_per_bit=8)
    unique = np.unique(w.data)
    np.testing.assert_allclose(unique, [-0.5, 0.5])


def test_edge_offsets_shift_transitions():
    enc = NrzEncoder(bit_rate=1e9, samples_per_bit=64, rise_time=0.0)
    bits = np.array([0, 1, 0, 1])
    nominal = enc.encode(bits)
    offsets = np.array([0.0, 0.25e-9, 0.0, 0.0])  # delay the first edge
    late = enc.encode(bits, edge_offsets=offsets)
    # First transition occurs 16 samples later.
    first_nominal = np.flatnonzero(np.diff(nominal.data) > 0)[0]
    first_late = np.flatnonzero(np.diff(late.data) > 0)[0]
    assert first_late - first_nominal == 16


def test_edge_offsets_length_mismatch_rejected():
    enc = NrzEncoder(bit_rate=1e9)
    with pytest.raises(ValueError):
        enc.encode(np.array([0, 1]), edge_offsets=np.array([0.0]))


def test_rejects_non_binary_bits():
    with pytest.raises(ValueError):
        bits_to_nrz(np.array([0, 2]), 1e9)


def test_rejects_empty_bits():
    with pytest.raises(ValueError):
        bits_to_nrz(np.array([]), 1e9)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        NrzEncoder(bit_rate=0.0)
    with pytest.raises(ValueError):
        NrzEncoder(bit_rate=1e9, samples_per_bit=1)
    with pytest.raises(ValueError):
        NrzEncoder(bit_rate=1e9, rise_time=-1e-12)


def test_rejects_non_positive_amplitude():
    with pytest.raises(ValueError, match="amplitude must be positive, "
                                         "got 0.0"):
        NrzEncoder(bit_rate=1e9, amplitude=0.0)
    with pytest.raises(ValueError, match="amplitude must be positive, "
                                         "got -0.2"):
        NrzEncoder(bit_rate=1e9, amplitude=-0.2)


def test_dc_balance_of_alternating():
    # Ideal-edge NRZ quantizes edges to the sample grid, so the residual
    # DC is bounded by one sample per edge, not exactly zero.
    w = bits_to_nrz(np.tile([0, 1], 50), 10e9, rise_time=0.0)
    assert abs(w.mean()) < 2e-3


def test_ideal_edges_land_on_bit_boundaries():
    # rise_time=0 routes through the searchsorted ideal-edge path: at a
    # dyadic bit rate every sample inside bit k holds exactly that
    # bit's level.
    bits = np.array([0, 1, 1, 0, 1])
    w = bits_to_nrz(bits, 2.0, amplitude=0.4, rise_time=0.0,
                    samples_per_bit=8)
    expected = np.repeat((bits - 0.5) * 0.4, 8)
    np.testing.assert_array_equal(w.data, expected)


def test_ideal_edges_respect_edge_offsets_exactly():
    enc = NrzEncoder(bit_rate=2.0, samples_per_bit=16, rise_time=0.0)
    bits = np.array([0, 1, 0])
    # Advance the second edge by a quarter UI: the transition lands
    # 4 samples early, still perfectly square.
    offsets = np.array([0.0, -0.125, 0.0])
    w = enc.encode(bits, edge_offsets=offsets)
    assert np.all(np.isin(w.data, [-0.5, 0.5]))
    first_rise = np.flatnonzero(np.diff(w.data) > 0)[0]
    assert first_rise == 16 - 4 - 1
