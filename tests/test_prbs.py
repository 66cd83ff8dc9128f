"""PRBS generator structure: period, balance, run lengths."""

import numpy as np
import pytest

from repro.signals import PrbsGenerator, prbs7


def run_length_histogram(bits):
    """Run length -> number of runs of that length in ``bits``."""
    edges = np.flatnonzero(np.diff(bits) != 0) + 1
    lengths = np.diff(np.concatenate(([0], edges, [len(bits)])))
    return {int(n): int(c) for n, c in zip(*np.unique(lengths,
                                                      return_counts=True))}


def test_prbs7_period_is_127():
    gen = PrbsGenerator(order=7)
    assert gen.period == 127
    seq = gen.full_period()
    assert len(seq) == 127


def test_prbs7_repeats_exactly():
    gen = PrbsGenerator(order=7)
    first = gen.bits(127)
    second = gen.bits(127)
    np.testing.assert_array_equal(first, second)


def test_prbs7_is_balanced():
    # A maximal-length sequence has 2^(n-1) ones and 2^(n-1)-1 zeros.
    seq = prbs7(127)
    assert int(seq.sum()) == 64
    assert int((1 - seq).sum()) == 63


def test_prbs7_max_run_length_is_order():
    seq = prbs7(127 * 2)
    histogram = run_length_histogram(seq)
    assert max(histogram) == 7


def test_prbs9_is_maximal_length():
    seq = PrbsGenerator(order=9).bits(511)
    assert int(seq.sum()) == 256
    histogram = run_length_histogram(np.tile(seq, 2))
    assert max(histogram) == 9


def test_prbs15_period_spot_check():
    gen = PrbsGenerator(order=15)
    assert gen.period == 32767
    # Balance over one full period.
    seq = gen.full_period()
    assert int(seq.sum()) == 16384


def test_all_seeds_give_shifted_sequences():
    a = prbs7(127, seed=1)
    b = prbs7(127, seed=5)
    # Same cycle, different phase: some rotation of b equals a.
    rotations = [np.roll(b, k) for k in range(127)]
    assert any(np.array_equal(a, rot) for rot in rotations)


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        PrbsGenerator(order=8)


def test_zero_seed_rejected():
    with pytest.raises(ValueError):
        PrbsGenerator(order=7, seed=0)
    with pytest.raises(ValueError):
        PrbsGenerator(order=7, seed=128)  # == 0 mod 2^7


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        prbs7(-1)


def test_prbs7_run_length_distribution():
    # One period contains exactly one run of length 7 and one of 6.
    seq = prbs7(127)
    # Wrap-aware: analyze the doubled sequence minus edge effects by
    # rotating so the sequence starts right after the longest run.
    histogram = run_length_histogram(seq)
    assert histogram.get(7, 0) >= 1
