"""The modulation layer: alphabets, Gray coding, slicing, encoding.

The refactor contract: a :class:`Modulation` owns the level alphabet
(normalized to a unit peak-to-peak swing), the Gray bit mapping, and the
decision thresholds; :class:`SymbolEncoder` renders any alphabet with
the analog edge model the NRZ encoder always used, and the NRZ shim is
bit-identical to the pre-refactor encoder.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ber_from_q_factors,
    q_to_ber,
)
from repro.signals import (
    Modulation,
    Nrz,
    NrzEncoder,
    Pam4,
    RandomJitter,
    SymbolEncoder,
    bits_to_nrz,
)


# ---------------------------------------------------------------------------
# The alphabet.
# ---------------------------------------------------------------------------

def test_nrz_alphabet():
    nrz = Nrz()
    assert nrz.n_levels == 2
    assert nrz.n_eyes == 1
    assert nrz.bits_per_symbol == 1
    assert nrz.levels == (-0.5, 0.5)
    assert nrz.thresholds == (0.0,)
    assert nrz.center_threshold_index == 0
    assert nrz.gray_codes == (0, 1)


def test_pam4_alphabet():
    pam4 = Pam4()
    assert pam4.n_levels == 4
    assert pam4.n_eyes == 3
    assert pam4.bits_per_symbol == 2
    # Unit peak-to-peak swing, equidistant levels.
    np.testing.assert_allclose(pam4.levels, [-0.5, -1 / 6, 1 / 6, 0.5])
    np.testing.assert_allclose(pam4.thresholds, [-1 / 3, 0.0, 1 / 3])
    # The middle eye sits exactly at zero: the CDR's edge threshold.
    assert pam4.thresholds[pam4.center_threshold_index] == 0.0
    assert pam4.gray_codes == (0, 1, 3, 2)


def test_modulation_validation():
    with pytest.raises(ValueError):
        Modulation("bad", (0.5,))            # fewer than 2 levels
    with pytest.raises(ValueError):
        Modulation("bad", (-0.5, 0.0, 0.5))  # not a power of two
    with pytest.raises(ValueError):
        Modulation("bad", (0.5, -0.5))       # not increasing
    with pytest.raises(ValueError):
        Modulation("bad", (-0.5, -0.5))      # not strictly increasing


def test_modulation_is_hashable_and_comparable():
    assert Nrz() == Nrz()
    assert Pam4() == Pam4()
    assert Nrz() != Pam4()
    assert len({Nrz(), Nrz(), Pam4()}) == 2


def test_level_and_threshold_scaling():
    pam4 = Pam4()
    np.testing.assert_allclose(pam4.level_values(0.6),
                               [-0.3, -0.1, 0.1, 0.3])
    np.testing.assert_allclose(pam4.threshold_values(0.6),
                               [-0.2, 0.0, 0.2])


# ---------------------------------------------------------------------------
# Gray coding.
# ---------------------------------------------------------------------------

def test_gray_adjacent_symbols_differ_in_one_bit():
    for mod in (Nrz(), Pam4(), Modulation("pam8", tuple(
            np.linspace(-0.5, 0.5, 8)))):
        codes = mod.gray_codes
        for a, b in zip(codes, codes[1:]):
            assert bin(a ^ b).count("1") == 1


@settings(max_examples=60, deadline=None)
@given(bits_per_symbol=st.integers(1, 6),
       n_symbols=st.integers(1, 200),
       seed=st.integers(0, 2**32 - 1))
def test_bits_symbols_roundtrip(bits_per_symbol, n_symbols, seed):
    """Gray decode inverts Gray encode on every power-of-two alphabet
    from 2 to 64 levels, for any whole number of symbols."""
    n_levels = 2 ** bits_per_symbol
    mod = Modulation(f"pam{n_levels}",
                     tuple(np.linspace(-0.5, 0.5, n_levels)))
    assert mod.bits_per_symbol == bits_per_symbol
    bits = np.random.default_rng(seed).integers(
        0, 2, n_symbols * bits_per_symbol)
    symbols = mod.bits_to_symbols(bits)
    assert len(symbols) == n_symbols
    assert symbols.min() >= 0 and symbols.max() < mod.n_levels
    np.testing.assert_array_equal(mod.symbols_to_bits(symbols), bits)


def test_pam4_gray_mapping_explicit():
    pam4 = Pam4()
    # MSB-first bit pairs → Gray-decoded level indices.
    bits = np.array([0, 0, 0, 1, 1, 1, 1, 0])
    np.testing.assert_array_equal(pam4.bits_to_symbols(bits), [0, 1, 2, 3])


def test_bits_to_symbols_validation():
    pam4 = Pam4()
    with pytest.raises(ValueError, match="empty"):
        pam4.bits_to_symbols(np.array([]))
    with pytest.raises(ValueError, match="only 0 and 1"):
        pam4.bits_to_symbols(np.array([0, 2]))
    with pytest.raises(ValueError, match="not a multiple"):
        pam4.bits_to_symbols(np.array([0, 1, 0]))
    with pytest.raises(ValueError):
        pam4.symbols_to_bits(np.array([0, 4]))


# ---------------------------------------------------------------------------
# Slicing.
# ---------------------------------------------------------------------------

def test_slice_symbols_nearest_level():
    pam4 = Pam4()
    values = np.array([-0.49, -0.2, 0.05, 0.44])
    np.testing.assert_array_equal(pam4.slice_symbols(values), [0, 1, 2, 3])
    # Scaled swing moves the thresholds with it.
    np.testing.assert_array_equal(
        pam4.slice_symbols(values * 0.25, swing=0.25), [0, 1, 2, 3])
    # NaN counts low, as in the CDR and DFE kernels.
    np.testing.assert_array_equal(
        pam4.slice_symbols([np.nan, 0.44, np.nan]), [0, 3, 0])
    np.testing.assert_array_equal(
        Nrz().slice_symbols([np.nan, 0.3]), [0, 1])


def test_nrz_slice_matches_sign_slicer():
    nrz = Nrz()
    values = np.array([-1.0, -1e-12, 0.0, 1e-12, 1.0])
    expected = (values > 0).astype(int)
    np.testing.assert_array_equal(nrz.slice_symbols(values), expected)


def test_slice_roundtrips_ideal_levels():
    for mod in (Nrz(), Pam4()):
        symbols = np.arange(mod.n_levels)
        values = np.asarray(mod.levels)[symbols] * 0.8
        np.testing.assert_array_equal(
            mod.slice_symbols(values, swing=0.8), symbols)


# ---------------------------------------------------------------------------
# SymbolEncoder.
# ---------------------------------------------------------------------------

def test_symbol_encoder_nrz_matches_nrz_encoder():
    bits = np.random.default_rng(5).integers(0, 2, 64)
    jitter = RandomJitter(2e-12, seed=9)
    offsets = jitter.offsets(len(bits), 10e9)
    for rise in (None, 0.0, 30e-12):
        old = NrzEncoder(bit_rate=10e9, samples_per_bit=16, amplitude=0.4,
                         rise_time=rise)
        new = SymbolEncoder(symbol_rate=10e9, samples_per_symbol=16,
                            amplitude=0.4, rise_time=rise)
        for offs in (None, offsets):
            a = old.encode(bits, edge_offsets=offs)
            b = new.encode(bits.astype(np.intp), edge_offsets=offs)
            np.testing.assert_array_equal(a.data, b.data)
            assert a.sample_rate == b.sample_rate


def test_symbol_encoder_pam4_levels():
    enc = SymbolEncoder(symbol_rate=5e9, modulation=Pam4(), amplitude=0.4,
                        rise_time=0.0, samples_per_symbol=8)
    w = enc.encode(np.array([0, 1, 2, 3]))
    np.testing.assert_allclose(
        np.unique(w.data), [-0.2, -0.2 / 3, 0.2 / 3, 0.2])
    assert len(w) == 32


def test_symbol_encoder_bit_rate_is_symbol_rate_times_bits():
    enc = SymbolEncoder(symbol_rate=5e9, modulation=Pam4())
    assert enc.bit_rate == pytest.approx(10e9)
    assert enc.unit_interval == pytest.approx(1 / 5e9)


def test_encode_bits_gray_maps():
    enc = SymbolEncoder(symbol_rate=5e9, modulation=Pam4(), rise_time=0.0,
                        samples_per_symbol=4, amplitude=1.0)
    w = enc.encode_bits(np.array([0, 0, 0, 1, 1, 1, 1, 0]))
    # symbols 0..3 → levels -0.5, -1/6, 1/6, 0.5
    np.testing.assert_allclose(w.data[::4], [-0.5, -1 / 6, 1 / 6, 0.5])


def test_symbol_encoder_validation():
    with pytest.raises(ValueError):
        SymbolEncoder(symbol_rate=0.0)
    with pytest.raises(ValueError):
        SymbolEncoder(symbol_rate=1e9, samples_per_symbol=1)
    with pytest.raises(ValueError):
        SymbolEncoder(symbol_rate=1e9, amplitude=0.0)
    enc = SymbolEncoder(symbol_rate=1e9, modulation=Pam4())
    with pytest.raises(ValueError, match="empty"):
        enc.encode(np.array([], dtype=int))
    with pytest.raises(ValueError):
        enc.encode(np.array([0, 4]))
    with pytest.raises(ValueError, match="edge_offsets"):
        enc.encode(np.array([0, 1]), edge_offsets=np.zeros(3))


def test_nrz_encoder_exposes_modulation():
    assert NrzEncoder(bit_rate=10e9).modulation == Nrz()
    w_old = bits_to_nrz(np.array([0, 1, 1, 0]), 10e9, amplitude=0.2)
    enc = SymbolEncoder(symbol_rate=10e9, amplitude=0.2)
    w_new = enc.encode_bits(np.array([0, 1, 1, 0]))
    np.testing.assert_array_equal(w_old.data, w_new.data)


# ---------------------------------------------------------------------------
# Symbol-error → bit-error accounting.
# ---------------------------------------------------------------------------


def test_ber_from_q_factors_nrz_matches_q_to_ber():
    assert ber_from_q_factors((6.0,)) == pytest.approx(q_to_ber(6.0))


def test_ber_from_q_factors_pam4():
    q = 6.0
    per_eye = q_to_ber(q)
    # Three identical eyes: SER = (2/4) * 3 * per_eye, BER = SER / 2.
    expected = (2.0 / 4.0) * 3.0 * per_eye / 2.0
    assert ber_from_q_factors((q, q, q), Pam4()) == pytest.approx(expected)
    with pytest.raises(ValueError, match="expected 3 Q-factors"):
        ber_from_q_factors((q,), Pam4())


def test_modulation_survives_dataclasses_replace():
    pam4 = Pam4()
    again = dataclasses.replace(pam4)
    assert again == pam4 and again.thresholds == pam4.thresholds
