"""Property-based tests for the extension subsystems: 8b/10b coding,
FIR pre-emphasis, DFE, channel fitting, masks."""


import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.mask import EyeMask
from repro.baselines import FirPreEmphasis
from repro.channel import BackplaneChannel, fit_channel_parameters
from repro.serdes import Decoder8b10b, encode_bytes
from repro.signals import Waveform, bits_to_nrz

BIT_RATE = 10e9


# -- 8b/10b -----------------------------------------------------------------

@given(st.binary(min_size=1, max_size=64))
@settings(max_examples=60, deadline=None)
def test_8b10b_roundtrip_any_payload(payload):
    bits = encode_bytes(payload)
    assert Decoder8b10b().decode(bits) == payload


@given(st.binary(min_size=4, max_size=64))
@settings(max_examples=40, deadline=None)
def test_8b10b_run_length_bounded(payload):
    bits = encode_bytes(payload).tolist()
    longest = 1
    current = 1
    for a, b in zip(bits, bits[1:]):
        current = current + 1 if a == b else 1
        longest = max(longest, current)
    assert longest <= 5


@given(st.binary(min_size=8, max_size=64))
@settings(max_examples=40, deadline=None)
def test_8b10b_disparity_bounded(payload):
    bits = encode_bytes(payload)
    disparity = np.cumsum(2 * bits.astype(int) - 1)
    assert np.max(np.abs(disparity)) <= 8


@given(st.binary(min_size=1, max_size=32))
@settings(max_examples=40, deadline=None)
def test_8b10b_length_is_10x(payload):
    bits = encode_bytes(payload, prepend_commas=0)
    assert len(bits) == 10 * len(payload)


# -- FIR pre-emphasis ----------------------------------------------------------

tap_lists = st.lists(
    st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
    min_size=1, max_size=4,
).map(lambda rest: [1.0] + rest[1:])


@given(tap_lists, st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_fir_is_linear(taps, scale):
    fir = FirPreEmphasis(taps=taps, bit_rate=BIT_RATE)
    wave = bits_to_nrz(np.tile([1, 0, 1, 1, 0], 8), BIT_RATE,
                       amplitude=0.2, samples_per_bit=8)
    out_scaled = fir.process(wave * scale)
    scaled_out = fir.process(wave) * scale
    np.testing.assert_allclose(out_scaled.data, scaled_out.data,
                               atol=1e-12)


@given(tap_lists)
@settings(max_examples=40, deadline=None)
def test_fir_settled_level_is_tap_sum(taps):
    fir = FirPreEmphasis(taps=taps, bit_rate=BIT_RATE)
    wave = bits_to_nrz(np.ones(24, dtype=int), BIT_RATE, amplitude=0.2,
                       samples_per_bit=8, rise_time=0.0)
    out = fir.process(wave)
    expected = 0.1 * sum(taps)
    assert out.data[-1] == pytest.approx(expected, abs=1e-9)


# -- channel fitting -----------------------------------------------------------

@given(st.floats(min_value=1e-6, max_value=1e-4),
       st.floats(min_value=1e-10, max_value=1e-8),
       st.floats(min_value=0.1, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_fit_recovers_arbitrary_parameters(k_skin, k_diel, length):
    from repro.channel import ChannelParameters

    truth = BackplaneChannel(
        length, params=ChannelParameters(k_skin=k_skin,
                                         k_dielectric=k_diel)
    )
    freqs = np.linspace(0.5e9, 10e9, 30)
    loss = truth.loss_db(freqs)
    assume(loss.max() > 0.5)  # enough signal for a meaningful fit
    params = fit_channel_parameters(freqs, loss, length_m=length)
    refit = BackplaneChannel(length, params=params)
    np.testing.assert_allclose(refit.loss_db(freqs), loss,
                               rtol=0.02, atol=0.05)


# -- eye masks --------------------------------------------------------------

@given(st.floats(min_value=0.05, max_value=0.2),
       st.floats(min_value=0.21, max_value=0.5),
       st.floats(min_value=0.01, max_value=0.3))
@settings(max_examples=50, deadline=None)
def test_mask_boundary_never_exceeds_y1(x1, x2, y1):
    mask = EyeMask(x1=x1, x2=x2, y1=y1, y2=y1 * 3)
    phases = np.linspace(0.0, 1.0, 101)
    bound = mask.inner_boundary(phases)
    assert np.all(bound >= 0.0)
    assert np.all(bound <= y1 + 1e-12)
    # Symmetric about mid-UI.
    np.testing.assert_allclose(bound, bound[::-1], atol=1e-9)


# -- waveform delay composition ---------------------------------------------

@given(st.integers(min_value=0, max_value=10),
       st.integers(min_value=0, max_value=10))
@settings(max_examples=50, deadline=None)
def test_integer_delays_compose(n1, n2):
    rng = np.random.default_rng(n1 * 11 + n2)
    wave = Waveform(rng.normal(size=64), 1e9)
    once = wave.delayed(n1 / 1e9).delayed(n2 / 1e9)
    combined = wave.delayed((n1 + n2) / 1e9)
    np.testing.assert_allclose(once.data, combined.data, atol=1e-12)
