"""Extension modules: digital pre-emphasis baseline, mismatch Monte
Carlo, channel fitting."""

import numpy as np
import pytest

from repro.baselines import (
    FirPreEmphasis,
    zero_forcing_taps,
)
from repro.analysis import EyeDiagram
from repro.channel import BackplaneChannel, fit_channel_parameters
from repro.devices import (
    MismatchModel,
    chain_offset_sigma,
    nmos,
    pair_offset_sigma,
    sample_offsets,
)
from repro.signals import bits_to_nrz, prbs7

BIT_RATE = 10e9


# -- digital pre-emphasis ----------------------------------------------------

def test_fir_two_tap_boosts_edges():
    fir = FirPreEmphasis(taps=(1.2, -0.2), bit_rate=BIT_RATE)
    wave = bits_to_nrz(np.tile([1, 1, 1, 0, 0, 0], 10), BIT_RATE,
                       amplitude=0.2, samples_per_bit=16)
    out = fir.process(wave)
    # Edge boosted above the settled level.
    assert out.peak_to_peak() > 1.15 * wave.peak_to_peak()
    assert fir.boost_db() > 2.0


def test_fir_identity_tap():
    fir = FirPreEmphasis(taps=(1.0,), bit_rate=BIT_RATE)
    wave = bits_to_nrz(prbs7(60), BIT_RATE, samples_per_bit=16)
    np.testing.assert_allclose(fir.process(wave).data, wave.data)


def test_fir_normalization_preserves_peak_power():
    fir = FirPreEmphasis(taps=(1.0, -0.25), bit_rate=BIT_RATE,
                         normalize=True)
    assert np.sum(np.abs(fir.taps)) == pytest.approx(1.0)


def test_fir_validation():
    with pytest.raises(ValueError):
        FirPreEmphasis(taps=(), bit_rate=BIT_RATE)
    with pytest.raises(ValueError):
        FirPreEmphasis(taps=(0.0, 1.0), bit_rate=BIT_RATE)
    with pytest.raises(ValueError):
        FirPreEmphasis(taps=(1.0,), bit_rate=0.0)
    with pytest.raises(ValueError):
        FirPreEmphasis(taps=(1.0, -1.0), bit_rate=BIT_RATE).boost_db()


def test_zero_forcing_improves_channel_eye():
    channel = BackplaneChannel(0.5)
    taps = zero_forcing_taps(channel, BIT_RATE, n_taps=3)
    assert taps[0] > 0
    assert taps[1] < 0  # first post-tap fights the dominant post-cursor
    fir = FirPreEmphasis(taps=taps, bit_rate=BIT_RATE)
    wave = bits_to_nrz(prbs7(260), BIT_RATE, amplitude=0.3,
                       samples_per_bit=16)
    plain = channel.process(wave)
    shaped = channel.process(fir.process(wave))
    m_plain = EyeDiagram.measure_waveform(plain, BIT_RATE, skip_ui=16)
    m_shaped = EyeDiagram.measure_waveform(shaped, BIT_RATE, skip_ui=16)
    assert m_shaped.eye_height > 1.2 * m_plain.eye_height


def test_zero_forcing_validation():
    with pytest.raises(ValueError):
        zero_forcing_taps(BackplaneChannel(0.5), BIT_RATE, n_taps=1)


# -- mismatch --------------------------------------------------------------

def test_pelgrom_area_law():
    model = MismatchModel()
    small = nmos(5e-6, 0.18e-6, 1e-3)
    large = nmos(20e-6, 0.72e-6, 1e-3)
    # 16x the area -> 4x smaller sigma.
    assert model.vth_sigma(small) == pytest.approx(
        4 * model.vth_sigma(large), rel=1e-6
    )


def test_pair_offset_millivolt_scale():
    # A 20 um x 0.18 um pair in 0.18 um: a few mV of sigma — exactly
    # the "can become a problem after three stages" regime.
    sigma = pair_offset_sigma(nmos(20e-6, 0.18e-6, 1e-3))
    assert 1e-3 < sigma < 5e-3


def test_chain_offset_dominated_by_first_stage():
    pairs = [nmos(20e-6, 0.18e-6, 1e-3)] * 3
    gains = [3.0, 3.0, 3.0]
    chain = chain_offset_sigma(pairs, gains)
    first = pair_offset_sigma(pairs[0])
    assert first < chain < 1.2 * first


def test_chain_offset_validation():
    with pytest.raises(ValueError):
        chain_offset_sigma([], [])
    with pytest.raises(ValueError):
        chain_offset_sigma([nmos(20e-6, 0.18e-6, 1e-3)], [2.0, 2.0])


def test_sample_offsets_statistics():
    samples = sample_offsets(2e-3, 20000, seed=4)
    assert np.std(samples) == pytest.approx(2e-3, rel=0.05)
    assert abs(np.mean(samples)) < 1e-4
    with pytest.raises(ValueError):
        sample_offsets(-1.0, 10)
    with pytest.raises(ValueError):
        sample_offsets(1e-3, 0)


def test_mismatch_model_validation():
    with pytest.raises(ValueError):
        MismatchModel(a_vt=0.0)


# -- channel fitting -----------------------------------------------------------

def test_fit_recovers_known_parameters():
    truth = BackplaneChannel(1.0)
    freqs = np.linspace(0.5e9, 10e9, 40)
    loss = truth.loss_db(freqs)
    params = fit_channel_parameters(freqs, loss, length_m=1.0)
    assert params.k_skin == pytest.approx(truth.params.k_skin, rel=0.05)
    assert params.k_dielectric == pytest.approx(
        truth.params.k_dielectric, rel=0.05
    )


def test_fit_channel_reproduces_loss():
    truth = BackplaneChannel(0.5)
    freqs = np.linspace(1e9, 8e9, 20)
    fitted = BackplaneChannel(0.5, fit_channel_parameters(
        freqs, truth.loss_db(freqs), length_m=0.5))
    np.testing.assert_allclose(fitted.loss_db(freqs),
                               truth.loss_db(freqs), rtol=0.05)


def test_fitting_validation():
    with pytest.raises(ValueError):
        fit_channel_parameters(np.array([1e9]), np.array([1.0]))
    with pytest.raises(ValueError):
        fit_channel_parameters(np.array([1e9, -2e9]),
                               np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        fit_channel_parameters(np.array([1e9, 2e9]),
                               np.array([1.0, -2.0]))
