"""Eye-diagram measurement against waveforms with known properties."""

import numpy as np
import pytest

from repro.analysis import EyeDiagram
from repro.signals import RandomJitter, NrzEncoder, bits_to_nrz, prbs7


def clean_wave(amplitude=0.4, n_bits=200, spb=16):
    return bits_to_nrz(prbs7(n_bits), 10e9, amplitude=amplitude,
                       samples_per_bit=spb)


def test_clean_eye_is_wide_open():
    m = EyeDiagram.measure_waveform(clean_wave(), 10e9)
    assert m.is_open
    assert m.eye_height > 0.9 * 0.4
    assert m.eye_width_ui > 0.8
    assert m.eye_amplitude == pytest.approx(0.4, rel=0.02)


def test_levels_of_clean_eye():
    m = EyeDiagram.measure_waveform(clean_wave(), 10e9)
    assert m.level_one == pytest.approx(0.2, rel=0.05)
    assert m.level_zero == pytest.approx(-0.2, rel=0.05)


def test_eye_height_shrinks_with_noise():
    from repro.signals import add_awgn

    clean = clean_wave()
    noisy = add_awgn(clean, 0.02, seed=2)
    m_clean = EyeDiagram.measure_waveform(clean, 10e9)
    m_noisy = EyeDiagram.measure_waveform(noisy, 10e9)
    assert m_noisy.eye_height < m_clean.eye_height
    assert m_noisy.q_factor < m_clean.q_factor


def test_jitter_shrinks_eye_width():
    encoder = NrzEncoder(bit_rate=10e9, samples_per_bit=32, amplitude=0.4)
    bits = prbs7(300)
    clean = encoder.encode(bits)
    jittered = encoder.encode(
        bits, edge_offsets=RandomJitter(3e-12, seed=4).offsets(300, 10e9)
    )
    m_clean = EyeDiagram.measure_waveform(clean, 10e9)
    m_jit = EyeDiagram.measure_waveform(jittered, 10e9)
    assert m_jit.eye_width_ui < m_clean.eye_width_ui
    assert m_jit.jitter_pp > m_clean.jitter_pp


def test_measured_jitter_rms_close_to_injected():
    encoder = NrzEncoder(bit_rate=10e9, samples_per_bit=32, amplitude=0.4,
                         rise_time=10e-12)
    bits = prbs7(500)
    rj = 2e-12
    jittered = encoder.encode(
        bits, edge_offsets=RandomJitter(rj, seed=9).offsets(500, 10e9)
    )
    m = EyeDiagram.measure_waveform(jittered, 10e9)
    assert m.jitter_rms == pytest.approx(rj, rel=0.5)


def test_closed_eye_reports_nonpositive_height():
    from repro.channel import BackplaneChannel

    # A brutal channel at 10 Gb/s: the raw eye closes.
    wave = clean_wave(n_bits=260)
    closed = BackplaneChannel(0.9).process(wave)
    m = EyeDiagram.measure_waveform(closed, 10e9, skip_ui=20)
    assert m.eye_height <= 0.02


def test_non_integer_sample_ratio_is_resampled():
    wave = clean_wave().resampled(150e9)  # 15 samples/UI
    m = EyeDiagram.measure_waveform(wave, 10e9)
    assert m.is_open


def test_two_ui_traces_shape():
    eye = EyeDiagram(clean_wave(n_bits=100, spb=16), 10e9, skip_ui=4)
    traces = eye.two_ui_traces()
    assert traces.shape[1] == 32


def test_degenerate_all_ones_signal():
    wave = bits_to_nrz(np.ones(64, dtype=int), 10e9, samples_per_bit=16)
    m = EyeDiagram.measure_waveform(wave, 10e9)
    assert not m.is_open


def test_degenerate_record_reports_centred_sampling_phase():
    """A degenerate eye (a level never observed) reports its sampling
    phase at the centre of the sample, like every other record."""
    wave = bits_to_nrz(np.ones(64, dtype=int), 10e9, samples_per_bit=16)
    eye = EyeDiagram(wave, 10e9)
    m = eye.measure()
    assert m.eye_heights is None
    assert m.sampling_phase_ui == (eye.best_phase_index() + 0.5) / 16
    assert eye.measure_at(3).sampling_phase_ui == 3.5 / 16


def test_eye_requires_enough_ui():
    wave = bits_to_nrz(prbs7(10), 10e9, samples_per_bit=16)
    with pytest.raises(ValueError):
        EyeDiagram(wave, 10e9)


def test_eye_requires_enough_oversampling():
    wave = bits_to_nrz(prbs7(100), 10e9, samples_per_bit=2)
    with pytest.raises(ValueError):
        EyeDiagram(wave, 10e9)


def test_validation():
    wave = clean_wave()
    with pytest.raises(ValueError):
        EyeDiagram(wave, bit_rate=0.0)
    with pytest.raises(ValueError):
        EyeDiagram(wave, 10e9, skip_ui=-1)


def test_sampling_phase_near_center():
    m = EyeDiagram.measure_waveform(clean_wave(), 10e9)
    # For symmetric NRZ the best phase is near mid-UI.
    assert 0.2 < m.sampling_phase_ui < 0.8


def test_eye_opening_fraction():
    m = EyeDiagram.measure_waveform(clean_wave(), 10e9)
    assert 0.85 < m.eye_opening_fraction <= 1.0


# -- crossing clusters straddling the 0/1 UI seam ---------------------------

def straddling_wave(wander_ui=0.03, n_bits=64, spb=16):
    """Alternating bits whose edges sit AT the bit boundary, wandering
    +-wander_ui around it: the folded crossing cluster straddles 0/1."""
    encoder = NrzEncoder(bit_rate=10e9, samples_per_bit=spb, amplitude=1.0)
    bits = np.arange(n_bits) % 2
    offsets = np.where(np.arange(n_bits) % 2 == 0, 1.0, -1.0) \
        * wander_ui * 1e-10
    return encoder.encode(bits, edge_offsets=offsets)


def test_straddling_crossing_cluster_is_recentered():
    """Regression: a crossing cluster straddling the 0/1 UI boundary
    whose raw median lands mid-range used to defeat the linear
    re-centering — jitter_pp_ui reported ~1 UI and the eye width
    collapsed to 0 for a clean eye."""
    eye = EyeDiagram(straddling_wave(), 10e9)
    times = eye.crossing_times_ui()
    # Two clusters at ~0.97 and ~0.03 UI fold into one tight cluster.
    assert times.size > 16
    assert np.ptp(times) < 0.2
    assert eye.jitter_pp_ui() < 0.2
    assert eye.eye_width_ui() > 0.8
    # The reported positions still sit on the UI circle near the seam.
    assert np.all(np.abs(np.mod(times + 0.5, 1.0) - 0.5) < 0.1)


def test_straddling_cluster_jitter_matches_injected_wander():
    eye = EyeDiagram(straddling_wave(wander_ui=0.02), 10e9)
    # Deterministic +-0.02 UI wander: peak-to-peak spread ~0.04 UI.
    assert eye.jitter_pp_ui() == pytest.approx(0.04, abs=0.02)


def test_centered_cluster_is_untouched_by_circular_centering():
    """Mid-range clusters (edges away from the seam) keep their raw
    modulo-1 positions — the fix only affects wrapped clusters."""
    wave = clean_wave()
    eye = EyeDiagram(wave, 10e9)
    times = eye.crossing_times_ui()
    raw = None
    flat = eye.traces.reshape(-1)
    sign = np.sign(flat)
    sign[sign == 0] = 1
    idx = np.flatnonzero(np.diff(sign) != 0)
    v0, v1 = flat[idx], flat[idx + 1]
    raw = np.mod((idx + v0 / (v0 - v1)) / eye.samples_per_ui, 1.0)
    if np.ptp(raw) < 0.5:  # genuinely unwrapped cluster
        np.testing.assert_array_equal(times, raw)
