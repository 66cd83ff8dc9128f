"""Sensitivity/dynamic-range sweeps and pulse-response ISI analysis."""

import numpy as np
import pytest

from repro.analysis import (
    SensitivityResult,
    eye_is_good,
    measure_dynamic_range,
    measure_sensitivity,
    measure_overload,
    pulse_response,
)
from repro.analysis.eye import EyeDiagram
from repro.channel import BackplaneChannel
from repro.lti import LinearBlock, first_order_lowpass
from repro.signals import bits_to_nrz, prbs7
from toy_blocks import GainBlock


def test_sensitivity_of_ideal_amplifier():
    # A clean x100 amplifier with a 0.25 V limiting target: any input
    # above ~2.5/0.6 mV-ish passes the 60% criterion.
    rx = GainBlock(100.0)
    sensitivity = measure_sensitivity(rx.process, full_swing=0.25,
                                      n_bits=150)
    assert sensitivity < 3e-3


def test_sensitivity_result_dynamic_range():
    result = SensitivityResult(sensitivity_vpp=0.004, overload_vpp=1.8)
    assert result.dynamic_range_db == pytest.approx(53.1, abs=0.5)


def test_rx_sensitivity_near_paper_4mv(rx_interface):
    # The headline claim: ~4 mV sensitivity (we accept 1-8 mV — the
    # criterion details differ from the paper's unpublished ones).
    sensitivity = measure_sensitivity(
        rx_interface.process, full_swing=rx_interface.output_swing,
        n_bits=150,
    )
    assert 5e-4 < sensitivity < 8e-3


def test_rx_overload_at_least_1v8(rx_interface):
    overload = measure_overload(
        rx_interface.process, full_swing=rx_interface.output_swing,
        n_bits=150,
    )
    assert overload >= 1.7


def test_rx_dynamic_range_at_least_40db(rx_interface):
    result = measure_dynamic_range(
        rx_interface.process, full_swing=rx_interface.output_swing,
        n_bits=150,
    )
    assert result.dynamic_range_db >= 40.0


def test_sensitivity_with_noise_is_worse(rx_interface):
    quiet = measure_sensitivity(
        rx_interface.process, full_swing=rx_interface.output_swing,
        n_bits=150,
    )
    noisy = measure_sensitivity(
        rx_interface.process, full_swing=rx_interface.output_swing,
        n_bits=150, noise_rms=1e-3,
    )
    assert noisy >= quiet


def test_eye_is_good_criterion():
    wave = bits_to_nrz(prbs7(150), 10e9, amplitude=0.25, samples_per_bit=16)
    m = EyeDiagram.measure_waveform(wave, 10e9)
    assert eye_is_good(m, full_swing=0.25)
    assert not eye_is_good(m, full_swing=10.0)
    with pytest.raises(ValueError):
        eye_is_good(m, full_swing=0.0)


def test_sensitivity_raises_for_dead_receiver():
    dead = GainBlock(1e-6)
    with pytest.raises(ValueError):
        measure_sensitivity(dead.process, full_swing=0.25, n_bits=150)


# -- ISI / pulse response ------------------------------------------------------

def test_pulse_response_of_wideband_system_has_no_isi():
    system = GainBlock(1.0)
    pulse = pulse_response(system, 10e9, samples_per_bit=16)
    assert pulse.main_cursor == pytest.approx(1.0, rel=0.05)
    assert pulse.isi_sum() < 0.1
    assert pulse.worst_case_opening() > 0.9


def test_pulse_response_of_channel_shows_postcursor_isi():
    channel = BackplaneChannel(0.5)
    pulse = pulse_response(channel, 10e9, samples_per_bit=16)
    assert pulse.main_cursor < 0.7  # attenuated
    assert np.sum(np.abs(pulse.postcursors())) > 0.1  # dispersion tail
    assert pulse.worst_case_opening() < pulse.main_cursor


def test_worst_case_opening_degrades_with_length():
    short = pulse_response(BackplaneChannel(0.2), 10e9,
                           samples_per_bit=16).worst_case_opening()
    long = pulse_response(BackplaneChannel(0.6), 10e9,
                          samples_per_bit=16).worst_case_opening()
    assert long < short


def test_narrowband_filter_creates_isi():
    system = LinearBlock(first_order_lowpass(2e9))
    pulse = pulse_response(system, 10e9, samples_per_bit=16)
    assert pulse.isi_sum() > 0.3
    assert pulse.isi_ratio_db() < 10.0


def test_pulse_response_validation():
    with pytest.raises(ValueError):
        pulse_response(GainBlock(1.0), 10e9, n_lead_bits=1)
