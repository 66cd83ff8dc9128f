"""Interface assemblies: the paper's calibrated design point."""

import pickle

import numpy as np
import pytest

from repro import (
    BackplaneChannel,
    bits_to_nrz,
    build_input_interface,
    build_io_interface,
    build_output_interface,
    prbs7,
)
from repro.analysis import EyeDiagram


# -- input interface -----------------------------------------------------------

def test_rx_dc_gain_is_paper_40db(rx_interface):
    assert rx_interface.dc_gain_db() == pytest.approx(40.0, abs=2.5)


def test_rx_bandwidth_is_paper_9p5ghz(rx_interface):
    assert rx_interface.bandwidth_3db() == pytest.approx(9.5e9, rel=0.10)


def test_rx_output_swing_is_paper_250mv(rx_interface):
    assert rx_interface.output_swing == pytest.approx(0.25)


def test_rx_small_signal_stable(rx_interface):
    assert rx_interface.small_signal_tf().is_stable()


def test_rx_without_equalizer_loses_gain(rx_interface):
    bypassed = rx_interface.without_equalizer()
    assert not bypassed.equalizer_enabled
    assert bypassed.dc_gain_db() < rx_interface.dc_gain_db() - 4.0


def test_rx_budget_matches_paper_area(rx_interface):
    budget = rx_interface.budget()
    assert budget.total_area_mm2() == pytest.approx(0.02, rel=0.01)


def test_rx_pipeline_has_equalizer_plus_la_stages(rx_interface):
    assert len(rx_interface.to_pipeline()) == 7  # eq + 6 LA stages
    assert len(rx_interface.without_equalizer().to_pipeline()) == 6


def test_rx_offset_is_part_of_the_pipeline(small_wave):
    """The residual input offset rides in the pipeline form as a leading
    offset stage, so ``process`` and ``to_pipeline().process`` agree
    exactly; the stage is picklable and absent at zero offset."""
    rx = build_input_interface(input_offset_voltage=5e-3)
    la = rx.limiting_amplifier
    for chain in (rx, la):
        assert np.array_equal(chain.process(small_wave).data,
                              chain.to_pipeline().process(small_wave).data)
    assert len(rx.to_pipeline()) == 8
    offset = la.to_pipeline()[0]
    loop = abs(la.dc_gain()) * la.offset_network.sense_gain
    assert offset.offset == 5e-3 / (1.0 + loop)
    assert pickle.loads(pickle.dumps(offset)) == offset
    clean = build_input_interface()
    shift = rx.process(small_wave).data - clean.process(small_wave).data
    assert np.max(np.abs(shift)) > 1e-3


def test_rx_processes_4mv_to_full_swing(rx_interface, small_wave):
    out = rx_interface.process(small_wave)
    measurement = EyeDiagram.measure_waveform(out, 10e9)
    assert measurement.is_open
    assert measurement.eye_amplitude > 0.6 * rx_interface.output_swing


# -- output interface ---------------------------------------------------------

def test_tx_final_stage_is_8ma(tx_interface):
    assert tx_interface.output_current == pytest.approx(8e-3)


def test_tx_swing_200mv_into_double_terminated_line(tx_interface):
    assert tx_interface.output_swing_pp == pytest.approx(0.2)


def test_tx_bandwidth(tx_interface):
    assert tx_interface.bandwidth_3db() > 7e9


def test_tx_budget_matches_paper_area(tx_interface):
    assert tx_interface.budget().total_area_mm2() == pytest.approx(
        0.008, rel=0.01
    )


def test_tx_peaking_boosts_edges(tx_interface, prbs_wave):
    peaked = tx_interface.process(prbs_wave)
    plain = tx_interface.without_peaking().process(prbs_wave)
    assert peaked.peak_to_peak() > 1.05 * plain.peak_to_peak()


def test_tx_pipeline_order(tx_interface):
    names = [block.name for block in tx_interface.to_pipeline()]
    assert names[0] == "level-shifter"
    assert names[-1] == "voltage-peaking"


# -- full link -----------------------------------------------------------------

def test_total_power_near_70mw(io_link):
    power_mw = io_link.budget().total_power_w() * 1e3
    assert power_mw == pytest.approx(70.0, rel=0.10)


def test_total_area_is_paper_0p028mm2(io_link):
    assert io_link.budget().total_area_mm2() == pytest.approx(0.028,
                                                              rel=0.01)


def test_link_recovers_prbs_through_channel(io_link, prbs_wave):
    out = io_link.process(prbs_wave)
    measurement = EyeDiagram.measure_waveform(out, 10e9, skip_ui=16)
    assert measurement.is_open
    assert measurement.eye_height > 0.3 * io_link.input_interface.output_swing


def test_link_receive_only_path(io_link, small_wave):
    out = io_link.receive_only(small_wave)
    assert EyeDiagram.measure_waveform(out, 10e9).is_open


def test_build_io_interface_flags():
    link = build_io_interface(peaking_enabled=False, equalizer_enabled=False)
    assert not link.output_interface.peaking.enabled
    assert not link.input_interface.equalizer_enabled
    assert link.channel is None


def test_link_output_data_matches_input_bits(io_link):
    # End-to-end data integrity: decision-sample the output and compare
    # against the transmitted pattern (allowing for pipeline latency).
    bits = prbs7(240)
    wave = bits_to_nrz(bits, 10e9, amplitude=0.25, samples_per_bit=16)
    out = io_link.process(wave)
    spb = 16
    data = out.data
    best_errors = None
    # Search latency up to 8 UI and pick the best alignment.
    for lag_ui in range(0, 8):
        for phase in range(spb):
            start = lag_ui * spb + phase
            samples = data[start::spb][: len(bits) - 16]
            decisions = (samples > 0).astype(int)
            reference = bits[: len(decisions)]
            errors = int(np.sum(decisions != reference))
            if best_errors is None or errors < best_errors:
                best_errors = errors
    assert best_errors <= 2  # allow edge-of-pattern artifacts
