"""Voltage-peaking circuit: delay buffer, differentiator, spike tuning."""

import numpy as np
import pytest

from repro.core import CmlDelayBuffer, Differentiator, VoltagePeakingCircuit
from repro.signals import Waveform, WaveformBatch, bits_to_nrz, prbs7


def make_peaking(width_ui=0.35, height_current=1.5e-3, amplitude=0.2):
    delay = CmlDelayBuffer(nominal_delay=width_ui / 10e9,
                           tail_current_nominal=1.5e-3,
                           tail_current=1.5e-3)
    differentiator = Differentiator(delay=delay,
                                    tail_current=height_current,
                                    load_resistance=25.0,
                                    logic_amplitude=amplitude)
    return VoltagePeakingCircuit(differentiator=differentiator)


def square_wave(amplitude=0.2):
    return bits_to_nrz(np.tile([1, 1, 1, 0, 0, 0], 12), 10e9,
                       amplitude=amplitude, samples_per_bit=32,
                       rise_time=5e-12)


# -- delay buffer --------------------------------------------------------------

def test_delay_nominal():
    buf = CmlDelayBuffer(nominal_delay=35e-12)
    assert buf.delay == pytest.approx(35e-12)
    assert buf.tuning_fraction() == pytest.approx(0.0)


def test_delay_inverse_in_tail_current():
    buf = CmlDelayBuffer(nominal_delay=35e-12, tail_current_nominal=2e-3,
                         tail_current=2e-3)
    faster = buf.tuned(1.25)
    slower = buf.tuned(0.8)
    assert faster.delay == pytest.approx(35e-12 / 1.25)
    assert slower.delay == pytest.approx(35e-12 / 0.8)


def test_20_percent_tuning_range():
    # The paper: "tunable delay to alter the voltage-peaking tuning
    # range up to 20 %".
    buf = CmlDelayBuffer(nominal_delay=35e-12)
    assert buf.tuned(1.0 / 1.2).tuning_fraction() == pytest.approx(0.2)
    assert buf.tuned(1.25).tuning_fraction() == pytest.approx(-0.2)


def test_delay_processes_waveform():
    buf = CmlDelayBuffer(nominal_delay=1e-10)
    wave = Waveform(np.array([1.0, 2.0, 3.0, 4.0]), 2e10)  # dt = 50 ps
    out = buf.process(wave)
    np.testing.assert_allclose(out.data, [1.0, 1.0, 1.0, 2.0])


def test_delay_validation():
    with pytest.raises(ValueError):
        CmlDelayBuffer(nominal_delay=0.0)
    with pytest.raises(ValueError):
        CmlDelayBuffer(nominal_delay=1e-12).tuned(0.0)


# -- differentiator ---------------------------------------------------------

def test_spikes_only_at_transitions():
    peaking = make_peaking()
    wave = square_wave()
    spikes = peaking.differentiator.process(wave)
    # Middle of a settled run: no spike.
    spb = 32
    settled = spikes.data[int(1.5 * spb): 2 * spb]
    assert np.max(np.abs(settled)) < 0.1 * peaking.differentiator.spike_height
    # Just after a falling edge (bit 3): a negative spike.
    window = spikes.data[3 * spb: int(3.6 * spb)]
    assert window.min() < -0.8 * peaking.differentiator.spike_height


def test_spike_sign_follows_new_bit():
    peaking = make_peaking()
    wave = square_wave()
    spikes = peaking.differentiator.process(wave).data
    spb = 32
    rising = spikes[6 * spb + 4: 7 * spb]  # after the 0->1 at bit 6
    assert rising.max() > 0.5 * peaking.differentiator.spike_height


def test_spike_height_tracks_tail_current():
    tall = make_peaking(height_current=2e-3)
    short = make_peaking(height_current=1e-3)
    assert tall.differentiator.spike_height == pytest.approx(
        2 * short.differentiator.spike_height
    )


def test_spike_width_tracks_delay():
    peaking = make_peaking(width_ui=0.5)
    wave = square_wave()
    spikes = np.abs(peaking.differentiator.process(wave).data)
    threshold = 0.5 * peaking.differentiator.spike_height
    widths = np.diff(np.flatnonzero(np.diff((spikes > threshold)
                                            .astype(int)) != 0))[::2]
    spb = 32
    expected = 0.5 * spb  # 0.5 UI in samples
    assert np.median(widths) == pytest.approx(expected, rel=0.3)


@pytest.mark.parametrize("batch", [False, True], ids=["wave", "batch"])
def test_differentiator_matches_out_of_place_expression(batch):
    # The in-place spike arithmetic is bit-identical to the expression
    # it replaced, which allocated a temporary per operation.
    diff = make_peaking(width_ui=0.37).differentiator
    wave = square_wave()
    if batch:
        wave = WaveformBatch.stack([wave, wave * -0.5, wave * 1.5])
    steering = diff.logic_amplitude / 8.0
    delayed = diff.delay.process(wave).data
    want = diff.spike_height * (0.5 * (np.tanh(wave.data / steering)
                                       - np.tanh(delayed / steering)))
    assert diff.process(wave).data.tobytes() == want.tobytes()


def test_differentiator_validation():
    delay = CmlDelayBuffer(nominal_delay=35e-12)
    with pytest.raises(ValueError):
        Differentiator(delay=delay, tail_current=0.0)
    with pytest.raises(ValueError):
        Differentiator(delay=delay, load_resistance=-25.0)
    with pytest.raises(ValueError):
        Differentiator(delay=delay, logic_amplitude=0.0)


# -- peaking circuit -----------------------------------------------------------

def test_peaking_boosts_edges_above_settled_level():
    peaking = make_peaking()
    wave = square_wave()
    peaked = peaking.process(wave)
    settled = abs(wave.data[int(2.5 * 32)])
    assert peaked.data.max() > settled * 1.1


@pytest.mark.parametrize("batch", [False, True], ids=["wave", "batch"])
def test_peaking_sums_in_place_without_touching_its_input(batch):
    # The sum is written into the spikes' own array: bit-identical to
    # ``wave + spikes`` and the input samples stay as they were.
    peaking = make_peaking(width_ui=0.37)
    wave = square_wave()
    if batch:
        wave = WaveformBatch.stack([wave, wave * -0.5, wave * 1.5])
    before = wave.data.copy()
    want = wave.data + peaking.differentiator.process(wave).data
    got = peaking.process(wave)
    assert type(got) is type(wave)
    assert got.data.tobytes() == want.tobytes()
    assert wave.data.tobytes() == before.tobytes()


def test_disabled_peaking_is_passthrough():
    peaking = make_peaking().disabled()
    wave = square_wave()
    out = peaking.process(wave)
    np.testing.assert_array_equal(out.data, wave.data)
    assert peaking.supply_current == 0.0


def test_equivalent_fir_taps():
    peaking = make_peaking()
    main, post = peaking.equivalent_fir_taps(signal_amplitude=0.1)
    k = peaking.differentiator.spike_height / 0.2
    assert main == pytest.approx(1 + k)
    assert post == pytest.approx(-k)
    with pytest.raises(ValueError):
        peaking.equivalent_fir_taps(0.0)


def test_preemphasis_db_positive():
    peaking = make_peaking()
    assert peaking.preemphasis_db(0.1) > 1.0
    with pytest.raises(ValueError):
        peaking.preemphasis_db(-1.0)


def test_peaking_flattens_channel_isi():
    # The Fig 16 mechanism: pre-emphasis counteracts channel loss.
    from repro.channel import BackplaneChannel
    from repro.analysis import EyeDiagram

    channel = BackplaneChannel(0.5)
    wave = bits_to_nrz(prbs7(220), 10e9, amplitude=0.2, samples_per_bit=16)
    plain = channel.process(wave)
    peaked = channel.process(make_peaking().process(wave))
    eye_plain = EyeDiagram.measure_waveform(plain, 10e9, skip_ui=16)
    eye_peaked = EyeDiagram.measure_waveform(peaked, 10e9, skip_ui=16)
    assert eye_peaked.eye_height > eye_plain.eye_height
