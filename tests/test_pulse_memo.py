"""The pulse-response memo: content-keyed, bit-exact and bounded.

:func:`repro.analysis.isi.pulse_response_batch` keeps the responses of
its last 16 distinct calls under a digest of the system's content and
of every argument.  These tests pin that a hit returns exactly what a
fresh simulation returns (the single-waveform oracle
:func:`serial_oracles.pulse_response`), that every change to what the
system computes misses, and that the memo holds no system and hands
out no shared array.
"""

import concurrent.futures
import ctypes
import gc
import multiprocessing
import sys
import threading
import weakref

import numpy as np
import pytest

import serial_oracles as oracle
from repro.analysis import isi
from repro.analysis.isi import pulse_response, pulse_response_batch
from repro.link import session as session_module
from repro.link.session import (ChannelConfig, DfeConfig, LinkSession,
                                RxConfig, TxConfig)
from repro.lti import Block, LinearBlock, Pipeline, TanhLimiter
from repro.lti.transfer_function import pole_zero_tf
from repro.signals.modulation import Nrz, Pam4
from repro.stateye import StatEye
from toy_blocks import GainBlock, StaticNonlinearity

BIT_RATE = 10e9
SPB = 16


@pytest.fixture(autouse=True)
def empty_memo():
    isi._PULSES.clear()
    yield
    isi._PULSES.clear()


def link(modulation=Nrz()):
    return LinkSession.from_configs(
        tx=TxConfig(modulation=modulation), channel=ChannelConfig(0.3),
        rx=RxConfig(equalizer_control_voltage=0.6))


def small_system(limit=0.3):
    return Pipeline([LinearBlock(pole_zero_tf([7e9], [2e9])),
                     TanhLimiter(gain=2.0, limit=limit)])


def assert_same_pulse(got, want):
    assert got.cursor_index == want.cursor_index
    np.testing.assert_array_equal(got.wave.data, want.wave.data)
    np.testing.assert_array_equal(got.cursors, want.cursors)


def count_chain_calls(monkeypatch):
    calls = []
    run_chain = session_module._run_chain

    def counting(processors, signal):
        calls.append(1)
        return run_chain(processors, signal)

    monkeypatch.setattr(session_module, "_run_chain", counting)
    return calls


# -- a hit is the uncached result -------------------------------------------

def test_pulse_response_hit_matches_uncached():
    session = link()
    want = oracle.pulse_response(session, BIT_RATE, samples_per_bit=SPB,
                                 amplitude=0.25)
    for _ in range(2):          # a miss, then a hit
        assert_same_pulse(pulse_response(session, BIT_RATE,
                                         samples_per_bit=SPB,
                                         amplitude=0.25), want)
    assert len(isi._PULSES) == 1


def test_batch_of_three_amplitudes_hit_matches_uncached():
    system = small_system()
    amplitudes = (0.05, 0.2, 0.8)
    for _ in range(2):
        got = pulse_response_batch(system, BIT_RATE, amplitudes,
                                   samples_per_bit=SPB)
        for amplitude, response in zip(amplitudes, got):
            assert_same_pulse(response, oracle.pulse_response(
                system, BIT_RATE, samples_per_bit=SPB, amplitude=amplitude))
    assert len(isi._PULSES) == 1


@pytest.mark.parametrize("modulation", [Nrz(), Pam4()], ids=["nrz", "pam4"])
def test_statistical_eye_hit_matches_uncached(modulation):
    session = link(modulation)
    engine = StatEye(modulation=modulation, noise_rms=5e-3)
    want = engine.analyze(oracle.pulse_response(
        session, BIT_RATE, samples_per_bit=SPB,
        n_lead_bits=max(4, engine.n_precursors + 4),
        n_lag_bits=max(8, engine.n_postcursors + 4), amplitude=0.25))
    for noise_rms in (5e-3, 7e-3, 5e-3):
        got = session.statistical_eye(noise_rms=noise_rms, amplitude=0.25,
                                      samples_per_bit=SPB)
        if noise_rms == 5e-3:
            np.testing.assert_array_equal(got.surfaces, want.surfaces)
    assert len(isi._PULSES) == 1


def test_statistical_eye_keys_only_the_chain():
    # The pulse is the chain's: sessions that differ only in what runs
    # after it (CDR, DFE, eye measurement) share one entry.
    plain = link()
    receiving = LinkSession.from_configs(
        tx=TxConfig(), channel=ChannelConfig(0.3),
        rx=RxConfig(equalizer_control_voltage=0.6), cdr=True,
        dfe=DfeConfig(taps=(0.05,)), measure_eye=False, skip_ui=8)
    engine = StatEye(noise_rms=5e-3)
    want = engine.analyze(oracle.pulse_response(
        plain, BIT_RATE, samples_per_bit=SPB,
        n_lead_bits=max(4, engine.n_precursors + 4),
        n_lag_bits=max(8, engine.n_postcursors + 4), amplitude=0.25))
    for session in (plain, receiving):
        got = session.statistical_eye(engine, amplitude=0.25,
                                      samples_per_bit=SPB)
        np.testing.assert_array_equal(got.surfaces, want.surfaces)
    assert len(isi._PULSES) == 1


# -- every change to what the system computes misses --------------------------

def test_nested_in_place_change_misses():
    session = link()
    before = pulse_response(session, BIT_RATE, samples_per_bit=SPB,
                            amplitude=0.25)
    session.transmitter.driver.first_stage.tail_current *= 1.2
    after = pulse_response(session, BIT_RATE, samples_per_bit=SPB,
                           amplitude=0.25)
    assert not np.array_equal(after.cursors, before.cursors)
    assert_same_pulse(after, oracle.pulse_response(
        session, BIT_RATE, samples_per_bit=SPB, amplitude=0.25))


SHAPER_SOURCE = """
class Shaper(Block):
    def process(self, wave):
        return wave.with_data({expression})
"""


def shaper(expression):
    """An instance of a freshly defined ``Shaper`` class: every call
    defines a new class under the same module and qualname."""
    namespace = {"Block": Block, "np": np, "__name__": __name__}
    exec(SHAPER_SOURCE.format(expression=expression), namespace)
    return namespace["Shaper"]()


def test_redefined_block_class_misses():
    first = shaper("wave.data * 2.0")
    doubled = pulse_response(first, BIT_RATE, samples_per_bit=SPB)
    # Free the first class, so the new one may even reuse its address.
    del first
    gc.collect()
    second = shaper("np.tanh(wave.data)")
    assert type(second).__qualname__ == "Shaper"
    shaped = pulse_response(second, BIT_RATE, samples_per_bit=SPB)
    assert not np.array_equal(shaped.cursors, doubled.cursors)
    assert_same_pulse(shaped, oracle.pulse_response(second, BIT_RATE,
                                                    samples_per_bit=SPB))


def scaled_by(factor):
    return lambda batch: batch.with_data(batch.data * factor)


def test_lambdas_with_different_closure_constants_miss():
    low = LinkSession([scaled_by(2.0)], bit_rate=BIT_RATE)
    high = LinkSession([scaled_by(3.0)], bit_rate=BIT_RATE)
    for session, factor in ((low, 2.0), (high, 3.0)):
        got = pulse_response(session, BIT_RATE, samples_per_bit=SPB)
        assert got.main_cursor == pytest.approx(factor, rel=1e-3)
        assert_same_pulse(got, oracle.pulse_response(session, BIT_RATE,
                                                     samples_per_bit=SPB))
    assert len(isi._PULSES) == 2


# Same bytecode and constants: only the attribute each one loads differs.
TANH = lambda x: np.tanh(x)  # noqa: E731
SIN = lambda x: np.sin(x)  # noqa: E731


def test_lambdas_loading_different_names_miss():
    cursors = []
    for func in (TANH, SIN):
        system = StaticNonlinearity(func)
        got = pulse_response(system, BIT_RATE, samples_per_bit=SPB)
        assert_same_pulse(got, oracle.pulse_response(system, BIT_RATE,
                                                     samples_per_bit=SPB))
        cursors.append(got.cursors)
    assert not np.array_equal(*cursors)
    assert len(isi._PULSES) == 2


def test_in_place_change_behind_a_bound_method_stage_misses():
    inner = link()
    outer = LinkSession([inner.process], bit_rate=BIT_RATE)
    before = pulse_response(outer, BIT_RATE, samples_per_bit=SPB,
                            amplitude=0.25)
    inner.transmitter.driver.first_stage.tail_current *= 1.2
    after = pulse_response(outer, BIT_RATE, samples_per_bit=SPB,
                           amplitude=0.25)
    assert not np.array_equal(after.cursors, before.cursors)
    assert_same_pulse(after, oracle.pulse_response(
        outer, BIT_RATE, samples_per_bit=SPB, amplitude=0.25))


def self_calling(gain):
    def scale(data, depth=1):
        return scale(data * gain, depth - 1) if depth else data
    return scale


def test_function_in_its_own_closure_keys_the_memo():
    system = StaticNonlinearity(self_calling(2.0))
    want = oracle.pulse_response(system, BIT_RATE, samples_per_bit=SPB)
    for _ in range(2):
        assert_same_pulse(pulse_response(system, BIT_RATE,
                                         samples_per_bit=SPB), want)
    other = StaticNonlinearity(self_calling(3.0))
    assert pulse_response(other, BIT_RATE, samples_per_bit=SPB).main_cursor \
        == pytest.approx(3.0, rel=1e-3)
    assert len(isi._PULSES) == 2


# -- hits, isolation, bounds ----------------------------------------------------

def test_rebuilt_identical_session_hits(monkeypatch):
    calls = count_chain_calls(monkeypatch)
    first = pulse_response(link(), BIT_RATE, samples_per_bit=SPB,
                           amplitude=0.25)
    assert len(calls) == 1
    again = pulse_response(link(), BIT_RATE, samples_per_bit=SPB,
                           amplitude=0.25)
    assert len(calls) == 1
    assert_same_pulse(again, first)
    # Any other argument is part of the key.
    pulse_response(link(), BIT_RATE, samples_per_bit=SPB, amplitude=0.3)
    assert len(calls) == 2


def test_writing_into_a_returned_pulse_cannot_change_a_later_hit():
    system = small_system()
    want = oracle.pulse_response(system, BIT_RATE, samples_per_bit=SPB)
    got = pulse_response(system, BIT_RATE, samples_per_bit=SPB)
    got.wave.data[:] = 7.0
    got.cursors[:] = -7.0
    assert_same_pulse(pulse_response(system, BIT_RATE, samples_per_bit=SPB),
                      want)


def test_memo_is_bounded_and_holds_no_system():
    systems = [small_system(limit=0.1 + 0.01 * i) for i in range(20)]
    alive = [weakref.ref(system) for system in systems]
    for system in systems:
        pulse_response(system, BIT_RATE, samples_per_bit=SPB)
    assert len(isi._PULSES) == 16
    del systems, system
    gc.collect()
    assert all(ref() is None for ref in alive)


def test_threads_sharing_the_memo_keep_it_bounded_and_exact():
    systems = [small_system(limit=0.1 + 0.01 * i) for i in range(24)]
    wants = [oracle.pulse_response(system, BIT_RATE, samples_per_bit=SPB)
             for system in systems]
    errors = []

    def worker(offset):
        try:
            for i in range(3 * len(systems)):
                k = (offset + i) % len(systems)
                assert_same_pulse(pulse_response(
                    systems[k], BIT_RATE, samples_per_bit=SPB), wants[k])
        except Exception as error:  # asserted empty below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(5 * n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(isi._PULSES) == 16


class Locked(GainBlock):
    """A block holding a lock, which cannot be pickled."""

    def __init__(self, gain):
        super().__init__(gain)
        self.lock = threading.Lock()


class Pointing(GainBlock):
    """A block holding a ctypes pointer, whose pickling raises
    ``ValueError``."""

    def __init__(self, gain):
        super().__init__(gain)
        self.pointer = ctypes.c_char_p(b"x")


@pytest.mark.parametrize("unpicklable", [Locked, Pointing])
def test_unpicklable_system_is_simulated_every_call(unpicklable):
    system = unpicklable(2.0)
    want = oracle.pulse_response(system, BIT_RATE, samples_per_bit=SPB)
    for _ in range(2):
        assert_same_pulse(pulse_response(system, BIT_RATE,
                                         samples_per_bit=SPB), want)
    assert len(isi._PULSES) == 0


def pulses_twice(session):
    """A miss and then a hit in this process, with the memo's size."""
    first, second = (pulse_response(session, BIT_RATE, samples_per_bit=SPB,
                                     amplitude=0.25) for _ in range(2))
    return first.wave.data, second.wave.data, len(isi._PULSES)


def test_spawned_worker_memo_matches_this_process():
    # A fresh interpreter numbers its classes anew; the session it
    # unpickles must still miss once, then hit, and give these samples.
    session = link()
    want = pulse_response(session, BIT_RATE, samples_per_bit=SPB,
                          amplitude=0.25).wave.data
    with concurrent.futures.ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("spawn")) as pool:
        first, second, size = pool.submit(pulses_twice, session).result()
    np.testing.assert_array_equal(first, want)
    np.testing.assert_array_equal(second, want)
    assert size == 1
