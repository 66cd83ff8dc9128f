"""Pinned transfer-function oracle: the lean algebra and the cached stage
lowering reproduce the ``np.polymul``/``np.polyadd`` code bit for bit.

The functions in the first section are inline frozen copies of the
rational-function algebra as it was before it dropped ``np.polymul`` /
``np.polyadd``: the constructor's trim-and-normalize, ``cascade``,
``parallel``, ``feedback``, ``scaled``, ``node_impedance``, the
parallel-load admittance sum and the tanh limiter.  They work on
``(num, den)`` arrays, so nothing in them runs library algebra.  (The
voltage-peaking delay is pinned against its own frozen copy in
``test_waveform.py``.)  The tests check

* a hypothesis property over random polynomials (leading zeros,
  leading-coefficient cancellation, zero numerators, degenerate
  denominators): identical coefficient bytes, or the same error;
* the value-keyed stage-lowering cache: in-place mutation of any field,
  ``dataclasses.replace`` and ``CherryHooperEqualizer.tuned`` each give
  a fresh lowering, going back to the original values is bit-exact
  again, and cached arrays are read-only;
* tx/rx outputs identical to pipelines built stage by stage with the
  frozen algebra, uncached: default, ``without_peaking()``,
  ``without_equalizer()``, a 5 mV input offset and a PAM4 stimulus.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.cml_buffer as cml_buffer_module
import repro.core.equalizer as equalizer_module
import repro.core.loads as loads_module
import repro.lti.transfer_function as tf_module
from repro.core import build_input_interface, build_output_interface
from repro.core.cml_buffer import CmlBuffer
from repro.core.loads import (
    ActiveInductorLoad,
    ParallelLoad,
    ResistiveLoad,
    SpiralInductorLoad,
    node_impedance,
)
from repro.devices.active_inductor import ActiveInductor
from repro.devices.mosfet import nmos, pmos
from repro.devices.passives import SpiralInductor
from repro.devices.varactor import MosVaractor
from repro.lti import RationalTF, TanhLimiter, WienerHammersteinBlock
from repro.lti.transfer_function import _trim, pole_zero_tf
from repro.signals import Waveform, WaveformBatch

SAMPLE_RATE = 160e9


# ---------------------------------------------------------------------------
# Frozen np.polymul / np.polyadd algebra, verbatim, on (num, den) arrays.
# ---------------------------------------------------------------------------

def _old_trim(coeffs):
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    nonzero = np.flatnonzero(coeffs)
    if nonzero.size == 0:
        return np.zeros(1)
    return coeffs[nonzero[0]:]


def _old_make(num, den):
    num = _old_trim(num)
    den = _old_trim(den)
    if not np.any(den):
        raise ValueError("denominator polynomial is zero")
    lead = den[0]
    return num / lead, den / lead


def _old_cascade(a, b):
    return _old_make(np.polymul(a[0], b[0]), np.polymul(a[1], b[1]))


def _old_parallel(a, b):
    num = np.polyadd(np.polymul(a[0], b[1]), np.polymul(b[0], a[1]))
    return _old_make(num, np.polymul(a[1], b[1]))


def _old_scaled(a, gain):
    return _old_make(a[0] * float(gain), a[1])


def _old_feedback(a, loop):
    open_num = np.polymul(a[0], loop[1])
    den = np.polyadd(np.polymul(a[1], loop[1]), np.polymul(a[0], loop[0]))
    return _old_make(open_num, den)


def _old_node_impedance(z, node_capacitance):
    if node_capacitance == 0:
        return z
    den = np.polyadd(np.polymul(z[1], np.array([1.0])),
                     np.polymul(np.array([node_capacitance, 0.0]), z[0]))
    return _old_make(z[0], den)


def _old_parallel_load(impedances):
    y_num = np.array([0.0])
    y_den = np.array([1.0])
    for z_num, z_den in impedances:
        y_num = np.polyadd(np.polymul(y_num, z_num),
                           np.polymul(z_den, y_den))
        y_den = np.polymul(y_den, z_num)
    return _old_make(y_den, y_num)


def _old_tanh(gain, limit, data):
    scaled = (gain / limit) * data
    return limit * np.tanh(scaled)


# ---------------------------------------------------------------------------
# Helpers.
# ---------------------------------------------------------------------------

def _pair(tf):
    return tf.num, tf.den


def _assert_bits(new, old):
    """Identical shapes and coefficient bytes (signed zeros included)."""
    for got, want in zip(new, old):
        assert got.shape == want.shape, (got, want)
        assert got.tobytes() == want.tobytes(), (got, want)


def _outcome(func, *args):
    try:
        return func(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def _assert_same(new_func, old_func, *args):
    new = _outcome(new_func, *args)
    old = _outcome(old_func, *args)
    if isinstance(old, type):
        assert new is old
    else:
        assert not isinstance(new, type), new
        _assert_bits(_pair(new), old)


# Small integers make leading-coefficient cancellation and zero rows
# likely; the wide floats exercise the general case.
_coeff = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.0]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.floats(1e-15, 1e-9),
)
_poly = st.lists(_coeff, min_size=1, max_size=5).map(np.array)


@st.composite
def _tfs(draw):
    num = draw(_poly)
    den = draw(_poly)
    assume(np.any(den))
    return RationalTF(num, den)


# ---------------------------------------------------------------------------
# The algebra.
# ---------------------------------------------------------------------------

#: Tiny leading coefficients overflow to inf/NaN on both sides alike.
_OVERFLOW_ALIKE = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@_OVERFLOW_ALIKE
@settings(max_examples=300, deadline=None)
@given(_poly, _poly)
def test_constructor_matches_frozen_trim_and_normalize(num, den):
    assume(np.any(den))
    _assert_bits(_pair(RationalTF(num, den)), _old_make(num, den))


@_OVERFLOW_ALIKE
@settings(max_examples=300, deadline=None)
@given(_tfs(), _tfs(), st.sampled_from([0.0, -1.0, 1.0, 3.5, -1e-3]))
def test_algebra_matches_frozen_polymul_polyadd(a, b, gain):
    old_a, old_b = _pair(a), _pair(b)
    _assert_same(lambda: a.cascade(b), lambda: _old_cascade(old_a, old_b))
    _assert_same(lambda: a.parallel(b), lambda: _old_parallel(old_a, old_b))
    _assert_same(lambda: a - b,
                 lambda: _old_parallel(old_a, _old_scaled(old_b, -1.0)))
    _assert_same(lambda: a.feedback(b), lambda: _old_feedback(old_a, old_b))
    _assert_same(lambda: a.feedback(),
                 lambda: _old_feedback(old_a, (np.ones(1), np.ones(1))))
    _assert_same(lambda: a.scaled(gain), lambda: _old_scaled(old_a, gain))


@pytest.mark.parametrize("a, b", [
    # Leading numerator coefficients cancel in the sum.
    ((np.array([1.0, 2.0]), np.array([1.0, 3.0])),
     (np.array([-1.0, 5.0]), np.array([1.0, 3.0]))),
    # H - H: the whole numerator cancels to the zero polynomial.
    ((np.array([2.0, 1.0]), np.array([1.0, 4.0, 1.0])),
     (np.array([-2.0, -1.0]), np.array([1.0, 4.0, 1.0]))),
    # Zero numerators on both sides.
    ((np.array([0.0]), np.array([1.0, 1.0])),
     (np.array([0.0, 0.0]), np.array([2.0]))),
])
def test_algebra_cancellation_cases(a, b):
    tf_a, tf_b = RationalTF(*a), RationalTF(*b)
    old_a, old_b = _pair(tf_a), _pair(tf_b)
    _assert_same(lambda: tf_a + tf_b, lambda: _old_parallel(old_a, old_b))
    _assert_same(lambda: tf_a * tf_b, lambda: _old_cascade(old_a, old_b))
    _assert_same(lambda: tf_a.feedback(tf_b),
                 lambda: _old_feedback(old_a, old_b))


def test_feedback_cancelling_the_denominator_raises_like_before():
    # 1/(s+1) around a loop of -(s+1): den*1 + num*(-(s+1)) == 0.
    plant = RationalTF(np.array([1.0]), np.array([1.0, 1.0]))
    loop = RationalTF(np.array([-1.0, -1.0]), np.array([1.0]))
    _assert_same(lambda: plant.feedback(loop),
                 lambda: _old_feedback(_pair(plant), _pair(loop)))
    with pytest.raises(ValueError, match="denominator polynomial is zero"):
        plant.feedback(loop)


@pytest.mark.parametrize("coeffs", [
    [1.0, 2.0], [0.0, 0.0, 3.0, 1.0], [-0.0, 2.0], [0.0], [0.0, 0.0],
    [np.nan, 1.0], [0.0, np.nan], [5.0],
])
def test_trim_matches_frozen_trim(coeffs):
    array = np.array(coeffs)
    _assert_bits((_trim(array),), (_old_trim(array),))
    _assert_bits((_trim(list(coeffs)),), (_old_trim(list(coeffs)),))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1e3, 1e12), max_size=3),
       st.lists(st.floats(1e3, 1e12), max_size=3),
       st.floats(-10.0, 10.0))
def test_pole_zero_tf_matches_frozen_polymul(poles, zeros, gain):
    num = np.array([float(gain)])
    den = np.array([1.0])
    for fz in zeros:
        num = np.polymul(num, np.array([1.0 / (2 * np.pi * fz), 1.0]))
    for fp in poles:
        den = np.polymul(den, np.array([1.0 / (2 * np.pi * fp), 1.0]))
    _assert_bits(_pair(pole_zero_tf(poles, zeros, gain)), _old_make(num, den))


def _active(width_um, gate_ohm):
    return ActiveInductorLoad(ActiveInductor(
        pmos(width_um * 1e-6, 0.18e-6, 1e-3), gate_resistance=gate_ohm))


_leaf_loads = st.one_of(
    st.floats(10.0, 1e4).map(ResistiveLoad),
    st.builds(lambda r, l: SpiralInductorLoad(r, SpiralInductor(l)),
              st.floats(10.0, 1e3), st.floats(1e-10, 5e-9)),
    st.builds(_active, st.floats(5.0, 80.0), st.floats(100.0, 3000.0)),
)
_loads = st.one_of(
    _leaf_loads,
    st.lists(_leaf_loads, min_size=1, max_size=3).map(ParallelLoad),
)


def _old_load_impedance(load):
    if isinstance(load, ParallelLoad):
        return _old_parallel_load(
            [_old_load_impedance(element) for element in load.elements])
    return _pair(load.impedance_tf())


@settings(max_examples=150, deadline=None)
@given(_loads, st.sampled_from([0.0, 1e-15, 54e-15, 2e-13]))
def test_node_impedance_matches_frozen_algebra(load, node_capacitance):
    _assert_bits(_pair(load.impedance_tf()), _old_load_impedance(load))
    _assert_bits(_pair(node_impedance(load, node_capacitance)),
                 _old_node_impedance(_old_load_impedance(load),
                                     node_capacitance))


def test_parallel_load_accepts_a_list_and_stays_hashable():
    load = ParallelLoad([ResistiveLoad(100.0), _active(20.0, 800.0)])
    assert isinstance(load.elements, tuple)
    assert hash(load) == hash(ParallelLoad(tuple(load.elements)))


# ---------------------------------------------------------------------------
# The value-keyed stage-lowering cache.
# ---------------------------------------------------------------------------

def _buffer():
    return CmlBuffer(
        input_pair=nmos(20e-6, 0.18e-6, 1e-3),
        load=_active(40.0, 1200.0),
        tail_current=2e-3,
        c_load_ext=54e-15,
        source_resistance=250.0,
        feedback_loop_gain=1.2,
        neg_miller=MosVaractor(width=4e-6, length=0.5e-6),
        name="probe-buffer",
    )


def _equalizer():
    return build_input_interface().equalizer


def _uncached(stage, limit):
    """``(shape num, shape den, a0, limit)`` lowered without the cache."""
    full = stage.small_signal_tf()
    a0 = full.dc_gain()
    shape = full.scaled(1.0 / a0)
    return shape.num, shape.den, a0, limit


def _lowered(block):
    return (block.post.num, block.post.den, block.nonlinearity.gain,
            block.nonlinearity.limit)


def _assert_lowering(block, want):
    got = _lowered(block)
    _assert_bits(got[:2], want[:2])
    assert got[2:] == want[2:]


#: One different value per field (``name`` is a label, not a key).
_BUFFER_CHANGES = {
    "input_pair": nmos(30e-6, 0.18e-6, 1.5e-3),
    "load": ResistiveLoad(150.0),
    "tail_current": 3e-3,
    "c_load_ext": 80e-15,
    "source_resistance": 100.0,
    "feedback_loop_gain": 0.5,
    "neg_miller": None,
}
_EQUALIZER_CHANGES = {
    "input_pair": nmos(30e-6, 0.18e-6, 1.5e-3),
    "degeneration": dataclasses.replace(
        equalizer_module.TriodeDegeneration(), capacitance=300e-15),
    "control_voltage": 0.9,
    "r_stage1": 350.0,
    "r_stage2": 200.0,
    "c_stage1": 70e-15,
    "c_stage2": 90e-15,
    "gm_stage2": 9e-3,
    "feedback_loop_gain": 0.5,
    "with_current_buffers": False,
    "tail_current": 2e-3,
    "match_gm": 25e-3,  # no effect on the lowering; still keyed
}


def test_every_stage_field_is_covered():
    for cls, changes in ((CmlBuffer, _BUFFER_CHANGES),
                         (equalizer_module.CherryHooperEqualizer,
                          _EQUALIZER_CHANGES)):
        names = {field.name for field in dataclasses.fields(cls)}
        assert names - {"name"} == set(changes)


@pytest.mark.parametrize("field", sorted(_BUFFER_CHANGES))
def test_buffer_in_place_mutation_relowers(field):
    stage = _buffer()
    original = _lowered(stage.to_block())
    setattr(stage, field, _BUFFER_CHANGES[field])
    block = stage.to_block()
    _assert_lowering(block, _uncached(stage, stage.output_swing))
    assert _differs(_lowered(block), original)
    # Back to the original values: the first lowering, bit-exact.
    setattr(stage, field, getattr(_buffer(), field))
    _assert_lowering(stage.to_block(), original)


@pytest.mark.parametrize("field", sorted(_EQUALIZER_CHANGES))
def test_equalizer_in_place_mutation_relowers(field):
    stage = _equalizer()
    original = _lowered(stage.to_block())
    setattr(stage, field, _EQUALIZER_CHANGES[field])
    _assert_lowering(stage.to_block(), _uncached(stage, stage.output_limit))
    setattr(stage, field, getattr(_equalizer(), field))
    _assert_lowering(stage.to_block(), original)


def _differs(a, b):
    return any(np.shape(x) != np.shape(y) or not np.array_equal(x, y)
               for x, y in zip(a, b))


@pytest.mark.parametrize("field", sorted(_BUFFER_CHANGES))
def test_buffer_replace_relowers(field):
    stage = _buffer()
    original = _lowered(stage.to_block())
    changed = dataclasses.replace(stage, **{field: _BUFFER_CHANGES[field]})
    block = changed.to_block()
    _assert_lowering(block, _uncached(changed, changed.output_swing))
    assert _differs(_lowered(block), original)
    _assert_lowering(stage.to_block(), original)


def test_equalizer_tuned_relowers_and_returns():
    eq = _equalizer()
    original = _lowered(eq.to_block())
    for v1 in (0.6, 0.9, 1.2):
        tuned = eq.tuned(v1)
        block = tuned.to_block()
        _assert_lowering(block, _uncached(tuned, tuned.output_limit))
        assert _differs(_lowered(block), original)
    _assert_lowering(eq.tuned(eq.control_voltage).to_block(), original)
    _assert_lowering(eq.to_block(), original)


def test_name_is_a_label_not_a_key():
    stage = _buffer()
    renamed = dataclasses.replace(stage, name="other")
    assert renamed.to_block().name == "other"
    assert renamed.to_block().post is stage.to_block().post


def test_lowering_is_served_from_the_cache():
    stage = _buffer()
    stage.to_block()
    hits = cml_buffer_module._lowering.cache_info().hits
    first, second = stage.to_block(), stage.to_block()
    assert cml_buffer_module._lowering.cache_info().hits == hits + 2
    assert first is not second and first.post is second.post


def test_cached_arrays_are_read_only():
    for block in (_buffer().to_block(), _equalizer().to_block()):
        for array in (block.post.num, block.post.den):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0


# ---------------------------------------------------------------------------
# tx/rx outputs against pipelines built with the frozen algebra.
# ---------------------------------------------------------------------------

def _raw_tf(num, den):
    tf = object.__new__(RationalTF)
    object.__setattr__(tf, "num", num)
    object.__setattr__(tf, "den", den)
    return tf


def _frozen_algebra(monkeypatch):
    """Route every library TF operation through the frozen copies."""
    def make(num, den):
        return _raw_tf(*_old_make(num, den))

    def post_init(self):
        num, den = _old_make(self.num, self.den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def cascade(self, other):
        return make(*_old_cascade(_pair(self), _pair(other)))

    def parallel(self, other):
        return make(*_old_parallel(_pair(self), _pair(other)))

    def feedback(self, loop=None):
        loop = (np.ones(1), np.ones(1)) if loop is None else _pair(loop)
        return make(*_old_feedback(_pair(self), loop))

    def node_imp(load, node_capacitance):
        if node_capacitance < 0:
            raise ValueError("node capacitance must be >= 0")
        return make(*_old_node_impedance(_pair(load.impedance_tf()),
                                         node_capacitance))

    def parallel_impedance(self):
        return make(*_old_parallel_load(
            [_pair(element.impedance_tf()) for element in self.elements]))

    def tanh_process(self, wave):
        return wave.with_data(_old_tanh(self.gain, self.limit, wave.data))

    for name, func in (("__post_init__", post_init), ("cascade", cascade),
                       ("__mul__", cascade), ("parallel", parallel),
                       ("__add__", parallel), ("feedback", feedback)):
        monkeypatch.setattr(RationalTF, name, func)
    for module in (loads_module, cml_buffer_module, equalizer_module):
        monkeypatch.setattr(module, "node_impedance", node_imp)
    monkeypatch.setattr(tf_module, "_trim", _old_trim)
    monkeypatch.setattr(ParallelLoad, "impedance_tf", parallel_impedance)
    monkeypatch.setattr(TanhLimiter, "process", tanh_process)


def _oracle_block(stage, limit):
    full = stage.small_signal_tf()
    a0 = full.dc_gain()
    return WienerHammersteinBlock(TanhLimiter(gain=a0, limit=limit),
                                  post=full.scaled(1.0 / a0))


def _oracle_rx(rx, wave):
    if rx.equalizer_enabled:
        eq = rx.equalizer
        wave = _oracle_block(eq, eq.output_limit).process(wave)
    la = rx.limiting_amplifier
    if la.input_offset_voltage != 0.0:
        loop = abs(la.dc_gain()) * la.offset_network.sense_gain
        wave = wave + la.input_offset_voltage / (1.0 + loop)
    for stage in la.stage_chain():
        wave = _oracle_block(stage, stage.output_swing).process(wave)
    return wave


def _oracle_tx(tx, wave):
    wave = tx.level_shifter.process(wave)
    for stage in tx.driver.stages():
        wave = _oracle_block(stage, stage.output_swing).process(wave)
    return tx.peaking.process(wave)


def _stimulus(levels, n_symbols=120, samples_per_symbol=16, seed=5):
    rng = np.random.default_rng(seed)
    symbols = rng.choice(levels, n_symbols)
    data = np.repeat(symbols, samples_per_symbol) \
        + rng.normal(0.0, 3e-3, n_symbols * samples_per_symbol)
    return Waveform(data, SAMPLE_RATE)


_NRZ = _stimulus(np.array([-0.25, 0.25]))
_PAM4 = _stimulus(np.array([-0.25, -0.25 / 3, 0.25 / 3, 0.25]), seed=6)
_CASES = {
    "default": (lambda: build_output_interface(), lambda: build_input_interface(), _NRZ),
    "without_peaking": (lambda: build_output_interface().without_peaking(),
                        lambda: build_input_interface(), _NRZ),
    "without_equalizer": (lambda: build_output_interface(),
                          lambda: build_input_interface().without_equalizer(),
                          _NRZ),
    "offset_5mV": (lambda: build_output_interface(),
                   lambda: build_input_interface(input_offset_voltage=5e-3),
                   _NRZ),
    "pam4": (lambda: build_output_interface(), lambda: build_input_interface(),
             _PAM4),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_tx_rx_match_frozen_algebra_pipelines(case, monkeypatch):
    make_tx, make_rx, wave = _CASES[case]
    tx, rx = make_tx(), make_rx()
    batch = WaveformBatch(np.stack([wave.data, -wave.data]), SAMPLE_RATE)
    with monkeypatch.context() as patched:
        _frozen_algebra(patched)
        want_tx = _oracle_tx(tx, wave)
        want_rx = _oracle_rx(rx, want_tx)
        want_batch = _oracle_rx(rx, _oracle_tx(tx, batch))
    got_tx = tx.process(wave)
    got_rx = rx.process(got_tx)
    _assert_bits((got_tx.data, got_rx.data), (want_tx.data, want_rx.data))
    _assert_bits((rx.process(tx.process(batch)).data,), (want_batch.data,))
    _assert_bits((rx.to_pipeline().process(got_tx).data,), (want_rx.data,))
