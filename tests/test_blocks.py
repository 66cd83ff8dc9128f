"""Block framework: linear, nonlinear, pipeline composition."""

import numpy as np
import pytest

from repro.lti import (
    LinearBlock,
    Pipeline,
    RationalTF,
    TanhLimiter,
    WienerHammersteinBlock,
    first_order_lowpass,
)
from repro.signals import Waveform
from toy_blocks import GainBlock, StaticNonlinearity


def wave(data, fs=320e9):
    return Waveform(np.asarray(data, dtype=float), fs)


def test_linear_block_dc():
    block = LinearBlock(first_order_lowpass(1e9, gain=2.0))
    out = block.process(wave(np.full(64, 1.0)))
    np.testing.assert_allclose(out.data, 2.0, rtol=1e-6)


def test_tanh_limiter_small_signal_gain():
    limiter = TanhLimiter(gain=10.0, limit=0.25)
    tiny = limiter.process(wave([1e-6]))
    assert tiny.data[0] == pytest.approx(1e-5, rel=1e-3)
    assert limiter.transfer_function().dc_gain() == pytest.approx(10.0)


def test_tanh_limiter_saturates_at_limit():
    limiter = TanhLimiter(gain=10.0, limit=0.25)
    big = limiter.process(wave([10.0, -10.0]))
    np.testing.assert_allclose(big.data, [0.25, -0.25], rtol=1e-6)


def test_tanh_limiter_rejects_bad_limit():
    with pytest.raises(ValueError):
        TanhLimiter(gain=1.0, limit=0.0)


def test_wiener_hammerstein_small_signal_tf():
    pre = first_order_lowpass(10e9)
    post = first_order_lowpass(20e9, gain=2.0)
    block = WienerHammersteinBlock(
        nonlinearity=TanhLimiter(gain=5.0, limit=1.0), pre=pre, post=post
    )
    tf = block.transfer_function()
    assert tf.dc_gain() == pytest.approx(10.0)
    assert tf.order == 2


def test_wiener_hammerstein_processes_in_order():
    # With only a post filter, saturation happens before smoothing.
    block = WienerHammersteinBlock(
        nonlinearity=TanhLimiter(gain=100.0, limit=1.0),
        post=first_order_lowpass(1e9),
    )
    out = block.process(wave(np.full(2000, 0.5)))
    assert out.data[-1] == pytest.approx(1.0, rel=1e-2)


def test_pipeline_chains_blocks():
    pipe = Pipeline([GainBlock(2.0), GainBlock(3.0)])
    out = pipe.process(wave([1.0]))
    assert out.data[0] == pytest.approx(6.0)
    assert len(pipe) == 2
    assert isinstance(pipe[0], GainBlock)


def test_pipeline_transfer_function_cascades():
    pipe = Pipeline([
        LinearBlock(first_order_lowpass(1e9, gain=2.0)),
        GainBlock(5.0),
    ])
    assert pipe.transfer_function().dc_gain() == pytest.approx(10.0)


def test_pipeline_tf_none_when_nonlinear():
    pipe = Pipeline([StaticNonlinearity(np.sign)])
    assert pipe.transfer_function() is None


def test_pipeline_tapped_returns_every_stage():
    pipe = Pipeline([GainBlock(2.0), GainBlock(3.0)])
    taps = pipe.process_tapped(wave([1.0]))
    assert len(taps) == 3
    assert taps[0].data[0] == 1.0
    assert taps[1].data[0] == 2.0
    assert taps[2].data[0] == 6.0


def test_pipeline_appended_and_replaced():
    pipe = Pipeline([GainBlock(2.0)])
    longer = pipe.appended(GainBlock(3.0))
    assert len(longer) == 2
    assert len(pipe) == 1  # original untouched
    swapped = longer.replaced(0, GainBlock(10.0))
    assert swapped.process(wave([1.0])).data[0] == pytest.approx(30.0)


def test_blocks_are_callable():
    assert GainBlock(2.0)(wave([1.0])).data[0] == 2.0
