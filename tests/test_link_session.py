"""The batch-first ``LinkSession`` facade and its one chain loop.

Pins the api-redesign contract:

* ``LinkSession.run`` and ``run_batch`` are row-exact across
  jitter/noise/channel-length scenarios (one dispatching code path);
* every block family — LTI blocks/pipelines, channels, core
  interfaces, baseline CTLE/pre-emphasis — runs in a session chain
  (``LinkSession([...]).process``) with Waveform in → Waveform out and
  WaveformBatch in → WaveformBatch out, and the CDR, the DFE and the
  framed serdes runner through their own entry points, each matching
  the family's serial reference per row (for the CDR, DFE and framed
  link, the scalar loops in ``serial_oracles``).
"""

import dataclasses
import math
import weakref

import numpy as np
import pytest

from repro import (
    ChannelConfig,
    CdrConfig,
    DfeConfig,
    LinkSession,
    RxConfig,
    ScenarioGrid,
    SweepAxis,
    TxConfig,
    WaveformBatch,
    bits_to_nrz,
    prbs7,
)
from repro.analysis import measure_eye_batch
from repro.baselines import (
    DecisionFeedbackEqualizer,
    FirPreEmphasis,
    GenericCtle,
    dfe_taps_from_channel,
)
from repro.cdr import BangBangCdr
from repro.channel import BackplaneChannel
from repro.core import build_input_interface
from repro.link import (CdrStage, DfeStage, LinkBatchResult, LinkResult,
                        run_framed_link)
from repro.lti import LinearBlock, Pipeline, TanhLimiter, first_order_lowpass
from repro.signals import NrzEncoder, RandomJitter, add_awgn, sample_uniform
from repro.sweep import Count, MeanVar, MinMax, SweepRunner, Yield
from toy_blocks import GainBlock
from serial_oracles import SerialCdr, SerialDfe, run_link

BIT_RATE = 10e9


def scenario_batch(n_rows=3, n_bits=300, amplitude=0.25, noise_rms=2e-3):
    """Per-row jittered + noisy PRBS stimulus."""
    encoder = NrzEncoder(bit_rate=BIT_RATE, samples_per_bit=16,
                         amplitude=amplitude)
    bits = prbs7(n_bits)
    waves = []
    for seed in range(1, n_rows + 1):
        jitter = RandomJitter(2e-12, seed=seed)
        wave = encoder.encode(bits,
                              edge_offsets=jitter.offsets(n_bits, BIT_RATE))
        waves.append(add_awgn(wave, noise_rms, seed=seed))
    return WaveformBatch.stack(waves)


def assert_results_equal(single: LinkResult, from_batch: LinkResult):
    np.testing.assert_array_equal(single.output.data,
                                  from_batch.output.data)
    assert single.eye == from_batch.eye
    if single.cdr is None:
        assert from_batch.cdr is None
    else:
        np.testing.assert_array_equal(single.cdr.decisions,
                                      from_batch.cdr.decisions)
        np.testing.assert_array_equal(single.cdr.phase_track_ui,
                                      from_batch.cdr.phase_track_ui)
        assert single.cdr.locked_at_bit == from_batch.cdr.locked_at_bit
        assert single.cdr.slips == from_batch.cdr.slips
    if single.dfe_corrected is None:
        assert from_batch.dfe_corrected is None
    else:
        np.testing.assert_array_equal(single.dfe_decisions,
                                      from_batch.dfe_decisions)
        np.testing.assert_array_equal(single.dfe_corrected,
                                      from_batch.dfe_corrected)
        assert single.dfe_inner_eye_height == \
            from_batch.dfe_inner_eye_height


# -- run vs run_batch row-exactness -------------------------------------------

@pytest.mark.parametrize("length_m", [0.0, 0.4])
def test_run_vs_run_batch_row_exact_across_scenarios(length_m):
    session = LinkSession.from_configs(
        channel=ChannelConfig(length_m),
        cdr=CdrConfig(bit_rate=BIT_RATE),
        dfe=DfeConfig(taps=(0.02,)),
    )
    batch = scenario_batch(n_rows=3)
    batched = session.run_batch(batch)
    assert isinstance(batched, LinkBatchResult)
    assert batched.n_scenarios == 3
    for i in range(3):
        assert_results_equal(session.run(batch[i]), batched.row(i))
    assert batched.lock_yield() == 1.0
    assert np.all(batched.eye_heights() > 0)


def test_run_vs_run_batch_row_exact_across_noise_levels():
    session = LinkSession.from_configs(tx=None, channel=None,
                                       cdr=CdrConfig(bit_rate=BIT_RATE))
    rows = [scenario_batch(1, noise_rms=rms)[0]
            for rms in (0.0, 5e-3, 2e-2)]
    batched = session.run_batch(rows)          # sequence form stacks
    for i, row in enumerate(rows):
        assert_results_equal(session.run(row), batched.row(i))


def test_run_rejects_batches_and_run_batch_accepts_waveform():
    session = LinkSession([], bit_rate=BIT_RATE)
    batch = scenario_batch(2)
    with pytest.raises(TypeError):
        session.run(batch)
    single = session.run_batch(batch[0])
    assert single.n_scenarios == 1


# -- the chain loop per block family ------------------------------------------

def _dispatch_check(wrapped, serial_process, batch, exact=True):
    """Waveform in → Waveform out; batch in → batch out; rows match the
    family's serial reference."""
    single_out = wrapped(batch[0])
    reference = serial_process(batch[0])
    assert not isinstance(single_out, WaveformBatch)
    comparer = (np.testing.assert_array_equal if exact
                else lambda a, b: np.testing.assert_allclose(
                    a, b, rtol=0, atol=1e-12))
    comparer(single_out.data, reference.data)
    batch_out = wrapped(batch)
    assert isinstance(batch_out, WaveformBatch)
    for i in range(batch.n_scenarios):
        comparer(batch_out.data[i], serial_process(batch[i]).data)


def test_stage_dispatch_lti_blocks_and_pipeline():
    batch = scenario_batch(3)
    limiter = TanhLimiter(gain=4.0, limit=0.125)
    _dispatch_check(LinkSession([limiter]).process, limiter.process, batch)
    pipe = Pipeline([GainBlock(2.0),
                     LinearBlock(first_order_lowpass(8e9)),
                     limiter])
    _dispatch_check(LinkSession([pipe]).process, pipe.process, batch)


def test_chain_releases_each_block_input_inside_pipelines():
    """A pipeline entry runs block by block in the chain loop, so the
    previous entry's output is freed once the pipeline's first block
    has its output, not held through the whole pipeline."""
    seen = {}

    class Remember(GainBlock):
        def process(self, wave):
            seen["input"] = weakref.ref(wave.data)
            return super().process(wave)

    class Check(GainBlock):
        def process(self, wave):
            seen["alive"] = seen["input"]() is not None
            return super().process(wave)

    batch = scenario_batch(2)
    first = Pipeline([GainBlock(2.0), LinearBlock(first_order_lowpass(8e9))])
    second = Pipeline([Remember(1.5), Check(0.5)])
    session = LinkSession([first, second])
    out = session.process(batch)
    assert seen == {"input": seen["input"], "alive": False}
    np.testing.assert_array_equal(
        out.data, second.process(first.process(batch)).data)


def test_stage_dispatch_channel():
    batch = scenario_batch(3)
    channel = BackplaneChannel(0.4)
    _dispatch_check(LinkSession([channel]).process, channel.process, batch)


def test_stage_dispatch_core_interface():
    batch = scenario_batch(2)
    rx = build_input_interface()
    _dispatch_check(LinkSession([rx]).process, rx.process, batch)


def test_stage_dispatch_baseline_ctle_and_preemphasis():
    batch = scenario_batch(2)
    ctle = GenericCtle(dc_gain=1.0, zero_hz=2e9, pole1_hz=6e9,
                       pole2_hz=12e9)
    _dispatch_check(LinkSession([ctle]).process, ctle.to_block().process,
                    batch)
    fir = FirPreEmphasis(taps=(1.2, -0.2), bit_rate=BIT_RATE)
    _dispatch_check(LinkSession([fir]).process, fir.process, batch)


def test_stage_dispatch_dfe_matches_serial():
    channel = BackplaneChannel(0.5)
    received = channel.process(
        bits_to_nrz(prbs7(120), BIT_RATE, amplitude=1.0,
                    samples_per_bit=16))
    batch = WaveformBatch.stack([add_awgn(received, 0.02, seed=s)
                                 for s in range(1, 5)])
    taps = dfe_taps_from_channel(channel, BIT_RATE, n_taps=2, amplitude=1.0)
    dfe = DecisionFeedbackEqualizer(taps=taps, bit_rate=BIT_RATE)
    decisions, corrected = dfe.equalize(batch)
    heights = dfe.inner_eye_height(batch)
    for i, row in enumerate(batch.rows()):
        ref_decisions, ref_corrected = SerialDfe(dfe).equalize(row)
        np.testing.assert_array_equal(decisions[i], ref_decisions)
        np.testing.assert_array_equal(corrected[i], ref_corrected)
        assert heights[i] == SerialDfe(dfe).inner_eye_height(row)
        one_decisions, one_corrected = dfe.equalize(row)
        np.testing.assert_array_equal(one_decisions, ref_decisions)
        np.testing.assert_array_equal(one_corrected, ref_corrected)
    # The waveform-domain form: corrected samples on the baud timebase.
    chain = LinkSession([DfeStage(dfe)], bit_rate=BIT_RATE)
    as_batch = chain.process(batch)
    assert isinstance(as_batch, WaveformBatch)
    assert as_batch.sample_rate == BIT_RATE
    np.testing.assert_array_equal(as_batch.data, corrected)
    one = chain.process(batch[0])
    assert not isinstance(one, WaveformBatch)
    np.testing.assert_array_equal(one.data, corrected[0])
    # The block form delegates to the DFE's own entry points.
    np.testing.assert_array_equal(DfeStage(dfe).equalize(batch)[1], corrected)
    np.testing.assert_array_equal(DfeStage(dfe).inner_eye_height(batch),
                                  heights)


def test_stage_dispatch_cdr_matches_serial():
    batch = scenario_batch(3, amplitude=0.4)
    cdr = BangBangCdr(CdrConfig(bit_rate=BIT_RATE))
    batched = cdr.recover(batch)
    for i in range(len(batch)):
        serial = SerialCdr(cdr.config).recover(batch[i])
        row = batched.row(i)
        np.testing.assert_array_equal(row.decisions, serial.decisions)
        np.testing.assert_array_equal(row.phase_track_ui,
                                      serial.phase_track_ui)
        np.testing.assert_array_equal(row.votes, serial.votes)
        assert row.locked_at_bit == serial.locked_at_bit
        assert row.slips == serial.slips
        single = cdr.recover(batch[i])
        np.testing.assert_array_equal(single.decisions, serial.decisions)
    # Waveform-domain form: the decision streams at the bit rate.
    decisions_wave = LinkSession([CdrStage(cdr)],
                                 bit_rate=BIT_RATE).process(batch)
    assert isinstance(decisions_wave, WaveformBatch)
    assert decisions_wave.sample_rate == BIT_RATE
    np.testing.assert_array_equal(decisions_wave.data,
                                  batched.decisions.astype(float))
    np.testing.assert_array_equal(CdrStage(cdr).recover(batch).decisions,
                                  batched.decisions)


def test_stage_dispatch_cdr_initial_state_overrides():
    batch = scenario_batch(3, amplitude=0.4)
    base = CdrConfig(bit_rate=BIT_RATE)
    phases0 = np.array([-0.3, 0.0, 0.4])
    ppm = np.array([0.0, 100.0, -100.0])
    batched = BangBangCdr(base).recover(
        batch, initial_phase_ui=phases0, initial_frequency_ppm=ppm)
    for i in range(3):
        config = dataclasses.replace(base,
                                     initial_phase_ui=float(phases0[i]),
                                     initial_frequency_ppm=float(ppm[i]))
        serial = SerialCdr(config).recover(batch[i])
        np.testing.assert_array_equal(batched.row(i).decisions,
                                      serial.decisions)
        np.testing.assert_array_equal(batched.row(i).phase_track_ui,
                                      serial.phase_track_ui)


def test_stage_dispatch_framed_serdes():
    payload = b"facade framed link!!"
    seeds = [1, 2, 3]
    rms = 0.01
    batch_report = run_framed_link(
        payload,
        path=lambda w: WaveformBatch.with_noise_seeds(w, rms, seeds),
        training_commas=24, training_bytes=4,
    )
    assert batch_report.n_scenarios == len(seeds)
    for seed, from_batch in zip(seeds, batch_report):
        reference = run_link(
            payload,
            analog_path=lambda w, seed=seed: add_awgn(w, rms, seed=seed),
            training_commas=24, training_bytes=4,
        )
        assert from_batch.payload_received == reference.payload_received
        assert from_batch.cdr_locked == reference.cdr_locked
        assert from_batch.cdr_slips == reference.cdr_slips
    # A waveform-returning path dispatches to the single-report form.
    single = run_framed_link(payload, path=lambda w: w,
                             training_commas=24, training_bytes=4)
    assert single.error_free
    with pytest.raises(TypeError):
        run_framed_link(b"junk", path=lambda w: w.data)


def test_stage_adapter_rules():
    def doubler(batch):
        return batch * 2.0

    batch = scenario_batch(2)
    for named in (doubler, lambda b: b * 2.0):   # callables run as given
        session = LinkSession([named], bit_rate=BIT_RATE)
        np.testing.assert_array_equal(session.process(batch).data,
                                      2.0 * batch.data)
    with pytest.raises(TypeError):
        session.process(np.zeros(8))           # not a signal
    with pytest.raises(TypeError):
        LinkSession([object()])                # no process, not callable


def test_a_stage_returning_a_waveform_for_a_batch_is_refused():
    # One rule for the session and the sweep runner: a processor must
    # return a WaveformBatch for a batch.  A lone Waveform is refused,
    # not lifted, since from many rows it would silently keep one.
    batch = scenario_batch(3)
    first_row = LinkSession([lambda b: b[0]], bit_rate=BIT_RATE)
    with pytest.raises(TypeError, match="batch-transparent"):
        first_row.process(batch)
    with pytest.raises(TypeError, match="batch-transparent"):
        first_row.process(batch[0])
    runner = SweepRunner(ScenarioGrid([SweepAxis("seed", (1, 2))]),
                         stimulus=lambda p: batch[p["seed"]],
                         build=lambda p: (lambda b: b[0]))
    with pytest.raises(TypeError, match="batch-transparent"):
        runner.run()


def test_stage_fanout_keeps_batch_form():
    # A stage kernel may expand scenarios (noise fan-out); the result
    # then stays a batch even when the input was a single waveform.
    fan = LinkSession(
        [lambda b: b.with_data(np.repeat(b.data, 4, axis=0))]).process
    wave = scenario_batch(1)[0]
    out = fan(wave)
    assert isinstance(out, WaveformBatch)      # 1 -> 4 rows stays a batch
    assert out.n_scenarios == 4


# -- sweep through the facade -------------------------------------------------

def test_session_sweep_batched_matches_serial_reference():
    def session_at(length_m):
        return LinkSession.from_configs(
            tx=TxConfig(), channel=ChannelConfig(length_m),
            rx=RxConfig(equalizer_control_voltage=0.6),
            cdr=CdrConfig(bit_rate=BIT_RATE))

    session = session_at(0.3)
    grid = ScenarioGrid([
        SweepAxis("length_m", (0.2, 0.5), structural=True),
        SweepAxis("seed", (1, 2, 3)),
    ])

    def stimulus(params):
        wave = bits_to_nrz(prbs7(220), BIT_RATE, amplitude=0.25,
                           samples_per_bit=16)
        return add_awgn(wave, 3e-3, seed=params["seed"])

    batched = session.sweep(grid, stimulus)
    # The serial reference: each scenario alone through LinkSession.run
    # on a session built at that scenario's channel length.
    serial = [session_at(params["length_m"]).run(stimulus(params))
              for params in grid.points()]
    heights = batched.values(lambda r: r.eye.eye_height)
    assert heights.shape == grid.shape
    np.testing.assert_array_equal(
        heights.ravel(), [r.eye.eye_height for r in serial])
    locks = batched.values(lambda r: float(r.cdr_locked))
    np.testing.assert_array_equal(
        locks.ravel(), [float(r.cdr_locked) for r in serial])
    assert np.all(locks == 1.0)


def test_session_sweep_nan_guard_sees_link_results():
    # The default measure returns LinkResult records: the guard must
    # look inside them, not treat a record as one opaque finite value.
    session = LinkSession.from_configs(
        channel=ChannelConfig(0.3), cdr=CdrConfig(bit_rate=BIT_RATE))
    grid = ScenarioGrid([SweepAxis("seed", (1, 2, 3))])

    def stimulus(params):
        wave = add_awgn(bits_to_nrz(prbs7(200), BIT_RATE, amplitude=0.25,
                                    samples_per_bit=16),
                        3e-3, seed=params["seed"])
        if params["seed"] == 2:
            data = wave.data.copy()
            data[500:510] = np.nan
            wave = wave.with_data(data)
        return wave

    plain = session.sweep(grid, stimulus)
    guarded = session.sweep(grid, stimulus, nan_guard=True,
                            on_error="quarantine", retry_backoff_s=0.0)
    assert [(f.params, f.kind) for f in guarded.failures] \
        == [({"seed": 2}, "non-finite")]
    assert guarded.results[1] is None
    for i in (0, 2):
        ours, theirs = guarded.results[i], plain.results[i]
        assert ours.eye == theirs.eye
        np.testing.assert_array_equal(ours.output.data, theirs.output.data)
        np.testing.assert_array_equal(ours.cdr.decisions,
                                      theirs.cdr.decisions)


def test_session_sweep_structural_rebuild_changes_the_chain():
    session = LinkSession.from_configs(channel=ChannelConfig(0.2))
    grid = ScenarioGrid([
        SweepAxis("length_m", (0.1, 1.2), structural=True),
        SweepAxis("seed", (1, 2)),
    ])

    def stimulus(params):
        wave = bits_to_nrz(prbs7(200), BIT_RATE, amplitude=0.25,
                           samples_per_bit=16)
        return add_awgn(wave, 1e-3, seed=params["seed"])

    heights = session.sweep(grid, stimulus).values(
        lambda r: r.eye.eye_height)
    # A 1.2 m backplane must close the eye relative to 0.1 m.
    assert np.all(heights[0] > heights[1])


def test_session_sweep_rejects_unknown_structural_axis():
    session = LinkSession.from_configs()
    grid = ScenarioGrid([SweepAxis("bogus_knob", (1, 2), structural=True),
                         SweepAxis("seed", (1,))])
    with pytest.raises(KeyError):
        session.sweep(grid, lambda p: scenario_batch(1)[0])


def test_session_sweep_structural_axes_require_configs():
    session = LinkSession([GainBlock(1.0)], bit_rate=BIT_RATE)
    grid = ScenarioGrid([SweepAxis("length_m", (0.1,), structural=True),
                         SweepAxis("seed", (1,))])
    with pytest.raises(ValueError):
        session.sweep(grid, lambda p: scenario_batch(1)[0])


NON_FINITE = pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                                     ids=["nan", "inf", "-inf"])
CONFIG_FIELDS = [(TxConfig, "spike_width_ui"), (TxConfig, "spike_current"),
                 (ChannelConfig, "length_m"),
                 (RxConfig, "equalizer_control_voltage"),
                 (DfeConfig, "decision_amplitude"),
                 (DfeConfig, "sample_phase_ui"), (DfeConfig, "skip_bits")]


@NON_FINITE
@pytest.mark.parametrize("config, field", CONFIG_FIELDS,
                         ids=[f"{c.__name__}.{f}" for c, f in CONFIG_FIELDS])
def test_configs_reject_non_finite_fields(config, field, value):
    # A NaN channel length or equalizer voltage used to build a session
    # whose every output sample was NaN; a NaN spike width failed deep
    # in the driver with a float-to-int conversion error.
    required = {"taps": (0.1,)} if config is DfeConfig else {}
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        config(**required, **{field: value})


@NON_FINITE
@pytest.mark.parametrize("index", [0, 1])
def test_dfe_config_rejects_non_finite_taps(index, value):
    taps = [0.1, -0.05]
    taps[index] = value
    with pytest.raises(ValueError, match=rf"^taps\[{index}\] must be finite"):
        DfeConfig(taps=tuple(taps))


def test_structural_sweep_checks_each_override():
    session = LinkSession.from_configs(channel=ChannelConfig(0.2))

    def stimulus(params):
        return scenario_batch(1)[0]

    finite = ScenarioGrid([SweepAxis("length_m", (0.1, 0.3), structural=True),
                           SweepAxis("seed", (1,))])
    heights = session.sweep(finite, stimulus).values(
        lambda r: r.eye.eye_height)
    assert np.isfinite(heights).all()
    bad = ScenarioGrid([SweepAxis("length_m", (0.1, math.nan),
                                  structural=True),
                        SweepAxis("seed", (1,))])
    with pytest.raises(ValueError, match="^length_m must be finite"):
        session.sweep(bad, stimulus)


# -- structural points sharing a chain prefix ---------------------------------
#
# Module-level stimulus and measure, so the pool can pickle them.

RX_CORNERS = (0.5, 0.6, 0.7)
SHARED_SEEDS = tuple(range(1, 7))
_STIMULUS_CALLS = []


def _seeded_prbs(params):
    _STIMULUS_CALLS.append(params)
    wave = bits_to_nrz(prbs7(64), BIT_RATE, amplitude=0.25,
                       samples_per_bit=8)
    return add_awgn(wave, 3e-3, seed=params["seed"])


def _eye_heights(batch, params):
    return [eye.eye_height
            for eye in measure_eye_batch(batch, BIT_RATE, skip_ui=16)]


def _corner_grid(*leading_axes):
    return ScenarioGrid([
        *leading_axes,
        SweepAxis("equalizer_control_voltage", RX_CORNERS, structural=True),
        SweepAxis("seed", SHARED_SEEDS),
    ])


def _eye_is_open(height, params):
    return height > 0.05


def _eye_reducers():
    return {"n": Count(), "extent": MinMax(), "moments": MeanVar(),
            "open": Yield(_eye_is_open)}


class _Counting:
    """A chain entry that records the batches it runs, then delegates."""

    def __init__(self, inner, log):
        self.inner = inner
        self.log = log

    def process(self, batch):
        self.log.append(batch)
        return self.inner.process(batch)


def _count_builds(monkeypatch, config_class, log):
    """Wrap every block ``config_class.build`` returns in a counter."""
    build = config_class.build

    def counted(self, *args):
        block = build(self, *args)
        return None if block is None else _Counting(block, log)

    monkeypatch.setattr(config_class, "build", counted)


@pytest.mark.parametrize("processes", [None, 2])
def test_shared_prefix_sweep_equals_each_points_own_session(processes):
    session = LinkSession.from_configs(TxConfig(), ChannelConfig(0.3))
    grid = _corner_grid()
    _STIMULUS_CALLS.clear()
    dense = session.sweep(grid, _seeded_prbs, measure=_eye_heights,
                          chunk_rows=4, processes=processes)
    # Under the pool, every stimulus ran in a worker.
    assert bool(_STIMULUS_CALLS) == (processes is None)
    streamed = session.sweep(grid, _seeded_prbs, measure=_eye_heights,
                             chunk_rows=4, processes=processes,
                             reducers=_eye_reducers(), keep_results=False)

    # Each point alone: its own session, one run_batch, nothing shared.
    seeds = WaveformBatch.stack(
        [_seeded_prbs({"seed": seed}) for seed in SHARED_SEEDS])
    expected = []
    for voltage in RX_CORNERS:
        point = LinkSession.from_configs(
            TxConfig(), ChannelConfig(0.3),
            RxConfig(equalizer_control_voltage=voltage))
        expected.extend(eye.eye_height
                        for eye in point.run_batch(seeds).eyes)
    assert dense.results == expected
    assert dense.params == list(grid.points())

    unshared = SweepRunner(
        grid, stimulus=_seeded_prbs, chunk_rows=4, measure=_eye_heights,
        build=lambda point: LinkSession.from_configs(
            TxConfig(), ChannelConfig(0.3), RxConfig(**point)).process,
        reducers=_eye_reducers(), keep_results=False).run()
    assert streamed.aggregates == unshared.aggregates
    assert streamed.aggregates["n"] == len(expected)


def test_transmitter_runs_once_per_chunk_and_channel_once_per_length(
        monkeypatch):
    tx_calls, channel_calls = [], []
    _count_builds(monkeypatch, TxConfig, tx_calls)
    _count_builds(monkeypatch, ChannelConfig, channel_calls)
    session = LinkSession.from_configs(TxConfig(), ChannelConfig(0.3))
    grid = _corner_grid(SweepAxis("length_m", (0.2, 0.5), structural=True))
    result = session.sweep(grid, _seeded_prbs, measure=_eye_heights,
                           chunk_rows=3)

    # 2 lengths x 3 rx corners x 2 row chunks of 3 seeds.
    assert [batch.n_scenarios for batch in tx_calls] == [3, 3]
    assert [batch.n_scenarios for batch in channel_calls] == [3] * 4
    assert len(result.results) == 2 * 3 * 6


def test_a_stimulus_reading_the_structural_value_gets_its_own_prefix(
        monkeypatch):
    tx_calls = []
    _count_builds(monkeypatch, TxConfig, tx_calls)

    def scaled(params):
        wave = _seeded_prbs(params)
        return wave.with_data(wave.data * params["equalizer_control_voltage"])

    session = LinkSession.from_configs(TxConfig(), ChannelConfig(0.3))
    grid = _corner_grid()
    result = session.sweep(grid, scaled, measure=_eye_heights, chunk_rows=3)

    assert len(tx_calls) == len(RX_CORNERS) * 2
    expected = []
    for voltage in RX_CORNERS:
        point = LinkSession.from_configs(
            TxConfig(), ChannelConfig(0.3),
            RxConfig(equalizer_control_voltage=voltage))
        stimuli = WaveformBatch.stack([
            scaled({"seed": seed, "equalizer_control_voltage": voltage})
            for seed in SHARED_SEEDS])
        expected.extend(eye.eye_height
                        for eye in point.run_batch(stimuli).eyes)
    assert result.results == expected


def test_shared_prefix_output_is_read_only_and_freed_with_the_sweep(
        monkeypatch):
    rx_inputs = []

    class Recorder:
        def __init__(self, inner):
            self.inner = inner

        def process(self, batch):
            rx_inputs.append((weakref.ref(batch.data),
                              batch.data.flags.writeable))
            return self.inner.process(batch)

    build = RxConfig.build
    monkeypatch.setattr(RxConfig, "build",
                        lambda self: Recorder(build(self)))
    session = LinkSession.from_configs(TxConfig(), ChannelConfig(0.3))
    session.sweep(_corner_grid(), _seeded_prbs, measure=_eye_heights,
                  chunk_rows=3)
    assert [writeable for _, writeable in rx_inputs] == [False] * 6
    assert all(data() is None for data, _ in rx_inputs)

    class InPlace:
        def process(self, batch):
            batch.data[...] *= 0.5
            return batch

    monkeypatch.setattr(RxConfig, "build", lambda self: InPlace())
    with pytest.raises(ValueError, match="read-only"):
        session.sweep(_corner_grid(), _seeded_prbs, measure=_eye_heights)


def test_shared_prefix_leaves_the_journal_key_alone(tmp_path):
    session = LinkSession.from_configs(TxConfig(), ChannelConfig(0.3))
    grid = _corner_grid()
    runner = SweepRunner(grid, stimulus=_seeded_prbs, chunk_rows=3,
                         build=session._builder_for(grid),
                         measure=_eye_heights)
    before = runner._fingerprint()
    first = runner.run(checkpoint_dir=tmp_path)
    assert runner._fingerprint() == before

    _STIMULUS_CALLS.clear()
    resumed = session.sweep(grid, _seeded_prbs, measure=_eye_heights,
                            chunk_rows=3, checkpoint_dir=tmp_path)
    assert _STIMULUS_CALLS == []
    assert resumed.results == first.results


# -- input validation ---------------------------------------------------------

def _nan_session():
    return LinkSession.from_configs(
        channel=ChannelConfig(0.3),
        rx=RxConfig(equalizer_control_voltage=0.6),
        cdr=CdrConfig(bit_rate=BIT_RATE),
        dfe=DfeConfig(taps=(0.05, 0.02), decision_amplitude=0.2))


def test_run_rejects_non_finite_input():
    # 100 NaN samples in a 300-bit PRBS7 stimulus used to come out as
    # 4800 NaN output samples with the CDR still reporting lock at bit 0.
    wave = bits_to_nrz(prbs7(300), BIT_RATE, amplitude=0.4,
                       samples_per_bit=16)
    data = wave.data.copy()
    data[1000:1100] = np.nan
    message = (r"^input has 100 non-finite samples \(first in row 0\); "
               r"LinkSession\.run/run_batch need finite waveforms$")
    with pytest.raises(ValueError, match=message):
        _nan_session().run(wave.with_data(data))


def test_run_batch_rejects_non_finite_input_naming_first_row():
    batch = scenario_batch(4)
    data = batch.data.copy()
    data[2, 10:13] = np.inf
    data[3, 50] = -np.inf
    data[3, 60] = np.nan
    bad = WaveformBatch(data, batch.sample_rate, t0=batch.t0)
    message = r"^input has 5 non-finite samples \(first in row 2\);"
    session = _nan_session()
    with pytest.raises(ValueError, match=message):
        session.run_batch(bad)
    with pytest.raises(ValueError, match=message):
        session.run_batch(bad, chunk_rows=1)
    with pytest.raises(ValueError, match=message):
        session.run_batch(bad.rows())
    # Finite input still runs.
    assert session.run_batch(batch).n_scenarios == 4


def test_too_short_waveform_names_the_session_minimum():
    # Used to fail deep in the eye code: "too short for an eye: 0 UI
    # after skipping".  Now both entry points reject it up front.
    wave = bits_to_nrz(prbs7(20), BIT_RATE, amplitude=0.4,
                       samples_per_bit=16)
    message = ("^waveform too short for this session: 20 UI, needs at "
               r"least 24 UI \(skip_ui=16 \+ 8 for the eye; 18 for the CDR; "
               r"5\.5625 for the DFE\)$")
    session = _nan_session()
    with pytest.raises(ValueError, match=message):
        session.run(wave)
    with pytest.raises(ValueError, match=message):
        session.run_batch(WaveformBatch.stack([wave] * 3))
    with pytest.raises(ValueError, match=message):
        session.run_batch(WaveformBatch.stack([wave] * 3), chunk_rows=1)
    # The minimum follows the configured measurements.
    bare = LinkSession([GainBlock(1.0)], bit_rate=BIT_RATE, skip_ui=4,
                       cdr=CdrConfig(bit_rate=BIT_RATE))
    with pytest.raises(ValueError, match=r"needs at least 18 UI \(skip_ui=4 "
                                         r"\+ 8 for the eye; 18 for the CDR\)$"):
        bare.run(bits_to_nrz(prbs7(17), BIT_RATE, samples_per_bit=16))
    # Exactly the minimum runs.
    long_enough = bits_to_nrz(prbs7(24), BIT_RATE, amplitude=0.4,
                              samples_per_bit=16)
    assert session.run(long_enough).cdr is not None


def test_too_short_waveform_is_rejected_before_any_stage_runs():
    calls = []

    def recording(batch):
        calls.append(batch.n_scenarios)
        return batch

    session = LinkSession([recording], bit_rate=BIT_RATE)
    short = bits_to_nrz(prbs7(23), BIT_RATE, samples_per_bit=16)
    with pytest.raises(ValueError, match="needs at least 24 UI"):
        session.run(short)
    with pytest.raises(ValueError, match="needs at least 24 UI"):
        session.run_batch(WaveformBatch.stack([short] * 2))
    assert calls == []
    session.run(bits_to_nrz(prbs7(24), BIT_RATE, samples_per_bit=16))
    assert calls == [1]


@pytest.mark.parametrize("samples_per_ui", [3, 5, 7, 10, 12])
def test_cdr_minimum_is_checked_with_the_cdrs_own_ui_count(samples_per_ui):
    # At 1 Gb/s these sample rates put exactly min_ui() UI of samples
    # one rounding short of min_ui() whole UI in the CDR's count: the
    # facade must reject the waveform itself, not let the CDR do it
    # after the stages ran.
    calls = []

    def recording(batch):
        calls.append(batch.n_scenarios)
        return batch

    bit_rate = 1e9
    config = CdrConfig(bit_rate=bit_rate)
    min_ui = BangBangCdr(config).min_ui()
    session = LinkSession([recording], bit_rate=bit_rate, cdr=config,
                          measure_eye=False)
    wave = bits_to_nrz(prbs7(min_ui), bit_rate,
                       samples_per_bit=samples_per_ui)
    message = (f"^waveform too short for this session: {min_ui} UI "
               rf"\({min_ui - 1} as the CDR counts them\), needs at least "
               rf"{min_ui} UI \({min_ui} for the CDR\)$")
    with pytest.raises(ValueError, match=message):
        session.run(wave)
    with pytest.raises(ValueError, match=message):
        session.run_batch(WaveformBatch.stack([wave] * 2))
    assert calls == []
    longer = bits_to_nrz(prbs7(min_ui + 1), bit_rate,
                         samples_per_bit=samples_per_ui)
    assert session.run(longer).cdr is not None
    assert calls == [1]


def test_run_measures_the_eye_of_a_non_integer_samples_per_ui_wave():
    # The eye resamples 15.5 samples/UI row by row, as the
    # per-waveform oracle does, so run() and run_batch() measure it.
    from serial_oracles import eye_diagram

    session = LinkSession.from_configs(
        channel=ChannelConfig(0.2),
        rx=RxConfig(equalizer_control_voltage=0.6))
    wave = bits_to_nrz(prbs7(120), BIT_RATE, amplitude=0.4,
                       samples_per_bit=16).resampled(15.5 * BIT_RATE)
    result = session.run(wave)
    expected = eye_diagram(session.process(wave), BIT_RATE,
                           skip_ui=session.skip_ui).measure()
    assert result.eye == expected
    assert result.eye.is_open
    batched = session.run_batch(WaveformBatch.stack([wave] * 2))
    assert batched.eyes == [expected, expected]


# -- deprecations -------------------------------------------------------------

def test_repro_package_never_triggers_its_own_deprecations(recwarn):
    """The repo is migrated: facade runs emit no DeprecationWarning."""
    session = LinkSession.from_configs(tx=None, channel=None,
                                       cdr=CdrConfig(bit_rate=BIT_RATE),
                                       dfe=DfeConfig(taps=(0.02,)))
    session.run_batch(scenario_batch(2))
    session.run_framed(b"quiet", training_commas=24, training_bytes=4)
    assert not [w for w in recwarn.list
                if issubclass(w.category, DeprecationWarning)]


# -- public exports -----------------------------------------------------------

def test_public_exports_cover_the_facade_and_kernel():
    import repro
    import repro.signals

    import repro.link

    for name in ("LinkSession", "TxConfig", "ChannelConfig", "RxConfig",
                 "DfeConfig"):
        assert name in repro.__all__, name
        assert getattr(repro, name) is getattr(repro.link, name), name
    for name in ("LinkResult", "LinkBatchResult", "run_framed_link"):
        assert name in repro.link.__all__, name
    # One chain protocol: the Stage adapter layer is gone.
    for name in ("Stage", "BlockStage", "stage"):
        assert name not in repro.__all__, name
        assert name not in repro.link.__all__, name
        assert not hasattr(repro, name), name
    assert repro.signals.sample_uniform is sample_uniform
    # The kernel really is the shared interpolator.
    out = sample_uniform(np.array([0.0, 1.0]), 0.0, 1.0, 0.5)
    assert float(out) == 0.5


# -- rates and knobs checked at the facade -----------------------------------

def test_session_rejects_a_cdr_config_at_another_rate():
    with pytest.raises(ValueError, match="5e[+]09.*1e[+]10"):
        LinkSession.from_configs(cdr=CdrConfig(bit_rate=5e9),
                                 bit_rate=10e9)
    with pytest.raises(ValueError, match="5e[+]09.*1e[+]10"):
        LinkSession([], cdr=CdrConfig(bit_rate=5e9), bit_rate=10e9)


def test_session_rejects_a_ready_dfe_at_another_rate():
    dfe = DecisionFeedbackEqualizer(taps=(0.05,), bit_rate=5e9)
    with pytest.raises(ValueError, match="DFE.*5e[+]09.*1e[+]10"):
        LinkSession.from_configs(dfe=dfe, bit_rate=10e9)


def test_framed_link_rejects_a_cdr_config_at_another_rate():
    with pytest.raises(ValueError, match="5e[+]09.*1e[+]10"):
        run_framed_link(b"rate", path=lambda w: w, bit_rate=10e9,
                        cdr=CdrConfig(bit_rate=5e9))


def test_dfe_skip_bits_comes_from_the_config_only():
    wave = bits_to_nrz(prbs7(200), BIT_RATE, amplitude=0.4,
                       samples_per_bit=16)
    session = LinkSession.from_configs(
        tx=None, channel=None, rx=None, measure_eye=False,
        dfe=DfeConfig(taps=(0.05,), skip_bits=40))
    assert session.dfe_skip_bits == 40
    height = session.run(wave).dfe_inner_eye_height
    assert height == SerialDfe(session.dfe).inner_eye_height(wave, 40)
    ready = DecisionFeedbackEqualizer(taps=(0.05,), bit_rate=BIT_RATE)
    assert LinkSession([], dfe=ready).dfe_skip_bits == 16
    with pytest.raises(TypeError):
        LinkSession([], dfe=ready, dfe_skip_bits=40)
    with pytest.raises(TypeError):
        run_framed_link(b"knob", path=lambda w: w, cdr_kp=4e-3)
