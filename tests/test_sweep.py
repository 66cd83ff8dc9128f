"""Sweep subsystem: grid geometry, axis partitioning, runner equivalence,
and the runner's exception policy."""

import functools
import os

import numpy as np
import pytest

from repro.analysis import measure_eye_batch
from repro.lti import GainBlock, LinearBlock, Pipeline, TanhLimiter, \
    first_order_lowpass
from repro.signals import Waveform, bits_to_nrz, prbs7
from repro.sweep import ScenarioGrid, SweepAxis, SweepRunner
from serial_oracles import SerialCdr, SerialDfe, serial_sweep

BIT_RATE = 10e9
FS = 160e9


# -- grid ---------------------------------------------------------------------

def test_axis_validation():
    with pytest.raises(ValueError):
        SweepAxis("empty", ())
    with pytest.raises(ValueError):
        SweepAxis("", (1,))
    assert len(SweepAxis("x", (1, 2, 3))) == 3


def test_grid_shape_and_partition():
    grid = ScenarioGrid([
        SweepAxis("corner", ("ss", "tt", "ff"), structural=True),
        SweepAxis("seed", (0, 1, 2, 3)),
        SweepAxis("amplitude", (0.1, 0.2)),
    ])
    assert grid.shape == (3, 4, 2)
    assert grid.n_scenarios == 24
    assert [a.name for a in grid.structural_axes()] == ["corner"]
    assert [a.name for a in grid.batch_axes()] == ["seed", "amplitude"]
    assert grid.n_batch_scenarios() == 8
    assert len(list(grid.structural_points())) == 3
    assert len(list(grid.batch_points())) == 8


def test_grid_rejects_duplicate_names():
    with pytest.raises(ValueError):
        ScenarioGrid([SweepAxis("x", (1,)), SweepAxis("x", (2,))])
    with pytest.raises(ValueError):
        ScenarioGrid([])


def test_points_order_is_row_major_and_flat_index_inverts_it():
    grid = ScenarioGrid([
        SweepAxis("a", (10, 20), structural=True),
        SweepAxis("b", ("x", "y", "z")),
    ])
    points = list(grid.points())
    assert points[0] == {"a": 10, "b": "x"}
    assert points[1] == {"a": 10, "b": "y"}
    assert points[3] == {"a": 20, "b": "x"}
    for i, point in enumerate(points):
        assert grid.flat_index(point) == i


def test_batch_points_slice_matches_enumeration():
    grid = ScenarioGrid([
        SweepAxis("corner", ("ss", "tt"), structural=True),
        SweepAxis("seed", (0, 1, 2)),
        SweepAxis("amplitude", (0.1, 0.2)),
    ])
    dense = list(grid.batch_points())
    for start, stop in [(0, 6), (0, 0), (2, 5), (4, 99), (-3, 2), (6, 6)]:
        assert grid.batch_points_slice(start, stop) == dense[
            max(0, start):max(0, stop)]
    # All-structural grids have the single empty batch point.
    solo = ScenarioGrid([SweepAxis("corner", ("ss",), structural=True)])
    assert solo.batch_points_slice(0, 1) == [{}]
    assert solo.batch_points_slice(1, 2) == []


def test_flat_index_validation():
    grid = ScenarioGrid([SweepAxis("a", (1, 2))])
    with pytest.raises(KeyError):
        grid.flat_index({"b": 1})
    with pytest.raises(ValueError):
        grid.flat_index({"a": 99})


# -- runner -------------------------------------------------------------------

def _stimulus(params):
    base = bits_to_nrz(prbs7(24, seed=2), BIT_RATE,
                       amplitude=params["amplitude"], samples_per_bit=16)
    return base


def _build(params):
    return Pipeline([
        LinearBlock(first_order_lowpass(params["pole_hz"], gain=2.0)),
        TanhLimiter(gain=3.0, limit=0.4),
    ])


def test_run_matches_serial_sweep_exactly():
    grid = ScenarioGrid([
        SweepAxis("pole_hz", (4e9, 8e9), structural=True),
        SweepAxis("amplitude", (0.05, 0.1, 0.3)),
    ])
    runner = SweepRunner(grid, stimulus=_stimulus, build=_build)
    batched = runner.run()
    serial = serial_sweep(runner)
    assert len(batched) == len(serial) == 6
    for p_b, p_s, r_b, r_s in zip(batched.params, serial.params,
                                  batched.results, serial.results):
        assert p_b == p_s
        assert np.max(np.abs(r_b.data - r_s.data)) <= 1e-12


def test_run_with_measure_and_values_reshape():
    grid = ScenarioGrid([
        SweepAxis("pole_hz", (4e9, 8e9), structural=True),
        SweepAxis("amplitude", (0.05, 0.1, 0.3)),
    ])
    runner = SweepRunner(
        grid, stimulus=_stimulus, build=_build,
        measure=lambda batch, params: np.ptp(batch.data, axis=1).tolist(),
    )
    result = runner.run()
    swings = result.values(lambda v: v)
    assert swings.shape == (2, 3)
    # Larger input amplitude -> larger output swing, at every pole.
    assert np.all(np.diff(swings, axis=1) > 0)
    assert result.along("amplitude") == (0.05, 0.1, 0.3)
    with pytest.raises(KeyError):
        result.along("nope")


def test_batch_measure_matches_per_row_measure_oracle():
    grid = ScenarioGrid([SweepAxis("amplitude", (0.1, 0.2, 0.4))])
    stimulus = lambda p: bits_to_nrz(prbs7(60, seed=1), BIT_RATE,
                                     amplitude=p["amplitude"],
                                     samples_per_bit=16)
    build = lambda p: GainBlock(2.0)
    from repro.analysis import EyeDiagram
    runner = SweepRunner(
        grid, stimulus=stimulus, build=build,
        measure=lambda batch, _:
            measure_eye_batch(batch, BIT_RATE, skip_ui=8),
    )
    per_row = serial_sweep(
        runner, measure_row=lambda wave, _:
            EyeDiagram.measure_waveform(wave, BIT_RATE, skip_ui=8))
    assert runner.run().results == per_row.results


@pytest.mark.parametrize("stale", [
    lambda wave, params: float(np.ptp(wave.data)),      # a scalar
    lambda batch, params: [0.0],                        # one result
])
def test_measure_with_wrong_result_shape_names_the_signature(stale):
    runner = SweepRunner(
        ScenarioGrid([SweepAxis("amplitude", (0.1, 0.5))]),
        stimulus=lambda p: Waveform(np.full(8, p["amplitude"]), FS),
        measure=stale,
    )
    with pytest.raises(ValueError,
                       match=r"for 2 scenarios: SweepRunner calls "
                             r"measure\(batch, params_list\)"):
        runner.run()


def test_measurement_only_sweep_without_build():
    grid = ScenarioGrid([SweepAxis("amplitude", (0.1, 0.5))])
    result = SweepRunner(
        grid,
        stimulus=lambda p: Waveform(
            np.full(8, p["amplitude"]), FS),
        measure=lambda batch, p: batch.data.mean(axis=1).tolist(),
    ).run()
    assert result.results == [pytest.approx(0.1), pytest.approx(0.5)]


def first_samples(batch, params):
    return batch.data[:, 0].tolist()


def test_structural_only_grid_runs_one_scenario_per_point():
    grid = ScenarioGrid([
        SweepAxis("gain", (1.0, 2.0, 3.0), structural=True),
    ])
    result = SweepRunner(
        grid,
        stimulus=lambda p: Waveform(np.ones(8), FS),
        build=lambda p: GainBlock(p["gain"]),
        measure=first_samples,
    ).run()
    assert result.results == [1.0, 2.0, 3.0]


def test_duplicate_axis_values_keep_every_scenario():
    # Quantized Monte Carlo draws can repeat; each point must keep its
    # own slot (results are scattered positionally, not by value).
    grid = ScenarioGrid([
        SweepAxis("gain", (2.0, 2.0), structural=True),
        SweepAxis("level", (0.5, 0.5, 1.0)),
    ])
    result = SweepRunner(
        grid,
        stimulus=lambda p: Waveform(np.full(8, p["level"]), FS),
        build=lambda p: GainBlock(p["gain"]),
        measure=first_samples,
    ).run()
    assert None not in result.params
    assert result.results == [1.0, 1.0, 2.0, 1.0, 1.0, 2.0]


def test_process_pool_falls_back_on_unpicklable_callables():
    grid = ScenarioGrid([
        SweepAxis("gain", (1.0, 2.0), structural=True),
    ])
    # Lambdas cannot cross a process boundary; the runner must still
    # deliver correct results in-process — but loudly, naming the
    # callables that blocked the pool.
    runner = SweepRunner(
        grid,
        stimulus=lambda p: Waveform(np.ones(8), FS),
        build=lambda p: GainBlock(p["gain"]),
        measure=lambda batch, p: batch.data[:, 0].tolist(),
        processes=2,
    )
    with pytest.warns(RuntimeWarning, match="stimulus, build, measure"):
        result = runner.run()
    assert result.results == [1.0, 2.0]


def test_pool_probe_does_not_swallow_non_pickling_errors():
    class ExplodingState:
        def __call__(self, params):
            return Waveform(np.ones(8), FS)

        def __getstate__(self):
            raise ValueError("stateful runner refused serialization")

    runner = SweepRunner(
        ScenarioGrid([SweepAxis("gain", (1.0, 2.0), structural=True)]),
        stimulus=ExplodingState(),
        measure=first_samples,
        processes=2,
    )
    # A __getstate__ that raises a non-pickling error is a bug in the
    # user's object, not an unpicklable callable: it must propagate.
    with pytest.raises(ValueError, match="refused serialization"):
        runner.run()


# -- exception policy ---------------------------------------------------------

def interrupt_once(log, batch, params_list):
    """Batch measure that raises ``KeyboardInterrupt`` the first time it
    meets the scenario (8 GHz, 0.1 V).  Every call on that scenario
    appends the calling process id to ``log`` (one ``O_APPEND`` line,
    so attempts are counted across pool workers)."""
    if {"pole_hz": 8e9, "amplitude": 0.1} in params_list:
        with open(log, "a+") as handle:
            handle.write(f"{os.getpid()}\n")
            handle.seek(0)
            first = len(handle.read().split()) == 1
        if first:
            raise KeyboardInterrupt
    return batch.data[:, 0].tolist()


@pytest.mark.parametrize("processes", [1, 2])
def test_base_exception_propagates_without_retry(tmp_path, processes):
    # Only Exception is retried or quarantined: a KeyboardInterrupt
    # propagates on its first raise, even under quarantine with retries
    # to spare, and the journal it leaves resumes bit for bit.
    grid = ScenarioGrid([
        SweepAxis("pole_hz", (4e9, 8e9), structural=True),
        SweepAxis("amplitude", (0.05, 0.1, 0.3)),
    ])
    log = tmp_path / "calls"
    runner = SweepRunner(
        grid, stimulus=_stimulus, build=_build,
        measure=functools.partial(interrupt_once, str(log)),
        chunk_rows=1, on_error="quarantine", max_attempts=3,
        retry_backoff_s=0.0, processes=processes)
    with pytest.raises(KeyboardInterrupt):
        runner.run(checkpoint_dir=tmp_path / "ckpt")
    calls = log.read_text().split()
    assert len(calls) == 1                  # ran once, never retried
    assert (calls[0] == str(os.getpid())) == (processes == 1)
    resumed = runner.run(checkpoint_dir=tmp_path / "ckpt")
    reference = SweepRunner(grid, stimulus=_stimulus, build=_build,
                            measure=first_samples).run()
    assert resumed.params == reference.params
    assert resumed.results == reference.results
    assert resumed.failures == []


# -- closed-loop CDR measure path ---------------------------------------------

def test_closed_loop_cdr_measure_batched_matches_serial():
    from repro.cdr import CdrConfig, CdrResult
    from repro.signals import NrzEncoder, RandomJitter
    from repro.sweep import closed_loop_cdr_measure

    n_bits = 200
    bits = prbs7(n_bits)
    encoder = NrzEncoder(bit_rate=BIT_RATE, samples_per_bit=8,
                         amplitude=0.4)

    def stimulus(params):
        jitter = RandomJitter(2e-12, seed=params["seed"])
        return encoder.encode(
            bits, edge_offsets=jitter.offsets(n_bits, BIT_RATE))

    grid = ScenarioGrid([SweepAxis("seed", tuple(range(1, 9)))])
    config = CdrConfig(bit_rate=BIT_RATE, kp=8e-3)
    runner = SweepRunner(grid, stimulus=stimulus,
                         measure=closed_loop_cdr_measure(config))

    batched = runner.run()
    serial = serial_sweep(
        runner, measure_row=lambda wave, _: SerialCdr(config).recover(wave))
    assert len(batched.results) == grid.n_scenarios
    for from_batch, reference in zip(batched.results, serial.results):
        assert isinstance(from_batch, CdrResult)
        np.testing.assert_array_equal(from_batch.decisions,
                                      reference.decisions)
        np.testing.assert_array_equal(from_batch.phase_track_ui,
                                      reference.phase_track_ui)
        assert from_batch.locked_at_bit == reference.locked_at_bit
        assert from_batch.slips == reference.slips


def test_closed_loop_cdr_measure_reduce_and_n_bits():
    from repro.cdr import CdrConfig
    from repro.sweep import closed_loop_cdr_measure

    grid = ScenarioGrid([SweepAxis("amplitude", (0.2, 0.4, 0.8))])

    def stimulus(params):
        return bits_to_nrz(prbs7(200), BIT_RATE,
                           amplitude=params["amplitude"],
                           samples_per_bit=8)

    measure = closed_loop_cdr_measure(
        CdrConfig(bit_rate=BIT_RATE, kp=8e-3), n_bits=160,
        reduce=lambda r, p: (p["amplitude"], len(r.decisions),
                             r.is_locked))
    runner = SweepRunner(grid, stimulus=stimulus, measure=measure)
    batched = runner.run()
    assert batched.results == serial_sweep(runner).results
    for (amplitude, n_decisions, locked), params in zip(batched.results,
                                                        batched.params):
        assert amplitude == params["amplitude"]
        assert n_decisions == 160
        assert locked


# -- DFE measure path ---------------------------------------------------------

def test_dfe_measure_sweep_batched_matches_serial():
    from repro.baselines import DecisionFeedbackEqualizer
    from repro.channel import BackplaneChannel
    from repro.signals import add_awgn
    from repro.sweep import dfe_measure

    channel = BackplaneChannel(0.4)
    base = bits_to_nrz(prbs7(80), BIT_RATE, amplitude=1.0,
                       samples_per_bit=16)

    def stimulus(params):
        return add_awgn(base * params["amplitude"], 5e-3,
                        seed=params["seed"])

    grid = ScenarioGrid([
        SweepAxis("amplitude", (0.8, 1.0)),
        SweepAxis("seed", tuple(range(1, 5))),
    ])
    dfe = DecisionFeedbackEqualizer(taps=[0.05, 0.01], bit_rate=BIT_RATE)
    runner = SweepRunner(grid, stimulus=stimulus, build=lambda p: channel,
                         measure=dfe_measure(dfe))

    batched = runner.run()
    serial = serial_sweep(
        runner, measure_row=lambda wave, _:
            SerialDfe(dfe).inner_eye_height(wave, skip_bits=16))
    assert batched.results == serial.results
    assert all(isinstance(height, float) for height in batched.results)


def test_dfe_measure_reduce_hook():
    from repro.baselines import DecisionFeedbackEqualizer
    from repro.sweep import dfe_measure

    base = bits_to_nrz(prbs7(60), BIT_RATE, amplitude=0.4,
                       samples_per_bit=16)
    grid = ScenarioGrid([SweepAxis("scale", (0.5, 1.0, 1.5))])
    dfe = DecisionFeedbackEqualizer(taps=[0.03], bit_rate=BIT_RATE)
    measure = dfe_measure(
        dfe, reduce=lambda result, params: int(result[0].sum()))
    runner = SweepRunner(grid,
                         stimulus=lambda p: base * p["scale"],
                         measure=measure)
    batched = runner.run()
    assert batched.results == serial_sweep(runner).results
    assert all(isinstance(value, int) for value in batched.results)
