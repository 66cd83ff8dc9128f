"""The ``LinkSession`` facade vs the hand-batched path it replaced.

The api-redesign PR routes every serial/batch method pair through one
dispatching code path (``repro.link``).  This bench pins the two
contracts that redesign must honor:

* **row-exactness** — a ≥500-scenario study (one jittered PRBS pattern
  per scenario, each with its own noise draw) produces identical
  per-row outputs, eye measurements and CDR results whether it is run
  through ``LinkSession.run_batch`` or through the pre-redesign
  hand-batched sequence (batch-transparent ``rx.process``, then
  ``measure_eye_batch``, then the batched CDR kernel);
* **overhead < 5 %** — the facade adds dispatch and report assembly
  only; its wall clock must stay within 5 % of the hand-batched path.

A second section checks ``LinkSession.sweep`` against a hand-built
:class:`~repro.sweep.runner.SweepRunner` over the same grid.

``BENCH_LINK_SCENARIOS`` shrinks the scenario count for CI smoke runs;
the overhead gate is only enforced at full scale (row-exactness always
is).
"""

import os
import time

import numpy as np

from conftest import run_once
from repro import ChannelConfig, LinkSession, RxConfig
from repro.analysis import measure_eye_batch
from repro.cdr import BangBangCdr, CdrConfig
from repro.core import build_input_interface
from repro.link import CdrStage
from repro.reporting import format_table
from repro.signals import NrzEncoder, RandomJitter, WaveformBatch, \
    add_awgn, bits_to_nrz, prbs7
from repro.sweep import ScenarioGrid, SweepAxis, SweepRunner

BIT_RATE = 10e9
N_SCENARIOS = int(os.environ.get("BENCH_LINK_SCENARIOS", "500"))
N_BITS = 280
SAMPLES_PER_BIT = 8
SKIP_UI = 16
OVERHEAD_CEILING = 1.05

CDR_CONFIG = CdrConfig(bit_rate=BIT_RATE, kp=8e-3, ki=2e-5)


def make_batch(n_scenarios, amplitude=0.02):
    """One jittered + noisy PRBS waveform per scenario (rx-input scale)."""
    encoder = NrzEncoder(bit_rate=BIT_RATE, samples_per_bit=SAMPLES_PER_BIT,
                         amplitude=amplitude)
    bits = prbs7(N_BITS)
    waves = []
    for seed in range(1, n_scenarios + 1):
        jitter = RandomJitter(3e-12, seed=seed)
        wave = encoder.encode(bits,
                              edge_offsets=jitter.offsets(N_BITS, BIT_RATE))
        waves.append(add_awgn(wave, rms_volts=0.002, seed=seed))
    return WaveformBatch.stack(waves)


def hand_batched(rx, batch):
    """The pre-redesign sequence: batch-transparent process + batched
    eye measurement + the batched CDR kernel, called by hand."""
    out = rx.process(batch)
    eyes = measure_eye_batch(out, BIT_RATE, skip_ui=SKIP_UI)
    cdr = CdrStage(BangBangCdr(CDR_CONFIG)).recover(out)
    return out, eyes, cdr


def test_facade_row_exact_and_overhead(save_report):
    batch = make_batch(N_SCENARIOS)
    rx = build_input_interface()
    session = LinkSession([rx], bit_rate=BIT_RATE, cdr=CDR_CONFIG,
                          skip_ui=SKIP_UI)

    # Warm both paths on a slice so first-call overheads cancel, then
    # take the best of three timings per path (the workloads are
    # identical kernels; best-of damps scheduler noise).
    session.run_batch(batch[:2])
    hand_batched(rx, batch[:2])

    t_facade = min(_timed(lambda: session.run_batch(batch))
                   for _ in range(3))
    t_hand = min(_timed(lambda: hand_batched(rx, batch))
                 for _ in range(3))
    result = session.run_batch(batch)
    out, eyes, cdr = hand_batched(rx, batch)

    overhead = t_facade / t_hand - 1.0
    save_report("link_session_overhead", format_table([{
        "scenarios": N_SCENARIOS,
        "bits/scenario": N_BITS,
        "hand-batched (s)": t_hand,
        "facade (s)": t_facade,
        "overhead (%)": 100 * overhead,
        "lock yield (%)": 100 * result.lock_yield(),
    }]))

    np.testing.assert_array_equal(result.output.data, out.data)
    assert result.eyes == eyes
    np.testing.assert_array_equal(result.cdr.decisions, cdr.decisions)
    np.testing.assert_array_equal(result.cdr.phase_track_ui,
                                  cdr.phase_track_ui)
    np.testing.assert_array_equal(result.cdr.locked_at_bit,
                                  cdr.locked_at_bit)
    np.testing.assert_array_equal(result.cdr.slips, cdr.slips)
    assert result.lock_yield() > 0.95
    # Row-exactness is always enforced; the wall-clock gate only at
    # full scale (smoke runs time tens of milliseconds, where a CI
    # scheduler hiccup would make the ratio meaningless).
    if N_SCENARIOS >= 500:
        assert overhead < OVERHEAD_CEILING - 1.0, (
            f"facade overhead {100 * overhead:.1f}% exceeds "
            f"{100 * (OVERHEAD_CEILING - 1.0):.0f}%"
        )


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_facade_sweep_matches_hand_built_runner(benchmark, save_report):
    """LinkSession.sweep reproduces a hand-assembled SweepRunner."""
    n_seeds = max(4, N_SCENARIOS // 25)
    session = LinkSession.from_configs(
        tx=None, channel=ChannelConfig(0.3),
        rx=RxConfig(equalizer_control_voltage=0.6), skip_ui=SKIP_UI)
    grid = ScenarioGrid([
        SweepAxis("length_m", (0.2, 0.5), structural=True),
        SweepAxis("seed", tuple(range(1, n_seeds + 1))),
    ])

    def stimulus(params):
        wave = bits_to_nrz(prbs7(N_BITS), BIT_RATE, amplitude=0.25,
                           samples_per_bit=SAMPLES_PER_BIT)
        return add_awgn(wave, 3e-3, seed=params["seed"])

    def hand_build(params):
        from repro.channel import BackplaneChannel
        from repro.lti import Pipeline

        rx = build_input_interface(equalizer_control_voltage=0.6)
        return Pipeline([BackplaneChannel(params["length_m"]),
                         rx.to_pipeline()])

    hand_runner = SweepRunner(
        grid, stimulus=stimulus, build=hand_build,
        measure=lambda batch, _:
            measure_eye_batch(batch, BIT_RATE, skip_ui=SKIP_UI))

    def compare():
        facade = session.sweep(grid, stimulus).values(
            lambda r: r.eye.eye_height)
        hand = hand_runner.run().values(lambda m: m.eye_height)
        return facade, hand

    facade, hand = run_once(benchmark, compare)
    save_report("link_session_sweep", format_table([{
        "structural points": 2,
        "seeds": n_seeds,
        "max |facade - hand| (V)": float(np.max(np.abs(facade - hand))),
        "open eyes (%)": 100 * float(np.mean(facade > 0)),
    }]))
    np.testing.assert_array_equal(facade, hand)
    assert np.all(facade > 0)
