"""The batched closed-loop CDR engine vs the serial per-scenario loop.

PR 1 stopped batching at the analog front end; this bench pins the
contract for the last serial layers.  A ≥500-scenario study — one
jittered PRBS pattern per scenario, each with its own noise draw — is
recovered twice:

* **batched**: one :meth:`~repro.cdr.BangBangCdr.recover` call on the
  whole batch solves all N bang-bang loops together, a window of
  bit-steps per fixed-point sweep, with vectorized interpolation
  sampling, vectorized Alexander votes and per-row
  phase/integral/slip state;
* **serial**: :meth:`~repro.cdr.BangBangCdr.recover` per scenario — each
  waveform run as a batch of one through the same kernel.

Acceptance: the batched path is >= 5x faster wall-clock, and every
row's decisions, phase track, votes, lock index and slip count match
the scalar reference loop (``tests/serial_oracles.py``) exactly.

The same record holds the kernel's own cost at three shapes: one
1000-bit record at 16 samples/bit through the paper's tx -> 0.3 m
channel -> rx chain (the ``link_single`` benchmark request), 64 such
rows of 300 bits (``link_batch``) and the scenarios above.  Each shape
records the best kernel time and the kernel's work: its sweeps (one
commit each), its passes (one evaluation of a sweep's window each) and
the row-steps it evaluated per step it committed.

A second section exercises the framed link end to end:
:func:`~repro.link.run_framed_link` serializes a payload once, fans it
out over per-scenario noise, recovers all scenarios with one batched
CDR pass and decodes each stream — producing a frame-error-rate /
lock-yield table per noise level.

``BENCH_CDR_SCENARIOS`` shrinks the scenario count for CI smoke runs,
and with it the single record (300 bits) and the kernel-time repeats;
the speedup floor is only enforced at full scale (row-exactness always
is).
"""

import os
import time

import numpy as np
import pytest

from conftest import run_once
from serial_oracles import SerialCdr, run_link, serial_sweep
from repro import kernels
from repro.cdr import BangBangCdr, CdrConfig
from repro.reporting import format_table
from repro.signals import (
    NrzEncoder,
    RandomJitter,
    WaveformBatch,
    add_awgn,
    bits_to_nrz,
    prbs7,
    prbs15,
)
from repro.link import ChannelConfig, LinkSession, RxConfig, run_framed_link
from repro.sweep import ScenarioGrid, SweepAxis, SweepRunner, \
    closed_loop_cdr_measure

BIT_RATE = 10e9
N_SCENARIOS = int(os.environ.get("BENCH_CDR_SCENARIOS", "500"))
N_BITS = 280
SAMPLES_PER_BIT = 8
SPEEDUP_FLOOR = 5.0
FULL_SCALE = N_SCENARIOS >= 500
# Kernel-time repeats (best of) per shape: single record, 64 rows, the
# scenarios.
REPEATS = (20, 10, 3) if FULL_SCALE else (3, 2, 1)


def make_batch(n_scenarios):
    """One jittered + noisy PRBS waveform per scenario."""
    encoder = NrzEncoder(bit_rate=BIT_RATE, samples_per_bit=SAMPLES_PER_BIT,
                         amplitude=0.4)
    bits = prbs7(N_BITS)
    waves = []
    for seed in range(1, n_scenarios + 1):
        jitter = RandomJitter(3e-12, seed=seed)
        wave = encoder.encode(bits,
                              edge_offsets=jitter.offsets(N_BITS, BIT_RATE))
        waves.append(add_awgn(wave, rms_volts=0.02, seed=seed))
    return WaveformBatch.stack(waves)


def chain_output(n_bits, seeds, pattern):
    """The paper's chain output for one 0.25 V, 16 samples/bit NRZ
    pattern with 3 mV AWGN per seed: the benchmark's link requests."""
    session = LinkSession.from_configs(
        channel=ChannelConfig(0.3),
        rx=RxConfig(equalizer_control_voltage=0.6))
    wave = bits_to_nrz(pattern(n_bits), BIT_RATE, amplitude=0.25,
                       samples_per_bit=16)
    return session.process(WaveformBatch.with_noise_seeds(wave, 3e-3, seeds))


def kernel_work(cdr, batch, repeats):
    """Best kernel time of ``cdr.recover(batch)``, and the kernel's
    sweeps, passes and row-steps evaluated per step committed."""
    calls, per_sweep, evaluated = [], [], []
    kernel = kernels.cdr_recover_batch
    sample, passes = kernels.sample_uniform, kernels._passes

    def counted_sample(data, t0, sample_rate, times, row_offsets=None):
        if per_sweep:        # not the step-0 sample before the sweeps
            per_sweep[-1] += 1
            evaluated.append(np.size(times) // 2)
        return sample(data, t0, sample_rate, times, row_offsets)

    def counted_passes(n_rows):
        per_sweep.append(0)
        return passes(n_rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "cdr_recover_batch",
                      lambda *args: calls.append(args) or kernel(*args))
        patch.setattr(kernels, "sample_uniform", counted_sample)
        patch.setattr(kernels, "_passes", counted_passes)
        result = cdr.recover(batch)
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel(*calls[0])
        best = min(best, time.perf_counter() - t0)
    # Every step but step 0 of a row is committed by a sweep.
    committed = int(np.maximum(result.n_bits - 1, 0).sum())
    return {
        "rows": batch.n_scenarios,
        "bits": int(result.decisions.shape[1]),
        "kernel_ms": 1e3 * best,
        "sweeps": len(per_sweep),
        "passes": sum(per_sweep),
        "row_steps_per_step": sum(evaluated) / committed,
    }


def test_batched_cdr_speedup_and_row_exactness(save_report, save_json):
    batch = make_batch(N_SCENARIOS)
    cdr = BangBangCdr(CdrConfig(bit_rate=BIT_RATE, kp=8e-3, ki=2e-5))

    # Warm both paths on a slice so first-call overheads cancel.
    cdr.recover(batch[:2])
    cdr.recover(batch[0])

    t0 = time.perf_counter()
    batched = cdr.recover(batch)
    t_batched = time.perf_counter() - t0

    t0 = time.perf_counter()
    for row in batch.rows():
        cdr.recover(row)
    t_serial = time.perf_counter() - t0

    speedup = t_serial / t_batched
    reference = [SerialCdr(cdr.config).recover(row) for row in batch.rows()]
    save_report("cdr_link_engine_speedup", format_table([{
        "scenarios": N_SCENARIOS,
        "bits/scenario": N_BITS,
        "serial (s)": t_serial,
        "batched (s)": t_batched,
        "speedup (x)": speedup,
        "lock yield (%)": 100 * batched.lock_yield(),
    }]))
    row_exact = all(
        np.array_equal(batched.row(i).decisions, ref.decisions)
        and np.array_equal(batched.row(i).phase_track_ui,
                           ref.phase_track_ui)
        and batched.row(i).slips == ref.slips
        for i, ref in enumerate(reference)
    )

    link_cdr = BangBangCdr(CdrConfig(bit_rate=BIT_RATE))
    shapes = {
        "single_record": (link_cdr, chain_output(
            1000 if FULL_SCALE else 300, [1], prbs15)),
        "rows_64": (link_cdr, chain_output(300, range(1, 65), prbs7)),
        "scenarios": (cdr, batch),
    }
    work = {name: kernel_work(shape_cdr, signal, repeats)
            for (name, (shape_cdr, signal)), repeats
            in zip(shapes.items(), REPEATS)}
    save_report("cdr_kernel_work", format_table(
        [{"shape": name, **row} for name, row in work.items()]))
    save_json("cdr_link_engine", {
        "scenarios": N_SCENARIOS,
        "bits_per_scenario": N_BITS,
        "serial_s": t_serial,
        "batched_s": t_batched,
        "speedup_x": speedup,
        "row_exact": row_exact,
        "lock_yield": batched.lock_yield(),
        "speedup_floor_enforced": FULL_SCALE,
        "kernel": work,
    })

    for i, ref in enumerate(reference):
        row = batched.row(i)
        np.testing.assert_array_equal(row.decisions, ref.decisions,
                                      err_msg=f"decisions differ, row {i}")
        np.testing.assert_array_equal(row.phase_track_ui,
                                      ref.phase_track_ui,
                                      err_msg=f"phase track differs, row {i}")
        np.testing.assert_array_equal(row.votes, ref.votes,
                                      err_msg=f"votes differ, row {i}")
        assert row.locked_at_bit == ref.locked_at_bit, i
        assert row.slips == ref.slips, i
    assert batched.lock_yield() > 0.95
    # Row-exactness is always enforced; the wall-clock gate only at
    # full scale (smoke runs time tens of milliseconds, where a CI
    # scheduler hiccup would make the ratio meaningless).
    if FULL_SCALE:
        assert speedup >= SPEEDUP_FLOOR, (
            f"batched CDR only {speedup:.1f}x faster than serial "
            f"(need >= {SPEEDUP_FLOOR}x)"
        )


def test_framed_link_noise_sweep(benchmark, save_report):
    """BER-style framed-link yield vs noise: one batched pass per level."""
    payload = bytes(range(48))
    n_per_level = max(4, N_SCENARIOS // 25)
    noise_levels = (0.005, 0.05, 0.12)

    def sweep():
        rows = []
        for rms in noise_levels:
            seeds = range(1, n_per_level + 1)
            report = run_framed_link(
                payload,
                path=lambda w, rms=rms, seeds=seeds:
                    WaveformBatch.with_noise_seeds(w, rms, list(seeds)),
                training_commas=24,
                training_bytes=4,
            )
            rows.append({
                "noise rms (mV)": 1e3 * rms,
                "scenarios": n_per_level,
                "lock yield (%)": 100 * report.lock_yield(),
                "frame errors (%)": 100 * report.frame_error_rate(),
                "max |slips|": int(np.max(np.abs(report.slips()))),
            })
        return rows

    rows = run_once(benchmark, sweep)
    save_report("framed_link_noise_sweep", format_table(rows))
    # Clean link: every frame survives.  Destroyed link: none do.
    assert rows[0]["frame errors (%)"] == 0.0
    assert rows[0]["lock yield (%)"] == 100.0
    assert rows[-1]["frame errors (%)"] == 100.0


def test_framed_link_batch_matches_serial_run_link(benchmark, save_report):
    """run_framed_link rows reproduce the scalar reference framed link
    (``serial_oracles.run_link``) scenario by scenario."""
    payload = b"batched-framed-link!"
    rms = 0.01
    seeds = list(range(1, 7))

    def compare():
        batch_report = run_framed_link(
            payload,
            path=lambda w: WaveformBatch.with_noise_seeds(
                w, rms, seeds),
            training_commas=24, training_bytes=4,
        )
        mismatches = 0
        for seed, from_batch in zip(seeds, batch_report):
            reference = run_link(
                payload,
                analog_path=lambda w, seed=seed: add_awgn(w, rms, seed=seed),
                training_commas=24, training_bytes=4,
            )
            if (from_batch.payload_received != reference.payload_received
                    or from_batch.cdr_locked != reference.cdr_locked
                    or from_batch.cdr_slips != reference.cdr_slips):
                mismatches += 1
        return mismatches, batch_report.frame_error_rate()

    mismatches, fer = run_once(benchmark, compare)
    save_report("framed_link_batch_vs_serial", format_table([{
        "scenarios": len(seeds),
        "row mismatches": mismatches,
        "frame errors (%)": 100 * fer,
    }]))
    assert mismatches == 0
    assert fer == 0.0


def test_closed_loop_sweep_lock_yield(benchmark, save_report):
    """The sweep subsystem driving the batched CDR: lock-time yield
    grid."""
    n_seeds = max(6, N_SCENARIOS // 25)
    grid = ScenarioGrid([
        SweepAxis("amplitude", (0.2, 0.4)),
        SweepAxis("seed", tuple(range(1, n_seeds + 1))),
    ])
    encoder = NrzEncoder(bit_rate=BIT_RATE, samples_per_bit=SAMPLES_PER_BIT,
                         amplitude=1.0)
    bits = prbs7(N_BITS)

    def stimulus(params):
        jitter = RandomJitter(2e-12, seed=params["seed"])
        wave = encoder.encode(bits,
                              edge_offsets=jitter.offsets(N_BITS, BIT_RATE))
        return wave * params["amplitude"]

    config = CdrConfig(bit_rate=BIT_RATE, kp=8e-3, ki=2e-5)
    runner = SweepRunner(grid, stimulus=stimulus,
                         measure=closed_loop_cdr_measure(
                             config, reduce=lambda r, p: r.locked_at_bit))

    def sweep():
        batched = runner.run()
        serial = serial_sweep(
            runner, measure_row=lambda wave, _:
                SerialCdr(config).recover(wave).locked_at_bit)
        assert batched.results == serial.results
        locks = batched.values(float)
        return float(np.mean(locks >= 0)), float(np.median(locks[locks >= 0]))

    lock_yield, median_lock = run_once(benchmark, sweep)
    save_report("closed_loop_sweep_lock_yield", format_table([{
        "scenarios": grid.n_scenarios,
        "lock yield (%)": 100 * lock_yield,
        "median lock (bits)": median_lock,
    }]))
    assert lock_yield == 1.0
    assert median_lock < N_BITS / 2
