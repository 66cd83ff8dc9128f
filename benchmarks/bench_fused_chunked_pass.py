"""The fused chunked link pass: row-exactness and memory ceiling.

Every stage of a monolithic ``run_batch`` materializes full
``(n_scenarios, n_samples)`` intermediates.  The fused chunked pass
(``LinkSession.run_batch(chunk_rows=...)``) streams tx → rx → CDR/DFE
in bounded row-chunks instead; this bench pins its two contracts:

* streaming must be row-exact vs the monolithic batch for uneven chunk
  boundaries, at a small wall-clock overhead (reported, not gated);
* a 100k-scenario synthetic batch must complete under a traced-memory
  bound that the monolithic pass exceeds.

``BENCH_KERNEL_SCENARIOS`` shrinks the row-exactness section and
``BENCH_KERNEL_MEMORY_SCENARIOS`` the memory section for CI smoke runs
(row-exactness and the memory ordering are always enforced).
"""

import os
import time
import tracemalloc

import numpy as np

from repro.cdr import CdrConfig
from repro.link import ChannelConfig, DfeConfig, LinkSession, RxConfig, \
    TxConfig
from repro.reporting import format_table
from repro.signals import (
    NrzEncoder,
    RandomJitter,
    WaveformBatch,
    add_awgn,
    bits_to_nrz,
    prbs7,
)

BIT_RATE = 10e9
N_SCENARIOS = int(os.environ.get("BENCH_KERNEL_SCENARIOS", "500"))
N_MEMORY_SCENARIOS = int(
    os.environ.get("BENCH_KERNEL_MEMORY_SCENARIOS", "100000"))
N_BITS = 280
SAMPLES_PER_BIT = 8


def make_cdr_batch(n_scenarios):
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


def _time(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _fused_session():
    return LinkSession.from_configs(
        TxConfig(), ChannelConfig(0.3), RxConfig(),
        bit_rate=BIT_RATE,
        cdr=CdrConfig(bit_rate=BIT_RATE, kp=8e-3, ki=2e-5),
        dfe=DfeConfig(taps=(0.05, 0.02)),
    )


def test_fused_chunked_pass_row_exact(save_report, save_json):
    """Chunked streaming vs the monolithic pass: exact rows, same cost."""
    n = max(24, N_SCENARIOS // 5)
    batch = make_cdr_batch(n)
    session = _fused_session()

    session.run_batch(batch[:2])  # warm
    mono, t_mono = _time(lambda: session.run_batch(batch))
    # An uneven chunk size exercises the ragged final chunk.
    chunk_rows = max(1, n // 7) * 2 + 1
    chunked, t_chunked = _time(
        lambda: session.run_batch(batch, chunk_rows=chunk_rows))

    row_exact = (
        np.array_equal(chunked.output.data, mono.output.data)
        and chunked.eyes == mono.eyes
        and np.array_equal(chunked.cdr.decisions, mono.cdr.decisions)
        and np.array_equal(chunked.cdr.phase_track_ui,
                           mono.cdr.phase_track_ui, equal_nan=True)
        and np.array_equal(chunked.cdr.locked_at_bit,
                           mono.cdr.locked_at_bit)
        and np.array_equal(chunked.cdr.slips, mono.cdr.slips)
        and np.array_equal(chunked.dfe_decisions, mono.dfe_decisions)
        and np.array_equal(chunked.dfe_corrected, mono.dfe_corrected)
    )
    overhead = t_chunked / t_mono - 1.0
    save_report("fused_chunked_pass", format_table([{
        "scenarios": n,
        "chunk rows": chunk_rows,
        "monolithic (s)": t_mono,
        "chunked (s)": t_chunked,
        "chunk overhead (%)": 100 * overhead,
    }]))
    save_json("fused_chunked_pass", {
        "scenarios": n,
        "chunk_rows": chunk_rows,
        "monolithic_s": t_mono,
        "chunked_s": t_chunked,
        "chunk_overhead_fraction": overhead,
        "row_exact": row_exact,
    })
    assert row_exact, "chunked fused pass diverged from the monolithic run"


def test_chunked_pass_memory_ceiling(save_report, save_json):
    """A 100k-scenario batch fits chunked where the monolithic pass
    cannot.

    Traced allocation peaks (``tracemalloc``, which numpy reports
    into) are compared against one bound: the chunked streaming pass
    must stay under it, the monolithic pass must exceed it — the bound
    is set below the size of a *single* full ``(n_scenarios,
    n_samples)`` stage intermediate, which the monolithic pass cannot
    avoid materializing and the chunked pass never builds.
    """
    n = N_MEMORY_SCENARIOS
    n_bits = 24
    wave = bits_to_nrz(prbs7(n_bits), BIT_RATE, amplitude=0.4,
                       samples_per_bit=SAMPLES_PER_BIT)
    batch = WaveformBatch.stack([wave] * n)
    # Cheap synthetic analog chain: full-size intermediates without
    # lfilter cost, so the bench isolates memory behavior.
    session = LinkSession(
        stages=[lambda b: b * 0.9, lambda b: b.clip(-1.0, 1.0)],
        bit_rate=BIT_RATE,
        cdr=CdrConfig(bit_rate=BIT_RATE, kp=8e-3, ki=2e-5),
        dfe=DfeConfig(taps=(0.08, 0.03)),
        measure_eye=False,
    )
    chunk_rows = max(64, n // 50)
    full_stage_bytes = batch.data.nbytes
    bound_bytes = int(0.75 * full_stage_bytes)

    session.run_batch(batch[:2])  # warm caches outside the trace
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        chunked = session.run_batch(batch, chunk_rows=chunk_rows,
                                    keep_output=False)
        _, peak_chunked = tracemalloc.get_traced_memory()
        spot_rows = [0, n // 2, n - 1]
        spot_decisions = [chunked.cdr.decisions[i].copy()
                          for i in spot_rows]
        del chunked
        tracemalloc.reset_peak()
        mono = session.run_batch(batch, keep_output=False)
        _, peak_mono = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for i, decisions in zip(spot_rows, spot_decisions):
        np.testing.assert_array_equal(
            decisions, mono.cdr.decisions[i],
            err_msg=f"chunked row {i} diverged from monolithic")

    save_report("chunked_memory_ceiling", format_table([{
        "scenarios": n,
        "chunk rows": chunk_rows,
        "stage array (MB)": full_stage_bytes / 1e6,
        "bound (MB)": bound_bytes / 1e6,
        "chunked peak (MB)": peak_chunked / 1e6,
        "monolithic peak (MB)": peak_mono / 1e6,
    }]))
    save_json("chunked_memory_ceiling", {
        "scenarios": n,
        "chunk_rows": chunk_rows,
        "stage_array_bytes": full_stage_bytes,
        "bound_bytes": bound_bytes,
        "chunked_peak_bytes": peak_chunked,
        "monolithic_peak_bytes": peak_mono,
        "chunked_under_bound": peak_chunked < bound_bytes,
        "monolithic_over_bound": peak_mono > bound_bytes,
    })
    assert peak_chunked < bound_bytes, (
        f"chunked pass peaked at {peak_chunked / 1e6:.0f} MB, over the "
        f"{bound_bytes / 1e6:.0f} MB bound"
    )
    assert peak_mono > bound_bytes, (
        f"monolithic pass peaked at only {peak_mono / 1e6:.0f} MB; the "
        "bound no longer separates the two paths"
    )
    assert peak_mono > peak_chunked * 2, (
        "chunking no longer reduces peak memory materially"
    )
