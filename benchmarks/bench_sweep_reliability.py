"""Cost of the sweep reliability layer: checkpoint journal overhead.

The same Monte Carlo offset sweep as ``bench_sweep_engine`` (per-die
input-referred offsets through the input interface, eyes measured at
the limiting-amplifier output), run three ways at 10k scenarios:

* **plain**: ``SweepRunner.run()``, no journal;
* **journaled**: ``run(checkpoint_dir=...)`` — every (structural
  point, row-chunk) unit's results pickled to the journal as it
  finishes;
* **resumed**: the same call again — every unit replayed from the
  journal, zero simulation.

Protocol: ``N_PAIRS`` plain/journaled pairs, interleaved, with the
side that runs first alternating from pair to pair (each journaled run
gets a fresh journal), so host drift lands on both sides alike; the
overhead is the ratio of the two medians.

Acceptance: journaling costs < 5% over the plain run (gated at full
scale; ``BENCH_RELIABILITY_SCENARIOS`` shrinks the sweep for CI smoke
runs where timing noise swamps a 5% margin), the journaled and plain
results are identical, the resume replays bit-exact without calling
the stimulus at all, and the headline numbers land in
``benchmarks/results/BENCH_sweep_reliability.json``.
"""

import os
import statistics
import time

import numpy as np

from repro.analysis import measure_eye_batch
from repro.core import build_input_interface
from repro.devices import chain_offset_sigma, sample_offsets
from repro.reporting import format_table
from repro.signals import bits_to_nrz, prbs7
from repro.sweep import ScenarioGrid, SweepAxis, SweepRunner

BIT_RATE = 10e9
N_SCENARIOS = int(os.environ.get("BENCH_RELIABILITY_SCENARIOS", "10000"))
FULL_SCALE = 10000          # the <5% gate only applies at this size
N_BITS = 48
SAMPLES_PER_BIT = 16
CHUNK_ROWS = 512
OVERHEAD_CEILING = 0.05
N_PAIRS = 5

STIMULUS_CALLS = {"n": 0}


def make_runner(n_scenarios):
    """The Monte Carlo offset sweep, chunked (the reliability layer's
    natural operating mode: chunks are the journal/retry granule)."""
    rx = build_input_interface()
    la = rx.limiting_amplifier
    sigma = chain_offset_sigma(
        [stage.input_pair for stage in la.stage_chain()],
        [abs(stage.small_signal_tf().dc_gain())
         for stage in la.stage_chain()],
    )
    loop = abs(la.dc_gain()) * la.offset_network.sense_gain
    offsets = sample_offsets(sigma, n_scenarios, seed=7) / (1.0 + loop)
    rng = np.random.default_rng(11)
    scales = 1.0 + 0.05 * rng.standard_normal(n_scenarios)
    base = bits_to_nrz(prbs7(N_BITS), BIT_RATE, amplitude=0.01,
                       samples_per_bit=SAMPLES_PER_BIT)

    grid = ScenarioGrid([
        SweepAxis("die", tuple(zip(offsets, scales))),
    ])

    def stimulus(params):
        STIMULUS_CALLS["n"] += 1
        offset, scale = params["die"]
        return base * scale + offset

    return SweepRunner(
        grid, stimulus=stimulus,
        build=lambda params: rx,
        measure=lambda batch, _:
            measure_eye_batch(batch, BIT_RATE, skip_ui=8),
        chunk_rows=CHUNK_ROWS,
    )


def test_checkpoint_overhead(save_report, save_json, tmp_path):
    runner = make_runner(N_SCENARIOS)
    make_runner(4).run()   # warm the discretization caches

    times = {"plain": [], "journaled": []}
    results = {}
    for pair in range(N_PAIRS):
        checkpoint_dir = tmp_path / f"journal{pair}"
        sides = ("plain", "journaled")
        for side in sides if pair % 2 == 0 else sides[::-1]:
            t0 = time.perf_counter()
            results[side] = runner.run(
                checkpoint_dir=checkpoint_dir if side == "journaled"
                else None)
            times[side].append(time.perf_counter() - t0)
    plain, journaled = results["plain"], results["journaled"]
    t_plain = statistics.median(times["plain"])
    t_journaled = statistics.median(times["journaled"])

    STIMULUS_CALLS["n"] = 0
    t0 = time.perf_counter()
    resumed = runner.run(checkpoint_dir=checkpoint_dir)
    t_resumed = time.perf_counter() - t0

    overhead = t_journaled / t_plain - 1.0
    n_units = -(-N_SCENARIOS // CHUNK_ROWS)
    save_report("sweep_reliability_overhead", format_table([{
        "scenarios": N_SCENARIOS,
        "units": n_units,
        "pairs": N_PAIRS,
        "plain median (s)": t_plain,
        "journaled median (s)": t_journaled,
        "overhead (%)": 100 * overhead,
        "resume replay (s)": t_resumed,
    }]))
    save_json("sweep_reliability", {
        "n_scenarios": N_SCENARIOS,
        "chunk_rows": CHUNK_ROWS,
        "n_units": n_units,
        "n_pairs": N_PAIRS,
        "t_plain_runs_s": times["plain"],
        "t_journaled_runs_s": times["journaled"],
        "t_plain_s": t_plain,
        "t_journaled_s": t_journaled,
        "checkpoint_overhead_frac": overhead,
        "overhead_ceiling_frac": OVERHEAD_CEILING,
        "t_resume_replay_s": t_resumed,
        "resume_bit_exact": resumed.results == plain.results,
        "gate_applied": N_SCENARIOS >= FULL_SCALE,
    })

    # Journaling must not change a single measurement, and a resume
    # must replay every unit (no simulation) bit-exact.
    assert journaled.results == plain.results
    assert resumed.results == plain.results
    assert resumed.params == plain.params
    assert STIMULUS_CALLS["n"] == 0
    if N_SCENARIOS >= FULL_SCALE:
        assert overhead < OVERHEAD_CEILING, (
            f"checkpoint journal costs {100 * overhead:.1f}% "
            f"(ceiling {100 * OVERHEAD_CEILING:.0f}%)"
        )
        assert t_resumed < t_plain
