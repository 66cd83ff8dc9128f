"""Per-call cost of the batched eye measurement, layer by layer.

``measure_eye_batch`` folds a batch at the unit interval, searches the
sampling phase, takes the level statistics at each row's phase, runs
one crossing pass per sub-eye and builds one ``EyeMeasurement`` per
row.  This bench times one call at the shapes the repository benchmark
(``perfbench/``) measures, each built by the chain that feeds it there:

* ``yield_sweep`` — one sweep chunk: 64 rows x 40 UI x 8 samples/UI
  through the TX + RX chain with no channel;
* ``link_batch`` — 64 rows x 284 UI x 16 samples/UI after a 0.3 m
  channel;
* ``link_single`` — one PRBS15 row of 984 UI x 16 samples/UI through
  the same chain;
* ``pam4`` — 64 rows of 5 GBd PAM4, 284 UI x 16 samples/UI after a
  0.1 m channel (three sub-eyes).

For each shape it records the median of one whole call and of its
layers on a fresh batch: ``fold`` (construction, the per-phase heights
and the best phase), ``level_stats`` (level means and sigmas at the best
phase), ``crossings`` (every sub-eye's crossing pass) and ``rows`` (the
records, with fold and crossings cached and the level statistics taken
off).

Only correctness is gated, at any scale: every row of the batched call
must equal, field for field and bit for bit, the ``EyeDiagram``
measurement of that row alone.  The times are on record, not gated.
``BENCH_EYE_REPEATS`` sets the timed calls per shape (default 200).
"""

import os
import pickle
import time

import numpy as np

from repro.analysis import EyeDiagram, EyeDiagramBatch, measure_eye_batch
from repro.cdr import CdrConfig
from repro.link import (ChannelConfig, DfeConfig, LinkSession, RxConfig,
                        TxConfig)
from repro.reporting import format_table
from repro.signals import (Pam4, SymbolEncoder, WaveformBatch, bits_to_nrz,
                           prbs7, prbs15)

BIT_RATE = 10e9
AMPLITUDE = 0.25
NOISE_RMS = 3e-3
N_ROWS = 64
REPEATS = int(os.environ.get("BENCH_EYE_REPEATS", "200"))


def _link_session(**kwargs):
    return LinkSession.from_configs(
        channel=ChannelConfig(0.3),
        rx=RxConfig(equalizer_control_voltage=0.6),
        cdr=CdrConfig(bit_rate=BIT_RATE),
        dfe=DfeConfig(taps=(0.05, 0.02), decision_amplitude=0.2), **kwargs)


def _noisy(wave, n_rows, rms=NOISE_RMS):
    return WaveformBatch.with_noise_seeds(wave, rms,
                                          list(range(1, n_rows + 1)))


def sweep_chunk():
    session = LinkSession.from_configs(
        channel=None, rx=RxConfig(equalizer_control_voltage=0.6),
        skip_ui=8)
    base = bits_to_nrz(prbs7(48, seed=4), BIT_RATE, amplitude=1.0,
                       samples_per_bit=8)
    rng = np.random.default_rng(3)
    amplitudes = AMPLITUDE * (1.0 + 0.08 * rng.standard_normal(N_ROWS))
    noise = rng.normal(0.0, NOISE_RMS, (N_ROWS, len(base.data)))
    stimulus = WaveformBatch(base.data * amplitudes[:, None] + noise,
                             base.sample_rate, t0=base.t0)
    return session.process(stimulus), BIT_RATE, 8, None


def link_batch():
    session = _link_session()
    wave = bits_to_nrz(prbs7(300, seed=4), BIT_RATE, amplitude=AMPLITUDE,
                       samples_per_bit=16)
    return (session.process(_noisy(wave, N_ROWS)), BIT_RATE,
            session.skip_ui, None)


def link_single():
    session = _link_session()
    wave = bits_to_nrz(prbs15(1000, seed=4), BIT_RATE, amplitude=AMPLITUDE,
                       samples_per_bit=16)
    return session.process(_noisy(wave, 1)), BIT_RATE, session.skip_ui, None


def pam4_batch():
    pam4 = Pam4()
    symbol_rate = BIT_RATE / pam4.bits_per_symbol
    encoder = SymbolEncoder(symbol_rate=symbol_rate, modulation=pam4,
                            amplitude=0.4, samples_per_symbol=16)
    bits = np.random.default_rng(7).integers(0, 2, 600)
    session = LinkSession.from_configs(tx=TxConfig(modulation=pam4),
                                       channel=ChannelConfig(0.1),
                                       bit_rate=symbol_rate)
    out = session.process(_noisy(encoder.encode_bits(bits), N_ROWS, 0.01))
    return out, symbol_rate, session.skip_ui, pam4


SHAPES = {"yield_sweep": sweep_chunk, "link_batch": link_batch,
          "link_single": link_single, "pam4": pam4_batch}


def _layers(batch, bit_rate, skip_ui, modulation):
    """Seconds of each layer of one measurement on a fresh batch."""
    t0 = time.perf_counter()
    eye = EyeDiagramBatch(batch, bit_rate, skip_ui=skip_ui,
                          modulation=modulation)
    best = eye.best_phase_indices()
    t1 = time.perf_counter()
    eye._level_stats(best)
    t2 = time.perf_counter()
    for e in range(eye.modulation.n_eyes):
        eye._crossing_pass(e)
    t3 = time.perf_counter()
    eye.measure_at(best)
    t4 = time.perf_counter()
    return {"fold": t1 - t0, "level_stats": t2 - t1, "crossings": t3 - t2,
            "rows": (t4 - t3) - (t2 - t1)}


def _median_us(values):
    return float(np.median(values) * 1e6)


def test_eye_measure_per_call(save_report, save_json):
    records, report = {}, []
    all_rows_match = True
    for name, make in SHAPES.items():
        batch, bit_rate, skip_ui, modulation = make()
        args = (batch, bit_rate)
        kwargs = dict(skip_ui=skip_ui, modulation=modulation)
        rows = measure_eye_batch(*args, **kwargs)
        alone = [EyeDiagram(wave, bit_rate, **kwargs).measure()
                 for wave in batch.rows()]
        # Pickles compare every field's type and bits (NaN included).
        rows_match = ([pickle.dumps(r) for r in rows]
                      == [pickle.dumps(r) for r in alone])
        all_rows_match &= rows_match
        calls, layers = [], {}
        for _ in range(REPEATS):
            start = time.perf_counter()
            measure_eye_batch(*args, **kwargs)
            calls.append(time.perf_counter() - start)
            for layer, seconds in _layers(*args, **kwargs).items():
                layers.setdefault(layer, []).append(seconds)
        folded = EyeDiagramBatch(*args, **kwargs)
        records[name] = {
            "rows": batch.n_scenarios,
            "n_ui": folded.n_ui,
            "samples_per_ui": folded.samples_per_ui,
            "n_levels": folded.modulation.n_levels,
            "call_us": _median_us(calls),
            "layers_us": {layer: _median_us(seconds)
                          for layer, seconds in layers.items()},
            "rows_match_batch_of_one": rows_match,
        }
        report.append({
            "shape": name,
            "rows x UI x samples/UI": (f"{batch.n_scenarios} x "
                                       f"{folded.n_ui} x "
                                       f"{folded.samples_per_ui}"),
            "call (us)": records[name]["call_us"],
            **{f"{layer} (us)": value for layer, value
               in records[name]["layers_us"].items()},
            "rows == alone": rows_match,
        })
    save_report("eye_measure", format_table(report))
    save_json("eye_measure", {"repeats": REPEATS, "shapes": records,
                              "all_rows_match_batch_of_one": all_rows_match})
    assert all_rows_match, (
        "a batched eye row differs from the same row measured alone: "
        + ", ".join(name for name, r in records.items()
                    if not r["rows_match_batch_of_one"]))
