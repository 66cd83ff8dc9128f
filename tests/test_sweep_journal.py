"""The sweep journal: content-keyed fingerprints and the append-only log.

Stale-replay bugs are pinned here: numpy elides the middle of a large
array's ``repr``, a :class:`~repro.link.LinkSession` once entered the
key only by its address and later only by its configs (not the chain
it built), so two different sweeps could share one journal key; and a
frozenset constant once entered in ``PYTHONHASHSEED`` order, so a new
interpreter never found its journal.  The log tests cut or corrupt
``journal.log`` and check that exactly the units after the last good
record re-run.  The helpers are module-level so the journal key of a
runner is stable.
"""

import json
import os
import pathlib
import pickle
import random
import struct
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from repro import LinkSession, RxConfig, bits_to_nrz, prbs7
from repro.analysis import measure_eye_batch
from repro.lti import Pipeline
from repro.signals import Waveform
from repro.sweep import CheckpointJournal, MeanVar, ScenarioGrid, \
    SweepAxis, SweepRunner, Yield
from repro.sweep.checkpoint import journal_key
from toy_blocks import GainBlock, StaticNonlinearity

FS = 160e9
BIT_RATE = 10e9
CALLS = {"stimulus": 0}


def stimulus(params):
    CALLS["stimulus"] += 1
    return Waveform(np.full(16, params["level"]), FS)


def build(params):
    return GainBlock(params["gain"])


def measure(batch, params_list):
    return [float(value) for value in batch.data[:, 0]]


def make_runner():
    grid = ScenarioGrid([
        SweepAxis("gain", (2.0, 3.0), structural=True),
        SweepAxis("level", tuple((i + 1) / 8 for i in range(8))),
    ])
    return SweepRunner(grid, stimulus=stimulus, build=build,
                       measure=measure, chunk_rows=2, retry_backoff_s=0.0)


def record_ends(log):
    """Byte offset at which each record of ``log`` ends (the first is
    the fingerprint record)."""
    data = log.read_bytes()
    frame = struct.Struct("<II")
    ends, offset = [], 0
    while offset < len(data):
        length, _ = frame.unpack_from(data, offset)
        offset += frame.size + length
        ends.append(offset)
    return ends


def unit_order(log):
    """Unit keys in log order."""
    data = log.read_bytes()
    starts = [0] + record_ends(log)[:-1]
    keys = [pickle.loads(data[start + 8:end])[0]
            for start, end in zip(starts, record_ends(log))]
    assert keys[0] is None          # the fingerprint record
    return keys[1:]


# -- fingerprints ---------------------------------------------------------------

def test_fingerprint_sees_the_middle_of_a_large_array():
    # numpy's repr shows only the corners of an array this size.
    base = np.zeros((128, 384))
    other = base.copy()
    other[64, 192] = 1.0
    assert repr(base) == repr(other)

    def closure_over(noise):
        return lambda params: noise[params["draw"]]

    assert journal_key(closure_over(base)) \
        != journal_key(closure_over(other))
    assert journal_key(closure_over(base)) \
        == journal_key(closure_over(base.copy()))
    assert journal_key(base) != journal_key(base.astype(np.float32))
    assert journal_key(base) != journal_key(base.reshape(384, 128))


def test_callables_loading_different_names_are_told_apart():
    # Same bytecode and constants; a load names its target by an index.
    assert journal_key(lambda x: np.tanh(x)) \
        != journal_key(lambda x: np.sin(x))

    def tanh_maker():
        return lambda x: np.tanh(x)

    def sin_maker():
        return lambda x: np.sin(x)

    # The difference sits only in the nested lambda's code.
    assert journal_key(tanh_maker.__code__) \
        != journal_key(sin_maker.__code__)


WORDS = [f"corner-{i:02d}" for i in range(64)]


def shuffled_words(count):
    rng = random.Random(7)
    return [rng.sample(WORDS, len(WORDS)) for _ in range(count)]


def test_journal_key_recurses_and_sorts():
    assert journal_key({"b": 1, "a": (2.0, [3])}) \
        == journal_key({"a": (2.0, [3]), "b": 1})
    assert journal_key(frozenset({"x", "y"})) \
        == journal_key(frozenset({"y", "x"}))
    # Sets built in different orders iterate in different orders (so a
    # key following iteration order differs), and dicts always do.
    orders = shuffled_words(20)
    sets = [set(order) for order in orders]
    assert len({tuple(words) for words in sets}) > 1
    assert len({journal_key(words) for words in sets}) == 1
    assert len({journal_key(frozenset(words)) for words in sets}) == 1
    dicts = [{word: WORDS.index(word) for word in order}
             for order in orders]
    assert len({tuple(words) for words in dicts}) > 1
    assert len({journal_key(words) for words in dicts}) == 1
    assert journal_key(set(WORDS)) != journal_key(frozenset(WORDS))
    assert journal_key(set(WORDS)) != journal_key(sorted(WORDS))
    assert journal_key(set(WORDS)) != journal_key(set(WORDS[1:]))
    # Mixed keys (not all strings) sort by their stable pickle.
    assert journal_key({1: "a", "b": 2, (3,): 4.0}) \
        == journal_key({(3,): 4.0, "b": 2, 1: "a"})
    assert journal_key(RxConfig(equalizer_control_voltage=0.5)) \
        != journal_key(RxConfig(equalizer_control_voltage=0.7))
    assert journal_key(object()) == journal_key(object())


def test_number_sequences_are_keyed_exactly():
    # Packed as one array, a sequence of numbers still keys its type,
    # its nesting and every value.
    def draw():
        return tuple(zip(np.linspace(-1e-3, 1e-3, 10_000), np.ones(10_000)))

    dies = draw()
    moved = dies[:5000] + ((dies[5000][0], 1.0 + 1e-12),) + dies[5001:]
    assert journal_key(dies) == journal_key(draw())
    assert journal_key(dies) != journal_key(moved)
    assert journal_key(dies) != journal_key(list(dies))
    assert journal_key(dies) != journal_key(tuple(map(list, dies)))
    assert journal_key((1, 2)) != journal_key((1.0, 2.0))
    assert journal_key((1, 2)) != journal_key((True, 2))
    assert journal_key((1, 2)) != journal_key((1, 2.0))
    assert journal_key((1, 2)) != journal_key(((1,), (2,)))
    assert journal_key((2**70, 1)) != journal_key((2**70, 2))


def session_stimulus(params):
    CALLS["stimulus"] += 1
    wave = bits_to_nrz(prbs7(48, seed=3), BIT_RATE, amplitude=0.4,
                       samples_per_bit=8)
    return wave.with_data(wave.data * params["scale"])


def eye_heights(batch, params_list):
    return [eye.eye_height
            for eye in measure_eye_batch(batch, BIT_RATE, skip_ui=8)]


def corner_session(voltage):
    return LinkSession.from_configs(
        channel=None, rx=RxConfig(equalizer_control_voltage=voltage),
        skip_ui=8)


SESSION_GRID = ScenarioGrid([
    SweepAxis("peaking_enabled", (True, False), structural=True),
    SweepAxis("scale", (0.8, 1.0, 1.2)),
])


def sweep_heights(session, **kwargs):
    result = session.sweep(SESSION_GRID, session_stimulus,
                           measure=eye_heights, chunk_rows=2, **kwargs)
    return result.values(lambda height: height)


def test_sessions_differing_in_rx_config_never_share_a_journal(tmp_path):
    low, high = corner_session(0.5), corner_session(0.7)
    fresh_low, fresh_high = sweep_heights(low), sweep_heights(high)
    assert not np.array_equal(fresh_low, fresh_high)
    np.testing.assert_array_equal(
        sweep_heights(low, checkpoint_dir=tmp_path), fresh_low)
    np.testing.assert_array_equal(
        sweep_heights(high, checkpoint_dir=tmp_path), fresh_high)
    # Resumed from the shared directory, each still gets its own values.
    np.testing.assert_array_equal(
        sweep_heights(high, checkpoint_dir=tmp_path), fresh_high)
    np.testing.assert_array_equal(
        sweep_heights(low, checkpoint_dir=tmp_path), fresh_low)
    assert len(list(tmp_path.iterdir())) == 2


def test_default_measure_keys_on_the_session(tmp_path):
    low, high = corner_session(0.5), corner_session(0.7)
    grid = ScenarioGrid([SweepAxis("scale", (0.8, 1.2))])
    for session in (low, high, low, high):
        journaled = session.sweep(grid, session_stimulus,
                                  checkpoint_dir=tmp_path)
        fresh = session.sweep(grid, session_stimulus)
        assert [r.eye.eye_height for r in journaled.results] \
            == [r.eye.eye_height for r in fresh.results]


def scaled_by(factor):
    return lambda batch: batch.with_data(batch.data * factor)


@pytest.mark.parametrize("make_stage", [
    GainBlock,
    lambda gain: Pipeline([GainBlock(1.5), GainBlock(gain)]),
    scaled_by,
], ids=["block", "pipeline", "callable"])
def test_sessions_built_from_stages_never_share_a_journal(tmp_path,
                                                          make_stage):
    grid = ScenarioGrid([SweepAxis("scale", (0.8, 1.0, 1.2))])

    def heights(session, **kwargs):
        return session.sweep(grid, session_stimulus, measure=eye_heights,
                             chunk_rows=2, **kwargs).values(lambda h: h)

    low = LinkSession([make_stage(2.0)], bit_rate=BIT_RATE, skip_ui=8)
    high = LinkSession([make_stage(3.0)], bit_rate=BIT_RATE, skip_ui=8)
    assert journal_key(low) \
        == journal_key(LinkSession([make_stage(2.0)], bit_rate=BIT_RATE,
                                      skip_ui=8))
    fresh_low, fresh_high = heights(low), heights(high)
    assert not np.array_equal(fresh_low, fresh_high)
    for session, fresh in ((low, fresh_low), (high, fresh_high),
                           (high, fresh_high), (low, fresh_low)):
        np.testing.assert_array_equal(
            heights(session, checkpoint_dir=tmp_path), fresh)
    assert len(list(tmp_path.iterdir())) == 2


def test_functions_inside_values_are_described_by_content():
    # A function's repr names no content: these two pipelines (and the
    # sessions on them) once described the same, so a resumed sweep of
    # one replayed the other's rows.
    doubling = Pipeline([StaticNonlinearity(lambda x: 2 * x)])
    tripling = Pipeline([StaticNonlinearity(lambda x: 3 * x)])
    assert journal_key(doubling) != journal_key(tripling)
    assert journal_key(doubling) \
        == journal_key(Pipeline([StaticNonlinearity(lambda x: 2 * x)]))
    assert journal_key(LinkSession([doubling])) \
        != journal_key(LinkSession([tripling]))

    def countdown():
        def step(n):
            return step(n - 1) if n else 0
        return step

    # A function reachable from its own closure still ends.
    assert journal_key(countdown()) == journal_key(countdown())


class Scale:
    """A plain class: no ``__repr__``, not a dataclass."""

    def __init__(self, k):
        self.k = k

    def apply(self, batch, params_list):
        return [self.k * float(value) for value in batch.data[:, 0]]


def test_bound_methods_of_plain_objects_are_described_by_state(tmp_path):
    # Both once described as ``...Scale.apply|...|self:<...Scale object
    # at 0x>``, so a resumed sweep of one replayed the other's rows.
    assert journal_key(Scale(2.0).apply) \
        != journal_key(Scale(3.0).apply)
    assert journal_key(Scale(2.0).apply) \
        == journal_key(Scale(2.0).apply)

    def run(scale):
        grid = ScenarioGrid([SweepAxis("level", (0.25, 0.5, 0.75))])
        return SweepRunner(grid, stimulus=stimulus, measure=scale.apply,
                           chunk_rows=2).run(checkpoint_dir=tmp_path).results

    assert run(Scale(2.0)) == [0.5, 1.0, 1.5]
    CALLS["stimulus"] = 0
    assert run(Scale(3.0)) == [0.75, 1.5, 2.25]
    assert CALLS["stimulus"] == 3               # simulated, not replayed
    assert len(list(tmp_path.iterdir())) == 2


def test_session_fingerprint_is_stable_and_survives_a_run(tmp_path):
    a, b = corner_session(0.6), corner_session(0.6)
    assert journal_key(a) == journal_key(b)
    assert journal_key(a) != journal_key(corner_session(0.5))
    before = journal_key(a)
    CALLS["stimulus"] = 0
    first = sweep_heights(a, checkpoint_dir=tmp_path)
    assert CALLS["stimulus"] == 6
    assert journal_key(a) == before
    # A second run, even through an identically built session, replays
    # every unit.
    CALLS["stimulus"] = 0
    np.testing.assert_array_equal(
        sweep_heights(b, checkpoint_dir=tmp_path), first)
    assert CALLS["stimulus"] == 0


def row_means(batch, params_list):
    return [float(row.mean()) for row in batch.data]


def test_change_to_the_built_chain_is_never_replayed(tmp_path):
    # The key once listed the session's configs, not the chain the
    # sweep runs, so a block changed in place replayed the old rows.
    session = corner_session(0.6)
    grid = ScenarioGrid([SweepAxis("scale", (0.8, 1.0, 1.2))])

    def means(**kwargs):
        return session.sweep(grid, session_stimulus, measure=row_means,
                             **kwargs).results

    means(checkpoint_dir=tmp_path)
    session.receiver.limiting_amplifier.input_offset_voltage = 0.05
    fresh = means()
    assert means(checkpoint_dir=tmp_path) == fresh
    assert len(list(tmp_path.iterdir())) == 2


SLOW_CORNERS = frozenset({"ss", "sf"})
CORNER_GRID = ScenarioGrid([
    SweepAxis("corner", ("tt", "ss", "ff", "sf", "fs", "snap")),
])


def corner_stimulus(slow):
    def stimulus(params):
        scale = 0.8 if params["corner"] in slow else 1.0
        if params["corner"] in {"ff", "fs", "snap"}:
            scale *= 1.2
        return session_stimulus({"scale": scale})
    return stimulus


def tall(height, params):
    return height > 0.2


def corner_sweep(checkpoint_dir):
    """A journaled corner sweep; returns its stimulus calls and
    results."""
    CALLS["stimulus"] = 0
    result = corner_session(0.6).sweep(
        CORNER_GRID, corner_stimulus(SLOW_CORNERS), measure=eye_heights,
        chunk_rows=1, checkpoint_dir=checkpoint_dir,
        reducers={"height": MeanVar(), "tall": Yield(tall)})
    return {"calls": CALLS["stimulus"], "results": result.results,
            "tall": result.aggregates["tall"].n_pass}


def corner_sweep_in_new_interpreter(checkpoint_dir, hash_seed):
    here = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"),
                                           str(here)]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, test_sweep_journal as t\n"
         "print(json.dumps(t.corner_sweep(sys.argv[1])))\n",
         str(checkpoint_dir)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_sweep_resumes_in_a_new_interpreter_under_another_hash_seed(
        tmp_path):
    # A str-set literal compiles to a frozenset constant, iterated in
    # PYTHONHASHSEED order; the key once followed that order, so a new
    # interpreter re-ran every stimulus.
    first = corner_sweep_in_new_interpreter(tmp_path, hash_seed=1)
    assert first["calls"] == 6
    second = corner_sweep_in_new_interpreter(tmp_path, hash_seed=2)
    assert second["calls"] == 0
    assert second == {**first, "calls": 0}
    assert len(list(tmp_path.iterdir())) == 1


def test_unpicklable_journal_key_raises_naming_the_cause(tmp_path):
    lock = threading.Lock()

    def locked_stimulus(params):
        with lock:
            return stimulus(params)

    grid = ScenarioGrid([SweepAxis("level", (0.25, 0.5))])
    runner = SweepRunner(grid, stimulus=locked_stimulus, measure=measure)
    with pytest.raises(TypeError, match="cannot pickle '_thread.lock'"):
        runner.run(checkpoint_dir=tmp_path)
    assert runner.run().results == [0.25, 0.5]


# -- the log --------------------------------------------------------------------

@pytest.mark.parametrize("cut_record", [1, 4, 8])
def test_torn_tail_reruns_exactly_the_units_after_the_cut(tmp_path,
                                                          cut_record):
    runner = make_runner()
    reference = runner.run(checkpoint_dir=tmp_path)
    journal = CheckpointJournal.open(tmp_path, runner._fingerprint())
    log = journal.path / "journal.log"
    ends = record_ends(log)
    order = unit_order(log)
    assert len(ends) == 9 and len(order) == 8
    # Cut unit record ``cut_record`` (1-based) in the middle.
    start, stop = ends[cut_record - 1], ends[cut_record]
    log.write_bytes(log.read_bytes()[:(start + stop) // 2])

    reopened = CheckpointJournal.open(tmp_path, runner._fingerprint())
    assert log.stat().st_size == start         # back to the last good one
    assert reopened.unit_keys() == sorted(order[:cut_record - 1])
    CALLS["stimulus"] = 0
    resumed = runner.run(checkpoint_dir=tmp_path)
    assert CALLS["stimulus"] == 2 * (8 - cut_record + 1)
    assert resumed.results == reference.results
    assert resumed.params == reference.params
    assert len(CheckpointJournal.open(tmp_path, runner._fingerprint())) == 8


def test_flipped_byte_in_the_last_record_reruns_only_that_unit(tmp_path):
    runner = make_runner()
    reference = runner.run(checkpoint_dir=tmp_path)
    log = CheckpointJournal.open(tmp_path, runner._fingerprint()).path \
        / "journal.log"
    ends = record_ends(log)
    last = unit_order(log)[-1]
    data = bytearray(log.read_bytes())
    data[(ends[-2] + ends[-1]) // 2] ^= 0x01    # fails the CRC
    log.write_bytes(bytes(data))

    reopened = CheckpointJournal.open(tmp_path, runner._fingerprint())
    assert log.stat().st_size == ends[-2]
    assert reopened.load(last) is None
    assert len(reopened) == 7
    CALLS["stimulus"] = 0
    resumed = runner.run(checkpoint_dir=tmp_path)
    assert CALLS["stimulus"] == 2
    assert resumed.results == reference.results


def test_log_without_this_sweeps_fingerprint_is_reset(tmp_path):
    runner = make_runner()
    runner.run(checkpoint_dir=tmp_path)
    journal = CheckpointJournal.open(tmp_path, runner._fingerprint())
    log = journal.path / "journal.log"
    log.write_bytes(b"garbage that is not a record")
    assert len(CheckpointJournal.open(tmp_path, runner._fingerprint())) == 0
    assert len(record_ends(log)) == 1           # a fresh fingerprint record
    CALLS["stimulus"] = 0
    runner.run(checkpoint_dir=tmp_path)
    assert CALLS["stimulus"] == 16


def test_old_unit_file_journal_warns_once_and_never_replays(tmp_path):
    old = tmp_path / "0123456789abcdef0123" / "units"
    old.mkdir(parents=True)
    (old / "0-0-2.pkl").write_bytes(pickle.dumps(
        {"values": [99.0, 99.0], "failures": [], "partials": None}))
    runner = make_runner()
    reference = runner.run()
    CALLS["stimulus"] = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for _ in range(2):
            result = runner.run(checkpoint_dir=tmp_path)
            assert result.results == reference.results
    assert CALLS["stimulus"] == 16          # never replayed, ran once
    assert [str(w.message) for w in caught] == [
        f"{old.parent} is a sweep journal in the old units/*.pkl layout; "
        "it is never replayed — delete it to reclaim the space"]
