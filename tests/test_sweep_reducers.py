"""Streaming reducer layer: built-in reducer algebra (merge
associativity, chunking/order invariance), the runner's streaming
path (``reducers=`` / ``keep_results=False``), checkpoint integration
(fingerprint v3, partials-only journals), the LinkSession facade
passthrough, and the streaming reporting renderers.

Helpers are module-level so the pool tests can pickle them.
"""

import itertools
import random

import numpy as np
import pytest

from repro.reporting import (format_aggregates, format_quantile_table,
                             render_histogram)
from repro.signals import Waveform
from repro.sweep import (Count, Histogram, MeanVar, MinMax, Quantiles,
                         ScenarioGrid, SweepAxis, SweepRunner, Yield)
from repro.sweep.checkpoint import journal_key
from toy_blocks import GainBlock
from serial_oracles import serial_sweep

FS = 160e9


def stimulus(params):
    return Waveform(np.full(16, params["level"]), FS)


def build(params):
    return GainBlock(params["gain"])


def measure(batch, params_list):
    return batch.data[:, 0].tolist()


def passes(value, params):
    return value > 1.0


LEVELS = tuple((i + 1) / 8 for i in range(8))


def make_grid():
    return ScenarioGrid([
        SweepAxis("gain", (2.0, 3.0), structural=True),
        SweepAxis("level", LEVELS),
    ])


def make_reducers():
    return {
        "n": Count(),
        "extrema": MinMax(),
        "mv": MeanVar(),
        "hist": Histogram(0.0, 3.5, n_bins=16),
        "q": Quantiles(qs=(0.1, 0.5, 0.9), lo=0.0, hi=3.5, n_bins=128),
        "yield": Yield(passes),
    }


def make_runner(**kwargs):
    defaults = dict(stimulus=stimulus, build=build, measure=measure,
                    retry_backoff_s=0.0)
    defaults.update(kwargs)
    return SweepRunner(make_grid(), **defaults)


DENSE_VALUES = np.array([g * level for g in (2.0, 3.0)
                         for level in LEVELS])


def finalized_equal(a, b, *, rtol=0.0):
    """Compare finalized aggregates, exact for integer-state reducers
    and within ``rtol`` for the floating MeanVar moments."""
    if isinstance(a, type(b)) and hasattr(a, "variance"):
        return (a.n == b.n
                and np.isclose(a.mean, b.mean, rtol=rtol, atol=0.0)
                and np.isclose(a.variance, b.variance, rtol=rtol,
                               atol=1e-300))
    if hasattr(a, "counts"):
        return (np.array_equal(a.counts, b.counts)
                and np.array_equal(a.edges, b.edges)
                and a.underflow == b.underflow
                and a.overflow == b.overflow)
    return a == b


# -- reducer algebra (property-style) -----------------------------------------

def chunked(values, params, sizes):
    """Split (values, params) into chunks cycling through ``sizes``."""
    chunks, i, k = [], 0, 0
    while i < len(values):
        size = sizes[k % len(sizes)]
        chunks.append((values[i:i + size], params[i:i + size]))
        i += size
        k += 1
    return chunks


@pytest.mark.parametrize("name", ["n", "extrema", "mv", "hist", "q",
                                  "yield"])
def test_reducer_is_merge_associative_and_chunking_invariant(name):
    """Every built-in must finalize to the same value no matter how the
    rows are chunked (chunk_rows 1 / 3 / 7 / all), how the partials are
    associated during the merge, or in what order units completed —
    exactly for integer-state reducers, ≤1e-9 relative for MeanVar."""
    reducer = make_reducers()[name]
    values = list(DENSE_VALUES)
    params = [{"i": i} for i in range(len(values))]
    rtol = 1e-9 if name == "mv" else 0.0

    references = None
    for sizes in ((1,), (3,), (7,), (len(values),), (1, 3, 7)):
        partials = [reducer.update(reducer.init(), vals, ps)
                    for vals, ps in chunked(values, params, sizes)]

        # Left fold, right fold, balanced tree: same finalized value.
        left = reducer.init()
        for partial in partials:
            left = reducer.merge(left, partial)
        right = reducer.init()
        for partial in reversed(partials):
            right = reducer.merge(partial, right)
        tree = list(partials)
        while len(tree) > 1:
            tree = [reducer.merge(tree[i], tree[i + 1])
                    if i + 1 < len(tree) else tree[i]
                    for i in range(0, len(tree), 2)]
        folds = [reducer.finalize(left), reducer.finalize(right),
                 reducer.finalize(tree[0])]

        # Shuffled completion order: merging the same partials in any
        # permutation is the pool's nondeterminism made explicit.
        rng = random.Random(17)
        for _ in range(4):
            shuffled = list(partials)
            rng.shuffle(shuffled)
            state = reducer.init()
            for partial in shuffled:
                state = reducer.merge(state, partial)
            folds.append(reducer.finalize(state))

        for other in folds[1:]:
            assert finalized_equal(folds[0], other, rtol=rtol), \
                f"{name}: fold mismatch under sizes {sizes}"
        if references is None:
            references = folds[0]
        else:
            assert finalized_equal(references, folds[0], rtol=rtol), \
                f"{name}: chunking {sizes} changed the aggregate"


def test_reducers_skip_quarantined_none_rows():
    values = [1.0, None, 3.0, None]
    params = [{"i": i} for i in range(4)]
    mv = MeanVar()
    n, mean, _ = mv.update(mv.init(), values, params)
    assert (n, mean) == (2, 2.0)
    counter = Count()
    assert counter.update(counter.init(), values, params) == 2
    tally = Yield(passes)
    assert tally.finalize(tally.update(tally.init(), values,
                                       params)).n_total == 2


def test_empty_sweep_finalizes_to_nan_not_crash():
    for name, reducer in make_reducers().items():
        final = reducer.finalize(reducer.init())
        if name == "n":
            assert final == 0
        elif name == "yield":
            assert final.n_total == 0 and np.isnan(final.fraction)
        elif name == "hist":
            assert final.n == 0
        elif name == "q":
            assert all(np.isnan(v) for v in final.values)
        else:
            assert final.n == 0 and np.isnan(final.mean
                                             if name == "mv"
                                             else final.min)


def test_histogram_out_of_range_and_quantile_interpolation():
    hist = Histogram(0.0, 1.0, n_bins=4)
    state = hist.update(hist.init(), [-1.0, 0.1, 0.3, 0.6, 0.9, 2.0],
                        [{}] * 6)
    final = hist.finalize(state)
    assert final.underflow == 1 and final.overflow == 1
    assert final.n == 6
    assert int(final.counts.sum()) == 4
    assert final.quantile(0.0) == 0.0
    assert final.quantile(1.0) == 1.0
    assert 0.0 <= final.quantile(0.5) <= 1.0
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        final.quantile(1.5)


def test_quantiles_result_lookup():
    q = Quantiles(qs=(0.5,), lo=0.0, hi=1.0)
    final = q.finalize(q.update(q.init(), [0.5] * 10, [{}] * 10))
    assert final[0.5] == pytest.approx(0.5, abs=1 / 256)
    with pytest.raises(KeyError, match="not requested"):
        final[0.9]


def test_extract_errors_name_the_scenario():
    mv = MeanVar(extract=lambda m, p: m["missing"])
    with pytest.raises(TypeError, match=r"level.*0.5"):
        mv.update(mv.init(), [1.0], [{"level": 0.5}])


def test_reducer_validation():
    with pytest.raises(ValueError, match="hi > lo"):
        Histogram(1.0, 0.0)
    with pytest.raises(ValueError, match="n_bins"):
        Histogram(0.0, 1.0, n_bins=0)
    with pytest.raises(ValueError, match="at least one quantile"):
        Quantiles(qs=())
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Quantiles(qs=(1.5,))
    with pytest.raises(ValueError, match="predicate"):
        Yield()


def test_reducer_journal_key_is_stable_and_config_sensitive():
    assert journal_key(None) != journal_key({})
    a = journal_key({"h": Histogram(0.0, 1.0, n_bins=8)})
    assert a == journal_key({"h": Histogram(0.0, 1.0, n_bins=8)})
    assert a != journal_key({"h": Histogram(0.0, 1.0, n_bins=9)})
    assert journal_key({"y": Yield(passes)}) \
        != journal_key({"y": Yield(lambda v, p: v > 2.0)})


# -- runner streaming path ----------------------------------------------------

def test_runner_validation_rejects_misuse():
    with pytest.raises(ValueError, match="keep_results=False without "
                                         "reducers"):
        make_runner(keep_results=False)
    with pytest.raises(ValueError, match="raw processed"):
        SweepRunner(make_grid(), stimulus=stimulus, build=build,
                    reducers=make_reducers())
    with pytest.raises(ValueError, match="at least one reducer"):
        make_runner(reducers={})
    with pytest.raises(TypeError, match="Reducer protocol"):
        make_runner(reducers={"bad": object()})


@pytest.mark.parametrize("chunk_rows", [1, 3, 7, None])
def test_streaming_aggregates_match_dense_run(chunk_rows):
    dense = make_runner().run()
    streaming = make_runner(chunk_rows=chunk_rows,
                            reducers=make_reducers(),
                            keep_results=False).run()
    values = np.asarray(dense.results, dtype=float)
    aggregates = streaming.aggregates
    # Exact for the integer-state reducers...
    assert aggregates["n"] == values.size
    assert aggregates["extrema"].min == values.min()
    assert aggregates["extrema"].max == values.max()
    assert aggregates["yield"].n_pass == int((values > 1.0).sum())
    assert aggregates["yield"].n_total == values.size
    dense_hist, _ = np.histogram(values, bins=aggregates["hist"].edges)
    assert np.array_equal(aggregates["hist"].counts, dense_hist)
    # ... ≤1e-9 relative for the Welford/Chan moments.
    assert aggregates["mv"].n == values.size
    assert np.isclose(aggregates["mv"].mean, values.mean(), rtol=1e-9)
    assert np.isclose(aggregates["mv"].variance, values.var(), rtol=1e-9)


def test_streaming_result_has_no_dense_rows():
    result = make_runner(chunk_rows=2, reducers=make_reducers(),
                         keep_results=False).run()
    assert result.results is None
    assert result.params is None
    assert len(result) == make_grid().n_scenarios
    with pytest.raises(ValueError, match="keep_results=False.*aggregates"):
        result.values(lambda r: r)


def test_dense_path_is_unchanged_alongside_reducers():
    reference = make_runner().run()
    both = make_runner(chunk_rows=3, reducers=make_reducers()).run()
    assert both.results == reference.results
    assert both.params == reference.params
    assert both.aggregates["n"] == len(reference)


def test_serial_sweep_supports_reducers_and_keep_results():
    dense = make_runner().run()
    serial = serial_sweep(make_runner(reducers=make_reducers()))
    assert serial.results == dense.results
    assert serial.aggregates["n"] == len(dense)
    lean = serial_sweep(make_runner(reducers=make_reducers(),
                                    keep_results=False))
    assert lean.results is None
    assert np.isclose(lean.aggregates["mv"].mean,
                      serial.aggregates["mv"].mean, rtol=1e-9)


def test_pool_streaming_matches_inprocess():
    reference = make_runner(chunk_rows=2, reducers=make_reducers(),
                            keep_results=False).run()
    pooled = make_runner(chunk_rows=2, reducers=make_reducers(),
                         keep_results=False, processes=2).run()
    for name in reference.aggregates:
        assert finalized_equal(pooled.aggregates[name],
                               reference.aggregates[name]), name


def test_streaming_and_dense_journals_never_mix(tmp_path):
    dense = make_runner(chunk_rows=2)
    streaming = make_runner(chunk_rows=2, reducers=make_reducers(),
                            keep_results=False)
    assert dense._fingerprint()["version"] == 6
    assert dense._fingerprint() != streaming._fingerprint()
    dense.run(checkpoint_dir=tmp_path)
    streaming.run(checkpoint_dir=tmp_path)
    # Two distinct journal keys: a dense journal is never consumed by a
    # streaming run or vice versa.
    assert len(list(tmp_path.iterdir())) == 2
    # Different reducer configs also separate.
    rebinned = make_runner(chunk_rows=2,
                           reducers={"hist": Histogram(0.0, 3.5,
                                                       n_bins=32)},
                           keep_results=False)
    rebinned.run(checkpoint_dir=tmp_path)
    assert len(list(tmp_path.iterdir())) == 3


def test_streaming_checkpoint_replay_finalizes_identically(tmp_path):
    runner = make_runner(chunk_rows=2, reducers=make_reducers(),
                         keep_results=False)
    first = runner.run(checkpoint_dir=tmp_path)
    replay = runner.run(checkpoint_dir=tmp_path)
    for name in first.aggregates:
        assert finalized_equal(replay.aggregates[name],
                               first.aggregates[name]), name


# -- facade + reporting -------------------------------------------------------

def test_link_session_sweep_passes_reducers_through():
    from repro import ChannelConfig, LinkSession, TxConfig
    from repro.signals import bits_to_nrz, prbs7

    session = LinkSession.from_configs(tx=TxConfig(),
                                       channel=ChannelConfig(0.0),
                                       bit_rate=10e9)
    grid = ScenarioGrid([SweepAxis("amplitude", (0.2, 0.4, 0.8))])
    result = session.sweep(
        grid,
        stimulus=lambda p: bits_to_nrz(prbs7(48, seed=3), 10e9,
                                       amplitude=p["amplitude"],
                                       samples_per_bit=16),
        reducers={
            "height": MeanVar(extract=lambda r, p: r.eye.eye_height),
            "open": Yield(lambda r, p: r.eye.eye_height > 0.0),
        },
        keep_results=False,
    )
    assert result.results is None
    assert result.aggregates["height"].n == 3
    assert result.aggregates["open"].fraction == 1.0
    # Dense facade sweeps still carry no aggregates.
    dense = session.sweep(
        grid,
        stimulus=lambda p: bits_to_nrz(prbs7(48, seed=3), 10e9,
                                       amplitude=p["amplitude"],
                                       samples_per_bit=16))
    assert dense.aggregates is None and len(dense.results) == 3


def test_streaming_reporting_renders_without_per_row_data():
    result = make_runner(chunk_rows=2, reducers=make_reducers(),
                         keep_results=False).run()
    art = render_histogram(result.aggregates["hist"],
                           title="dc level", unit=" V")
    assert "dc level" in art and "16 in range" in art
    table = format_quantile_table(result.aggregates["q"], label="level")
    assert "p50" in table and "(n = 16)" in table
    summary = format_aggregates(result.aggregates)
    for name in result.aggregates:
        assert name in summary
    with pytest.raises(ValueError, match="no aggregates"):
        format_aggregates({})
    with pytest.raises(ValueError, match="edges"):
        render_histogram(type("Bad", (), {"edges": np.arange(3.0),
                                          "counts": np.ones(5)})())
