"""Sweep reliability layer: checkpoint/resume, supervised pool,
quarantine, and the deterministic fault-injection harness.

The helpers below are module-level on purpose: pool tests need
picklable callables.  ``CALLS`` counts stimulus invocations in-process
(resume tests assert journaled units are genuinely skipped).
"""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.signals import Waveform
from repro.sweep import (CheckpointJournal, Count, Histogram, MeanVar,
                         MinMax, Quantiles, ScenarioGrid, SweepAxis,
                         SweepFailure, SweepRunner, Yield)
from toy_blocks import GainBlock
import sweep_faults as faults_mod
from sweep_faults import FaultInjected, FaultRule, inject_faults
from repro.sweep.checkpoint import journal_key
from repro.sweep.runner import _has_nonfinite

FS = 160e9

CALLS = {"stimulus": 0}


def stimulus(params):
    CALLS["stimulus"] += 1
    return Waveform(np.full(16, params["level"]), FS)


def build(params):
    return GainBlock(params["gain"])


def measure(wave, params):
    return float(wave.data[0])


def measure_batch(batch, params_list):
    return [float(value) for value in batch.data[:, 0]]


def make_runner(**kwargs):
    grid = ScenarioGrid([
        SweepAxis("gain", (2.0, 3.0), structural=True),
        SweepAxis("level", tuple((i + 1) / 8 for i in range(8))),
    ])
    defaults = dict(stimulus=stimulus, build=build, measure=measure_batch,
                    chunk_rows=2, retry_backoff_s=0.0)
    defaults.update(kwargs)
    return SweepRunner(grid, **defaults)


def passes_threshold(value, params):
    return value > 1.0


def streaming_reducers():
    """Picklable reducer set (pool tests ship the runner to workers)."""
    return {
        "n": Count(),
        "mv": MeanVar(),
        "extrema": MinMax(),
        "hist": Histogram(0.0, 3.5, n_bins=16),
        "q": Quantiles(qs=(0.1, 0.5, 0.9), lo=0.0, hi=3.5, n_bins=64),
        "yield": Yield(passes_threshold),
    }


def expected_values(runner):
    return runner.grid, np.array(
        [[g * level for level in (0.125, 0.25, 0.375, 0.5,
                                  0.625, 0.75, 0.875, 1.0)]
         for g in (2.0, 3.0)])


# -- validation (satellites) --------------------------------------------------

def test_post_init_validation():
    with pytest.raises(ValueError, match="processes"):
        make_runner(processes=-1)
    with pytest.raises(ValueError, match="timeout"):
        make_runner(timeout=0)
    with pytest.raises(ValueError, match="max_attempts"):
        make_runner(max_attempts=0)
    with pytest.raises(ValueError, match="retry_backoff_s"):
        make_runner(retry_backoff_s=-0.1)
    with pytest.raises(ValueError, match="on_error"):
        make_runner(on_error="ignore")
    # The boundary values are all legal.
    make_runner(processes=0, timeout=0.5, max_attempts=1,
                retry_backoff_s=0.0, on_error="quarantine")


def test_values_maps_failures_to_nan_and_strict_raises():
    grid = ScenarioGrid([SweepAxis("level", (0.1, 0.2, 0.3))])
    from repro.sweep import SweepResult
    failure = SweepFailure(params={"level": 0.2}, kind="exception",
                           error="boom", attempts=3)
    result = SweepResult(grid=grid,
                         params=[{"level": v} for v in (0.1, 0.2, 0.3)],
                         results=[1.0, None, 3.0], failures=[failure])
    values = result.values(lambda r: r)
    assert values[0] == 1.0 and values[2] == 3.0
    assert np.isnan(values[1])
    with pytest.raises(ValueError, match=r"1 scenario\(s\) failed.*boom"):
        result.values(lambda r: r, strict=True)
    # SweepFailure must survive a journal round-trip.
    assert pickle.loads(pickle.dumps(failure)) == failure


def test_has_nonfinite_handles_sweep_value_shapes():
    assert not _has_nonfinite(1.0)
    assert not _has_nonfinite("a string")
    assert not _has_nonfinite(None)
    assert _has_nonfinite(float("nan"))
    assert _has_nonfinite(np.inf)
    assert _has_nonfinite(np.array([1.0, np.nan]))
    assert not _has_nonfinite(np.array(["a", "b"], dtype=object))
    assert _has_nonfinite((1.0, float("inf")))
    assert _has_nonfinite(Waveform(np.array([1.0, np.nan]), FS))
    assert not _has_nonfinite(Waveform(np.ones(4), FS))
    # Plain Python numbers take the math/cmath path; an int is always
    # finite, however large.
    assert not _has_nonfinite(3) and not _has_nonfinite(10**400)
    assert not _has_nonfinite(True)
    assert _has_nonfinite(float("-inf"))
    assert not _has_nonfinite(1 + 2j)
    assert _has_nonfinite(complex(0.0, float("inf")))
    assert _has_nonfinite(complex(float("nan"), 0.0))
    # numpy scalars keep the numpy path.
    assert _has_nonfinite(np.float32("nan"))
    assert _has_nonfinite(np.complex128(complex(1.0, float("-inf"))))
    assert not _has_nonfinite(np.int64(7))
    assert not _has_nonfinite(np.float64(0.5))


# -- fault harness ------------------------------------------------------------

def test_fault_rule_validation_and_matching():
    with pytest.raises(ValueError, match="unknown fault mode"):
        FaultRule(mode="explode")
    with pytest.raises(ValueError, match="times"):
        FaultRule(mode="raise", times=0)
    rule = FaultRule(mode="raise", si=1, rows=(5,))
    assert rule.matches(1, 4, 6)
    assert not rule.matches(0, 4, 6)   # wrong structural point
    assert not rule.matches(1, 6, 8)   # row 5 outside [6, 8)
    anywhere = FaultRule(mode="raise")
    assert anywhere.matches(7, 0, 100)


def test_plan_roundtrip_and_env_restore(tmp_path):
    rules = [FaultRule(mode="nan", rows=(2, 5), times=None),
             FaultRule(mode="hang", seconds=1.5)]
    path = faults_mod.write_plan(tmp_path / "plan.json", rules)
    assert faults_mod.read_plan(path) == rules
    before = os.environ.get(faults_mod.ENV_VAR)
    with inject_faults(rules, tmp_path / "active") as plan:
        assert os.environ[faults_mod.ENV_VAR] == str(plan)
    assert os.environ.get(faults_mod.ENV_VAR) == before


def test_claim_counts_attempts_across_calls(tmp_path):
    rule = FaultRule(mode="raise", times=2)
    plan = faults_mod.write_plan(tmp_path / "plan.json", [rule])
    fires = [faults_mod._claim(plan, 0, rule, (0, 0, 4))
             for _ in range(4)]
    assert fires == [True, True, False, False]
    # A different unit has its own counter.
    assert faults_mod._claim(plan, 0, rule, (1, 0, 4))


# -- checkpoint journal -------------------------------------------------------

def test_checkpoint_skips_journaled_units(tmp_path):
    runner = make_runner()
    CALLS["stimulus"] = 0
    first = runner.run(checkpoint_dir=tmp_path)
    calls_full = CALLS["stimulus"]
    assert calls_full == 16
    CALLS["stimulus"] = 0
    second = runner.run(checkpoint_dir=tmp_path)
    assert CALLS["stimulus"] == 0          # every unit replayed
    assert second.results == first.results
    assert second.params == first.params


def test_checkpoint_key_separates_configs(tmp_path):
    a = make_runner(chunk_rows=2)
    b = make_runner(chunk_rows=4)        # different unit boundaries
    a.run(checkpoint_dir=tmp_path)
    CALLS["stimulus"] = 0
    b.run(checkpoint_dir=tmp_path)
    assert CALLS["stimulus"] == 16       # b shares nothing with a
    keys = {p.name for p in tmp_path.iterdir()}
    assert len(keys) == 2


def test_corrupt_journal_entry_is_rerun(tmp_path):
    runner = make_runner()
    runner.run(checkpoint_dir=tmp_path)
    journal = CheckpointJournal.open(tmp_path, runner._fingerprint())
    keys = journal.unit_keys()
    assert len(journal) == len(keys) == 8   # 2 points x 4 chunks
    log = journal.path / "journal.log"
    data = bytearray(log.read_bytes())
    data[-1] ^= 0xFF                        # corrupt the last record
    log.write_bytes(bytes(data))
    journal = CheckpointJournal.open(tmp_path, runner._fingerprint())
    assert journal.load("1-6-8") is None    # corrupt -> treated missing
    assert len(journal) == 7
    CALLS["stimulus"] = 0
    runner.run(checkpoint_dir=tmp_path)
    assert CALLS["stimulus"] == 2           # only that unit re-ran


def test_abort_then_resume_is_bit_exact(tmp_path):
    runner = make_runner()
    reference = make_runner().run()
    with inject_faults([FaultRule(mode="abort", si=1, start=4)],
                       tmp_path / "faults"):
        with pytest.raises(faults_mod.SweepAbort):
            runner.run(checkpoint_dir=tmp_path / "ckpt")
    journal = CheckpointJournal.open(tmp_path / "ckpt",
                                     runner._fingerprint())
    done_before = len(journal)
    assert 0 < done_before < 8              # partial journal left behind
    CALLS["stimulus"] = 0
    resumed = runner.run(checkpoint_dir=tmp_path / "ckpt")
    assert CALLS["stimulus"] == 2 * (8 - done_before)
    assert resumed.results == reference.results
    assert resumed.params == reference.params
    assert resumed.failures == []


def test_abort_stays_observable_when_its_raise_is_lost(tmp_path):
    """A pool break can lose the worker result that carried an abort,
    after the one-shot rule is spent: the requeued unit (or any other)
    must abort again instead of running clean."""
    with inject_faults([FaultRule(mode="abort", si=1, start=4)],
                       tmp_path / "faults"):
        with pytest.raises(faults_mod.SweepAbort):
            faults_mod.on_unit_start((1, 4, 6))   # the raise a break loses
        for unit in [(1, 4, 6), (0, 0, 2)]:
            with pytest.raises(faults_mod.SweepAbort,
                               match=r"unit \(1, 4, 6\)"):
                faults_mod.on_unit_start(unit)
    faults_mod.on_unit_start((1, 4, 6))           # no plan: nothing fires


def test_journal_key_is_stable_and_content_sensitive():
    assert journal_key(None) == journal_key(None)
    assert journal_key(measure) == journal_key(measure)
    assert journal_key(measure) != journal_key(measure_batch)

    def closure_over(value):
        return lambda p: value

    assert journal_key(closure_over(1)) \
        != journal_key(closure_over(2))


def test_journal_key_tolerates_empty_closure_cell():
    # A closure cell can be observed before it is bound (recursive
    # inner functions, fingerprinting mid-construction); it must
    # key as a placeholder, not crash run(checkpoint_dir=...).
    def outer():
        def fn(params):
            return inner_value
        unbound = journal_key(fn)
        inner_value = 1
        assert fn(None) == inner_value
        return unbound, journal_key(fn)

    unbound, bound = outer()
    assert unbound != bound


def test_checkpoint_key_separates_failure_policy(tmp_path):
    quarantining = make_runner(on_error="quarantine", max_attempts=2)
    with inject_faults([FaultRule(mode="raise", si=0, rows=(3,),
                                  times=None)], tmp_path / "faults"):
        first = quarantining.run(checkpoint_dir=tmp_path / "ckpt")
    assert len(first.failures) == 1
    # A raise-mode runner must not inherit the quarantined journal:
    # its fingerprint differs, so everything re-runs and (faults now
    # inactive) completes clean instead of replaying a None row
    # without ever raising.
    raising = make_runner(on_error="raise", max_attempts=2)
    CALLS["stimulus"] = 0
    clean = raising.run(checkpoint_dir=tmp_path / "ckpt")
    assert CALLS["stimulus"] == 16
    assert clean.failures == []
    assert all(value is not None for value in clean.results)
    assert len({p.name for p in (tmp_path / "ckpt").iterdir()}) == 2


# -- retries and quarantine (in-process) --------------------------------------

def test_transient_fault_is_retried_clean(tmp_path):
    runner = make_runner(on_error="quarantine", max_attempts=3)
    with inject_faults([FaultRule(mode="raise", si=0, start=2, times=2)],
                       tmp_path):
        result = runner.run()
    grid, expected = expected_values(runner)
    np.testing.assert_array_equal(result.values(lambda r: r), expected)
    assert result.failures == []


def test_raise_mode_propagates_immediately(tmp_path):
    runner = make_runner(on_error="raise")
    with inject_faults([FaultRule(mode="raise", si=0, start=2, times=None)],
                       tmp_path):
        with pytest.raises(FaultInjected):
            runner.run()


def test_persistent_fault_bisects_to_single_row(tmp_path):
    runner = make_runner(on_error="quarantine", max_attempts=2)
    # Row-targeted rule keeps matching the bisected sub-units, so only
    # batch row 3 (level=0.5) of structural point 0 is quarantined.
    with inject_faults([FaultRule(mode="raise", si=0, rows=(3,),
                                  times=None)], tmp_path):
        result = runner.run()
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.kind == "exception"
    assert failure.params == {"gain": 2.0, "level": 0.5}
    assert failure.attempts == 2
    assert "FaultInjected" in failure.traceback
    values = result.values(lambda r: r)
    grid, expected = expected_values(runner)
    expected[0, 3] = np.nan
    np.testing.assert_array_equal(values, expected)
    with pytest.raises(ValueError, match="level.*0.5"):
        result.values(lambda r: r, strict=True)


def test_nan_guard_quarantines_poisoned_rows(tmp_path):
    runner = make_runner(on_error="quarantine", nan_guard=True,
                         max_attempts=2)
    with inject_faults([FaultRule(mode="nan", si=1, rows=(2, 5),
                                  times=None)], tmp_path):
        result = runner.run()
    assert sorted(f.params["level"] for f in result.failures) \
        == [0.375, 0.75]
    assert {f.kind for f in result.failures} == {"non-finite"}
    values = result.values(lambda r: r)
    grid, expected = expected_values(runner)
    expected[1, 2] = expected[1, 5] = np.nan
    np.testing.assert_array_equal(values, expected)


@dataclasses.dataclass(frozen=True)
class _Reading:
    height: float
    label: str = "eye"


#: One poisoned measurement per value kind the guard must see through.
POISONS = {
    "float nan": float("nan"),
    "float inf": float("inf"),
    "float -inf": float("-inf"),
    "numpy float64 nan": np.float64("nan"),
    "numpy float32 -inf": np.float32("-inf"),
    "complex nan": complex(1.0, float("nan")),
    "dataclass field inf": _Reading(float("inf")),
    "tuple item -inf": (1.0, float("-inf")),
}
#: (gain, level) of the poisoned rows: rows 2 and 5 of the second point.
POISONED = {(3.0, 0.375), (3.0, 0.75)}


def poisoned_measure(name):
    """A batch measure returning ``POISONS[name]`` on the rows in
    ``POISONED`` and a finite value of the same kind elsewhere."""
    poison = POISONS[name]
    healthy = {"dataclass field inf": _Reading,
               "tuple item -inf": lambda v: (v, v)}.get(name, type(poison))

    def measure(batch, params_list):
        return [poison if (p["gain"], p["level"]) in POISONED else healthy(v)
                for p, v in zip(params_list, batch.data.mean(axis=1).tolist())]
    return measure


@pytest.mark.parametrize("name", sorted(POISONS))
def test_nan_guard_finds_every_value_kind_on_the_same_rows(name):
    runner = make_runner(measure=poisoned_measure(name), nan_guard=True,
                         on_error="quarantine", max_attempts=2)
    result = runner.run()
    assert {(f.params["gain"], f.params["level"])
            for f in result.failures} == POISONED
    assert {f.kind for f in result.failures} == {"non-finite"}
    kept = [r for p, r in zip(result.params, result.results)
            if (p["gain"], p["level"]) not in POISONED]
    assert len(kept) == 14 and all(r is not None for r in kept)
    strict = make_runner(measure=poisoned_measure(name), nan_guard=True)
    with pytest.raises(ValueError,
                       match=r"rows \[2\] of structural point 1"):
        strict.run()


def test_nan_guard_raises_without_quarantine(tmp_path):
    runner = make_runner(on_error="raise", nan_guard=True)
    with inject_faults([FaultRule(mode="nan", si=1, rows=(2,),
                                  times=None)], tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            runner.run()


def test_nan_passes_through_without_guard(tmp_path):
    runner = make_runner()  # nan_guard=False: legacy behavior
    with inject_faults([FaultRule(mode="nan", si=1, rows=(2,),
                                  times=None)], tmp_path):
        result = runner.run()
    assert result.failures == []
    assert np.isnan(result.values(lambda r: r)[1, 2])


def test_quarantine_rows_persist_through_journal(tmp_path):
    runner = make_runner(on_error="quarantine", max_attempts=2)
    with inject_faults([FaultRule(mode="raise", si=0, rows=(3,),
                                  times=None)], tmp_path / "faults"):
        first = runner.run(checkpoint_dir=tmp_path / "ckpt")
    assert len(first.failures) == 1
    # Replay with no faults active: the quarantine is journaled, not
    # re-derived.
    CALLS["stimulus"] = 0
    replay = runner.run(checkpoint_dir=tmp_path / "ckpt")
    assert CALLS["stimulus"] == 0
    assert replay.failures == first.failures
    assert replay.results == first.results


# -- supervised pool ----------------------------------------------------------

def test_pool_matches_inprocess_results():
    reference = make_runner().run()
    pooled = make_runner(processes=2).run()
    assert pooled.results == reference.results
    assert pooled.params == reference.params


def test_pool_survives_worker_crash(tmp_path):
    runner = make_runner(processes=2, on_error="quarantine")
    with inject_faults([FaultRule(mode="crash", si=0, start=2, times=1)],
                       tmp_path):
        result = runner.run()
    reference = make_runner().run()
    assert result.failures == []            # crash was transient
    assert result.results == reference.results


def test_pool_quarantines_persistent_crash(tmp_path):
    runner = make_runner(processes=2, on_error="quarantine",
                         max_attempts=2)
    with inject_faults([FaultRule(mode="crash", si=0, rows=(3,),
                                  times=None)], tmp_path):
        result = runner.run()
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.kind == "crash"
    assert failure.params == {"gain": 2.0, "level": 0.5}
    grid, expected = expected_values(runner)
    expected[0, 3] = np.nan
    np.testing.assert_array_equal(result.values(lambda r: r), expected)


def test_pool_timeout_retries_hung_unit(tmp_path):
    runner = make_runner(processes=2, on_error="quarantine",
                         timeout=1.0, max_attempts=3)
    with inject_faults([FaultRule(mode="hang", si=1, start=4, times=1,
                                  seconds=30.0)], tmp_path):
        result = runner.run()
    reference = make_runner().run()
    assert result.failures == []            # hang was transient
    assert result.results == reference.results


def test_pool_quarantines_persistent_hang(tmp_path):
    runner = make_runner(processes=2, on_error="quarantine",
                         timeout=0.75, max_attempts=2, chunk_rows=8)
    with inject_faults([FaultRule(mode="hang", si=1, rows=(3,),
                                  times=None, seconds=30.0)], tmp_path):
        result = runner.run()
    assert len(result.failures) == 1
    assert result.failures[0].kind == "timeout"
    assert result.failures[0].params == {"gain": 3.0, "level": 0.5}
    grid, expected = expected_values(runner)
    expected[1, 3] = np.nan
    np.testing.assert_array_equal(result.values(lambda r: r), expected)


def test_pool_raise_mode_raises_on_persistent_crash(tmp_path):
    runner = make_runner(processes=2, on_error="raise", max_attempts=2)
    with inject_faults([FaultRule(mode="crash", si=0, rows=(3,),
                                  times=None)], tmp_path):
        with pytest.raises(RuntimeError, match="crash"):
            runner.run()


def test_pool_raise_mode_raises_promptly_on_persistent_hang(tmp_path):
    """The hung worker must be killed *before* the timeout charge
    raises; otherwise the supervisor's cleanup joins it and the sweep
    wedges for the length of the hang instead of raising."""
    runner = make_runner(processes=2, on_error="raise", timeout=0.75,
                         max_attempts=1, chunk_rows=8)
    begin = time.monotonic()
    with inject_faults([FaultRule(mode="hang", si=1, rows=(3,),
                                  times=None, seconds=60.0)], tmp_path):
        with pytest.raises(RuntimeError, match="timeout"):
            runner.run()
    assert time.monotonic() - begin < 30.0   # raised, didn't wedge


def test_pool_exception_quarantine_captures_traceback(tmp_path):
    runner = make_runner(processes=2, on_error="quarantine",
                         max_attempts=2)
    with inject_faults([FaultRule(mode="raise", si=0, rows=(3,),
                                  times=None)], tmp_path):
        result = runner.run()
    assert len(result.failures) == 1
    # The worker-side traceback travels through the _RemoteTraceback
    # cause, not the (empty) local frames.
    assert "FaultInjected" in result.failures[0].traceback


def test_pool_whose_workers_never_start_falls_back_in_process(monkeypatch):
    # Workers that are not all up within the start-up allowance break
    # the pool without charging any unit; past the break budget the
    # sweep finishes in-process instead of waiting on them for ever.
    import repro.sweep.runner as runner_module

    monkeypatch.setattr(runner_module, "_START_UP_TIMEOUT_S", 0.0)
    with pytest.warns(RuntimeWarning, match="in-process"):
        result = make_runner(processes=2, timeout=1.0,
                             on_error="quarantine").run()
    assert result.failures == []
    assert result.results == make_runner().run().results


SPAWN_SWEEP = """
import json
import multiprocessing

import numpy as np

from repro.signals import Waveform
from repro.sweep import ScenarioGrid, SweepAxis, SweepRunner
from toy_blocks import GainBlock


def stimulus(params):
    return Waveform(np.full(16, params["level"]), 160e9)


def build(params):
    return GainBlock(params["gain"])


def measure(batch, params_list):
    return [float(value) for value in batch.data[:, 0]]


if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    grid = ScenarioGrid([SweepAxis("gain", (2.0, 3.0), structural=True),
                         SweepAxis("level", (0.25, 0.5, 0.75, 1.0))])
    result = SweepRunner(grid, stimulus=stimulus, build=build,
                         measure=measure, chunk_rows=2, processes=2,
                         timeout=0.5, max_attempts=2, retry_backoff_s=0.0,
                         on_error="quarantine").run()
    print(json.dumps({"failures": [f.kind for f in result.failures],
                      "values": result.values(lambda r: r).tolist()}))
"""


def test_spawned_pool_does_not_charge_worker_start_up(tmp_path):
    # Under the spawn start method (the default on macOS and Windows) a
    # worker imports repro before it can take a unit, which takes
    # longer than this sweep's 0.5 s unit timeout.  That start-up is
    # not unit time: no healthy unit may be charged as hung.
    script = tmp_path / "spawn_sweep.py"
    script.write_text(SPAWN_SWEEP)
    env = dict(os.environ)
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env["PYTHONPATH"] = os.pathsep.join([src, tests,
                                         env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["failures"] == []
    assert report["values"] == [[2.0 * level for level in (0.25, 0.5, 0.75,
                                                           1.0)],
                                [3.0 * level for level in (0.25, 0.5, 0.75,
                                                           1.0)]]


# -- end-to-end acceptance ----------------------------------------------------

def test_e2e_crash_quarantine_then_checkpoint_resume(tmp_path):
    """The acceptance scenario: a worker is killed mid-sweep, the sweep
    completes with the injected rows quarantined and healthy rows
    present; a second phase aborts mid-run and resumes from the
    journal, merging bit-exact with an uninterrupted run."""
    # Phase A: persistent crash on one row + NaN on another, under a
    # pool with quarantine; the sweep must complete.
    runner = make_runner(processes=2, on_error="quarantine",
                         nan_guard=True, max_attempts=2)
    with inject_faults([
        FaultRule(mode="crash", si=0, rows=(5,), times=None),
        FaultRule(mode="nan", si=1, rows=(2,), times=None),
    ], tmp_path / "faults_a"):
        result = runner.run(checkpoint_dir=tmp_path / "ckpt_a")
    kinds = {f.kind for f in result.failures}
    assert kinds == {"crash", "non-finite"}
    assert sorted((f.params["gain"], f.params["level"])
                  for f in result.failures) \
        == [(2.0, 0.75), (3.0, 0.375)]
    grid, expected = expected_values(runner)
    expected[0, 5] = expected[1, 2] = np.nan
    np.testing.assert_array_equal(result.values(lambda r: r), expected)

    # Replaying the journal preserves the quarantine without faults.
    replay = runner.run(checkpoint_dir=tmp_path / "ckpt_a")
    assert replay.failures == result.failures
    assert replay.results == result.results

    # Phase B: a healthy runner dies mid-sweep (abort) and resumes.
    healthy = make_runner(processes=2, on_error="quarantine")
    uninterrupted = make_runner().run()
    with inject_faults([FaultRule(mode="abort", si=1, start=4)],
                       tmp_path / "faults_b"):
        with pytest.raises(faults_mod.SweepAbort):
            healthy.run(checkpoint_dir=tmp_path / "ckpt_b")
    resumed = healthy.run(checkpoint_dir=tmp_path / "ckpt_b")
    assert resumed.results == uninterrupted.results
    assert resumed.params == uninterrupted.params
    assert resumed.failures == []


def test_e2e_streaming_kill_worker_resume_identical_aggregates(tmp_path):
    """Streaming acceptance: a pooled keep_results=False sweep loses a
    worker mid-run (transient crash), then the supervisor itself dies
    (abort) leaving a partial journal of reducer partials; the resumed
    sweep finalizes aggregates bit-identical to an uninterrupted
    in-process streaming run — partials merge in canonical unit order,
    so neither the kill, the pool's completion order, nor the resume
    can shift the result."""
    reference = make_runner(reducers=streaming_reducers(),
                            keep_results=False).run()
    runner = make_runner(processes=2, on_error="quarantine",
                         reducers=streaming_reducers(),
                         keep_results=False)
    with inject_faults([
        FaultRule(mode="crash", si=0, start=2, times=1),
        FaultRule(mode="abort", si=1, start=4),
    ], tmp_path / "faults"):
        with pytest.raises(faults_mod.SweepAbort):
            runner.run(checkpoint_dir=tmp_path / "ckpt")
    journal = CheckpointJournal.open(tmp_path / "ckpt",
                                     runner._fingerprint())
    assert 0 < len(journal) < 8          # died mid-sweep, partials kept

    resumed = runner.run(checkpoint_dir=tmp_path / "ckpt")
    assert resumed.results is None and resumed.params is None
    assert resumed.failures == []        # the crash was transient
    assert set(resumed.aggregates) == set(reference.aggregates)
    for name, expected in reference.aggregates.items():
        actual = resumed.aggregates[name]
        if hasattr(expected, "counts"):
            np.testing.assert_array_equal(actual.counts, expected.counts)
            assert (actual.underflow, actual.overflow) \
                == (expected.underflow, expected.overflow)
        elif hasattr(expected, "variance"):
            assert (actual.n, actual.mean, actual.variance) \
                == (expected.n, expected.mean, expected.variance)
        else:
            assert actual == expected, name
