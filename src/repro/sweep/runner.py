"""Batched sweep execution over a :class:`ScenarioGrid`.

The runner partitions a grid's axes into structural (pipeline rebuild
per point) and batchable (same pipeline, many stimuli) and executes

    for each structural point:
        build the pipeline once
        stack every batchable stimulus into one WaveformBatch
        push the batch through the pipeline in one vectorized pass
        measure the whole batch with one measure(batch, params_list) call

Every kernel in the library is row-independent, so row ``i`` equals
the same scenario simulated and measured alone.

Execution is organised in **units** — one (structural point, row-chunk)
each, ``chunk_rows`` rows per chunk — which are the granularity of
everything reliability-related:

* **checkpoint/resume** — ``run(checkpoint_dir=...)`` journals every
  finished unit (:mod:`repro.sweep.checkpoint`) and skips journaled
  units on the next run, so an interrupted million-point sweep restarts
  where it died and the merged result is bit-exact vs an uninterrupted
  run;
* **supervised pooling** — with ``processes > 1`` units are submitted
  individually to a process pool with a configurable per-unit
  ``timeout``, bounded retries with exponential backoff, and
  ``BrokenProcessPool`` recovery (respawn, requeue, re-attribute by
  isolating the suspects); if the pool keeps breaking without an
  attributable culprit the runner falls back to in-process execution
  with a ``RuntimeWarning`` — loudly, never silently;
* **quarantine** — with ``on_error="quarantine"``, a unit that keeps
  failing (exception, timeout, worker crash, or non-finite output
  under the opt-in ``nan_guard``) is bisected down to the offending
  rows, which are recorded as :class:`SweepFailure` entries on
  :attr:`SweepResult.failures` while every healthy row still
  completes.

Only ``Exception`` is retried or quarantined: ``KeyboardInterrupt`` and
every other ``BaseException`` propagate on their first raise (killing
any pool workers), leaving the journal to resume from.  The test
suite's deterministic fault-injection harness exercises all of the
above in CI by wrapping :func:`_execute_unit`.
"""

from __future__ import annotations

import cmath
import collections
import dataclasses
import math
import pickle
import time
import traceback as _traceback
import warnings
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..signals.batch import WaveformBatch, _apply_processor
from ..signals.waveform import Waveform
from .checkpoint import CheckpointJournal, journal_key
from .grid import ScenarioGrid
from .reducers import Reducer

__all__ = ["SweepRunner", "SweepResult", "SweepFailure",
           "closed_loop_cdr_measure", "dfe_measure"]


def closed_loop_cdr_measure(config, n_bits: Optional[int] = None,
                            reduce: Optional[Callable[[Any, Dict], Any]]
                            = None):
    """Build a ``measure(batch, params_list)`` running the bang-bang
    CDR closed-loop over every scenario.

    All of a structural point's scenarios advance through the CDR's
    batched kernel (the one ``repro.link`` drives) in one pass.
    ``reduce(result, params)`` maps each per-scenario
    :class:`~repro.cdr.CdrResult` to the value recorded in the
    :class:`SweepResult` (default: the result itself)::

        runner = SweepRunner(grid, stimulus=make_wave,
                             measure=closed_loop_cdr_measure(
                                 CdrConfig(bit_rate=10e9),
                                 reduce=lambda r, p: r.is_locked))
    """
    from ..cdr import BangBangCdr

    cdr = BangBangCdr(config)

    def measure(batch: WaveformBatch, params_list: List[Dict]) -> List[Any]:
        rows = cdr.recover(batch, n_bits=n_bits).rows()
        if reduce is not None:
            return [reduce(row, params)
                    for row, params in zip(rows, params_list)]
        return rows

    return measure


def dfe_measure(dfe, skip_bits: int = 16,
                reduce: Optional[Callable[[Any, Dict], Any]] = None):
    """Build a ``measure(batch, params_list)`` running a
    :class:`~repro.baselines.dfe.DecisionFeedbackEqualizer` over every
    scenario.

    All of a structural point's scenarios advance through the DFE's
    batched kernel (the one ``repro.link`` drives) in one pass.
    ``reduce((decisions, corrected), params)`` maps each scenario's DFE
    output to the value recorded in the :class:`SweepResult`; the
    default records the inner-eye height (worst-case vertical opening
    of the corrected samples after ``skip_bits``, worst sub-eye for a
    multi-level DFE), as
    :meth:`~repro.baselines.dfe.DecisionFeedbackEqualizer.inner_eye_height`
    measures it::

        runner = SweepRunner(grid, stimulus=make_wave,
                             measure=dfe_measure(dfe))
    """
    def measure(batch: WaveformBatch, params_list: List[Dict]) -> List[Any]:
        if reduce is None:
            return [float(height)
                    for height in dfe.inner_eye_height(batch, skip_bits)]
        decisions, corrected = dfe.equalize(batch)
        return [reduce((decisions[i], corrected[i]), params)
                for i, params in enumerate(params_list)]

    return measure


@dataclasses.dataclass(frozen=True)
class SweepFailure:
    """One quarantined scenario: the row that kept failing after the
    retry budget (and, for multi-row units, the bisection) ran out.

    ``kind`` is ``"exception"``, ``"timeout"``, ``"crash"`` or
    ``"non-finite"``; ``error`` / ``traceback`` carry what could be
    captured (worker crashes leave no traceback), and ``attempts`` is
    how many times the final single-row unit was tried.
    """

    params: Dict
    kind: str
    error: str
    traceback: str = ""
    attempts: int = 1


@dataclasses.dataclass
class SweepResult:
    """The outcome of a sweep, aligned with the grid's canonical order.

    ``params[i]`` is scenario ``i``'s full parameter dict and
    ``results[i]`` the measurement (or the processed
    :class:`~repro.signals.waveform.Waveform` when the runner has no
    measure function).  Scenarios quarantined by the reliability layer
    have ``results[i] is None`` and a matching :class:`SweepFailure`
    entry in :attr:`failures` (empty for fully healthy sweeps).

    A runner configured with streaming ``reducers`` additionally
    finalizes them into :attr:`aggregates` (reducer name → finalized
    value); with ``keep_results=False`` the dense ``params`` /
    ``results`` lists are not retained at all (both ``None``) and the
    aggregates are the entire product of the sweep — the shape that
    keeps a million-scenario study's memory flat.
    """

    grid: ScenarioGrid
    params: Optional[List[Dict]]
    results: Optional[List[Any]]
    failures: List[SweepFailure] = dataclasses.field(default_factory=list)
    aggregates: Optional[Dict[str, Any]] = None

    def __len__(self) -> int:
        if self.results is None:
            return self.grid.n_scenarios
        return len(self.results)

    def values(self, extract: Callable[[Any], float], *,
               strict: bool = False) -> np.ndarray:
        """Extract one float per scenario, shaped like the grid.

        ``extract`` maps a result to a number (e.g.
        ``lambda m: m.eye_height``); the returned array has
        ``grid.shape``.  Quarantined scenarios (``results[i] is
        None``) become ``nan`` so a partially failed sweep still
        reduces cleanly; pass ``strict=True`` to raise instead, with
        the failed scenarios' parameters listed.  An ``extract`` that
        raises is re-raised as a :class:`RuntimeError` naming the
        offending scenario's parameters (chained to the original), so
        a million-row reduction never dies anonymously.
        """
        if self.results is None:
            raise ValueError(
                "this sweep ran with keep_results=False: per-row results "
                "were never retained — read the streaming aggregates from "
                ".aggregates instead"
            )
        if strict and self.failures:
            shown = [f"{failure.params!r} [{failure.kind}: {failure.error}]"
                     for failure in self.failures[:8]]
            more = len(self.failures) - len(shown)
            raise ValueError(
                f"{len(self.failures)} scenario(s) failed: "
                + "; ".join(shown)
                + (f"; ... and {more} more" if more > 0 else "")
            )
        flat = np.empty(len(self.results), dtype=float)
        for i, result in enumerate(self.results):
            if result is None:
                flat[i] = np.nan
                continue
            try:
                flat[i] = extract(result)
            except Exception as error:
                params = self.params[i] if self.params is not None else "?"
                raise RuntimeError(
                    f"extract failed for scenario {i} with params "
                    f"{params!r}: {error!r}"
                ) from error
        return flat.reshape(self.grid.shape)

    def along(self, axis_name: str) -> Sequence:
        """The swept values of one axis (convenience for report tables)."""
        for axis in self.grid.axes:
            if axis.name == axis_name:
                return axis.values
        raise KeyError(
            f"no axis named {axis_name!r}; available axes: "
            f"{[axis.name for axis in self.grid.axes]}"
        )


# ---------------------------------------------------------------------------
# Execution units: the granularity of checkpointing, retries, quarantine.
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class _Unit:
    """One (structural point, row-chunk) of work.

    ``[start, stop)`` are batch-point indices within the structural
    point; :attr:`full_params` materializes the complete parameter dict
    of each row *on demand* from the grid (``O(n_rows)`` dicts per
    access, discarded with the unit's chunk), so the planned unit list
    costs ``O(n_units)`` — not ``O(n_scenarios)`` parameter dicts held
    for the whole sweep, which is what lets a ``keep_results=False``
    run stay memory-flat in scenario count.  ``attempts`` counts failed
    tries; ``suspect`` marks units that crashed or timed out and must
    therefore run isolated (sole in-flight unit) so the next failure is
    attributable.
    """

    si: int
    structural_params: Dict
    start: int
    stop: int
    grid: ScenarioGrid
    attempts: int = 0
    suspect: bool = False

    @property
    def full_params(self) -> List[Dict]:
        return [{**self.structural_params, **bp}
                for bp in self.grid.batch_points_slice(self.start,
                                                       self.stop)]

    @property
    def n_rows(self) -> int:
        return self.stop - self.start

    @property
    def key(self):
        return (self.si, self.start, self.stop)

    @property
    def journal_key(self) -> str:
        return f"{self.si}-{self.start}-{self.stop}"

    def split(self) -> "List[_Unit]":
        """Bisect into two fresh-budget halves (quarantine narrowing)."""
        mid = self.start + self.n_rows // 2
        return [
            _Unit(self.si, self.structural_params, self.start, mid,
                  self.grid, suspect=self.suspect),
            _Unit(self.si, self.structural_params, mid, self.stop,
                  self.grid, suspect=self.suspect),
        ]


@dataclasses.dataclass
class _UnitOutcome:
    """A resolved unit: per-row values (None where quarantined; the
    whole list is None under ``keep_results=False``), the quarantine
    records, and — when reducers are configured — the unit's streaming
    partials (reducer name → mergeable state)."""

    unit: _Unit
    values: Optional[List[Any]]
    failures: List[SweepFailure]
    partials: Optional[Dict[str, Any]] = None


def _execute_unit(runner: "SweepRunner", unit: _Unit,
                  processors: Optional[Dict[int, Any]] = None
                  ) -> Tuple[List[Any], List[Dict]]:
    """Run one unit — build, stimulus/process/measure — in a pool
    worker or in-process (the only place a unit executes).
    Returns the values and the unit's parameter dicts, built once here
    for the measure and handed back for the reducers.

    ``processors`` caches one pipeline per structural point, so the
    in-process loop builds each point once; a pool worker passes none.
    Module-level so the pool can pickle it by reference.
    """
    processors = {} if processors is None else processors
    if unit.si not in processors:
        processors[unit.si] = (runner.build(unit.structural_params)
                               if runner.build is not None else None)
    params = unit.full_params
    values = runner._measure_chunk(processors[unit.si], params)
    return values, params


#: A pool worker's start-up barrier (see ``_PoolSupervisor._ensure_pool``).
_START_BARRIER = None
#: Seconds a fresh pool's workers get to start before the pool counts
#: as broken, so a worker that hangs starting up cannot wedge a sweep.
_START_UP_TIMEOUT_S = 120.0


def _set_start_barrier(barrier) -> None:
    """Pool initializer: keep the barrier the warm-up tasks meet at."""
    global _START_BARRIER
    _START_BARRIER = barrier


def _warm_up() -> None:
    """A no-op task that returns once every worker of its pool runs one,
    so each worker takes exactly one."""
    _START_BARRIER.wait()


def _has_nonfinite(value) -> bool:
    """Best-effort non-finite detection over the value shapes sweeps
    produce: numbers, ndarrays, waveforms (``.data``), tuples/lists of
    those, and dataclass instances (every field, recursively — e.g. a
    :class:`~repro.link.LinkResult`).  Other objects are assumed
    finite."""
    if value is None:
        return False
    # Plain Python numbers first: the numpy path costs ~8 us a float.
    kind = type(value)
    if kind is float:
        return not math.isfinite(value)
    if kind is int:
        return False
    if kind is complex:
        return not cmath.isfinite(value)
    if isinstance(value, (int, float, complex, np.number)):
        return not bool(np.all(np.isfinite(value)))
    if isinstance(value, np.ndarray):
        if not np.issubdtype(value.dtype, np.number):
            return False
        return not bool(np.all(np.isfinite(value)))
    data = getattr(value, "data", None)
    if isinstance(data, np.ndarray) and np.issubdtype(data.dtype, np.number):
        return not bool(np.all(np.isfinite(data)))
    if isinstance(value, (tuple, list)):
        return any(_has_nonfinite(item) for item in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return any(_has_nonfinite(getattr(value, field.name))
                   for field in dataclasses.fields(value))
    return False


def _picklable(obj) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except (pickle.PicklingError, TypeError, AttributeError):
        return False


@dataclasses.dataclass
class SweepRunner:
    """Execute a scenario grid with one batched pass per structural point.

    Parameters
    ----------
    grid:
        The declared axes.
    stimulus:
        ``stimulus(params) -> Waveform`` builds one scenario's input from
        its full parameter dict.
    build:
        Optional ``build(structural_params) -> processor`` constructing
        the pipeline for one structural point; the processor may be a
        :class:`~repro.lti.blocks.Block`, any object with ``process``,
        or a plain callable.  ``None`` means the stimuli are measured
        directly (measurement-only sweeps).
    measure:
        Optional ``measure(batch, params_list) -> sequence`` measuring
        a whole processed :class:`WaveformBatch` at once (e.g.
        :func:`~repro.analysis.eye.measure_eye_batch`), one result per
        row, in row order.  ``None`` returns the processed waveforms
        themselves.
    processes:
        When > 1 and the sweep has several execution units, fan the
        units out over a supervised process pool (the callables must
        be picklable, i.e. module-level; a non-picklable runner warns
        and runs in-process).  With ``chunk_rows`` set this
        parallelizes batchable chunks too, not just structural points.
    chunk_rows:
        When set, each structural point's batchable scenarios run in
        bounded chunks of at most this many rows: stimuli are built,
        processed and measured chunk by chunk, so peak memory is
        ``O(chunk_rows * n_samples)`` per stage instead of one
        monolithic ``(n_batch_points, n_samples)`` pass — the knob
        that lets 100k+-point Monte Carlo axes run where the
        monolithic batch OOMs.  Every kernel in the library is
        row-independent, so results are row-exact vs the unchunked
        run (a custom ``measure`` must preserve that row
        independence).  Chunks are also the unit of checkpointing,
        retries and quarantine.  Under a pool, ``build`` runs once per
        chunk (workers cannot share a processor).
    timeout:
        Per-unit wall-clock budget in seconds (pool mode only; a hung
        unit cannot be interrupted in-process).  On expiry the pool is
        torn down — hung workers are killed, never joined — in-flight
        innocents are requeued without penalty, and the timed-out unit
        is retried.
    max_attempts:
        Tries per unit before it is given up (then bisected /
        quarantined under ``on_error="quarantine"``, or raised under
        ``"raise"``).
    retry_backoff_s:
        Base of the exponential backoff between retries of one unit
        (``retry_backoff_s * 2**(attempt-1)`` seconds).
    nan_guard:
        Opt-in guard: after a unit is measured, rows whose values
        contain non-finite floats count as failures (and are
        eventually quarantined row-exactly), instead of silently
        poisoning downstream aggregation.  Structured results are
        searched field by field, so a
        :class:`~repro.link.LinkResult` with a NaN output sample or an
        infinite eye metric is flagged.  Note that a closed eye
        reports ``eye_height = -inf`` — a finite DC stimulus (no
        level transitions) does too — and a spread-free eye reports
        ``q_factor = inf``; both are flagged, as a scalar measure
        returning ``-inf`` is.
    on_error:
        ``"raise"`` (default): scenario-level exceptions propagate
        immediately, and infrastructure failures (worker crash,
        timeout) raise after the retry budget.  ``"quarantine"``:
        every kind of persistent failure is narrowed to the offending
        rows and recorded on :attr:`SweepResult.failures` while the
        healthy rows complete.
    reducers:
        Optional mapping of name → :class:`~repro.sweep.reducers.Reducer`
        aggregated online over every measured scenario: each finished
        unit's values fold into a constant-size partial, partials merge
        in canonical unit order (so pool completion order, retries and
        checkpoint resume cannot change the result), and the finalized
        values land on :attr:`SweepResult.aggregates`.  Requires a
        ``measure`` — reducing over raw processed waveforms is
        rejected.
    keep_results:
        ``True`` (default): retain the dense per-scenario ``params`` /
        ``results`` lists exactly as before — the bit-exact legacy
        path.  ``False`` (requires ``reducers``): drop every row after
        it has been folded into the reducer partials, so supervisor
        memory stays flat in scenario count — the shape a
        million-point Monte Carlo study needs.
    """

    grid: ScenarioGrid
    stimulus: Callable[[Dict], Waveform]
    build: Optional[Callable[[Dict], Any]] = None
    measure: Optional[Callable[[WaveformBatch, List[Dict]], Sequence]] = None
    processes: Optional[int] = None
    chunk_rows: Optional[int] = None
    timeout: Optional[float] = None
    max_attempts: int = 3
    retry_backoff_s: float = 0.25
    nan_guard: bool = False
    on_error: str = "raise"
    reducers: Optional[Dict[str, Reducer]] = None
    keep_results: bool = True

    def __post_init__(self) -> None:
        if self.chunk_rows is not None and self.chunk_rows < 1:
            raise ValueError(
                f"chunk_rows must be >= 1, got {self.chunk_rows}"
            )
        if self.processes is not None and self.processes < 0:
            raise ValueError(
                f"processes must be >= 0, got {self.processes} "
                "(None/0/1 run in-process; > 1 fans out over a pool)"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.on_error not in ("raise", "quarantine"):
            raise ValueError(
                f"on_error must be 'raise' or 'quarantine', "
                f"got {self.on_error!r}"
            )
        if self.reducers is not None:
            if not self.reducers:
                raise ValueError(
                    "reducers must name at least one reducer (pass "
                    "reducers=None for a dense sweep)"
                )
            if self.measure is None:
                raise ValueError(
                    "reducers need a measure: without one "
                    "the sweep's per-row results are raw processed "
                    "Waveforms, and streaming reducers aggregate "
                    "numbers, not waveforms — pass measure= (e.g. an eye "
                    "metric) or drop reducers="
                )
            for name, reducer in self.reducers.items():
                missing = [method for method in
                           ("init", "update", "merge", "finalize")
                           if not callable(getattr(reducer, method, None))]
                if missing:
                    raise TypeError(
                        f"reducer {name!r} ({type(reducer).__name__}) does "
                        f"not satisfy the Reducer protocol: missing "
                        f"{missing} — see repro.sweep.reducers"
                    )
        if not self.keep_results and self.reducers is None:
            raise ValueError(
                "keep_results=False without reducers would discard every "
                "result and aggregate nothing — pass reducers= (see "
                "repro.sweep.reducers) or keep keep_results=True"
            )

    # -- batched engine ----------------------------------------------------
    def _measure_chunk(self, processor, full_params: List[Dict]
                       ) -> List[Any]:
        """Stimulus + process + measure one bounded group of scenarios.

        ``processor`` is a Block, anything with ``process``, a plain
        callable, or None (identity)."""
        out = WaveformBatch.stack([self.stimulus(p) for p in full_params])
        if processor is not None:
            out = _apply_processor(processor, out)
        if self.measure is None:
            return out.rows()
        values = self.measure(out, full_params)
        try:
            values = list(values)
        except TypeError:
            got = f"a {type(values).__name__}, not a sequence"
        else:
            if len(values) == len(full_params):
                return values
            got = f"{len(values)} results"
        raise ValueError(
            f"measure returned {got} for {len(full_params)} scenarios: "
            "SweepRunner calls measure(batch, params_list) with the "
            "processed WaveformBatch and needs one result per row (a "
            "per-row measure(wave, params) must now loop over "
            "batch.rows() itself)"
        )

    def run(self, *, checkpoint_dir=None) -> SweepResult:
        """Execute the sweep with the batched engine.

        ``checkpoint_dir`` enables the resume journal: every finished
        unit is recorded there and already-journaled units are skipped,
        so re-invoking an interrupted sweep with the same arguments
        completes only the missing work and the merged result is
        bit-exact vs an uninterrupted run (the journal is keyed by a
        canonical hash of the grid + runner config, so a mismatched
        runner never reuses stale entries).
        """
        units = self._plan_units()
        journal = (CheckpointJournal.open(checkpoint_dir,
                                          self._fingerprint())
                   if checkpoint_dir is not None else None)
        outcomes: List[_UnitOutcome] = []
        todo: List[_Unit] = []
        for unit in units:
            covered = (self._load_covering(unit, journal)
                       if journal is not None and len(journal) else None)
            if covered is None:
                todo.append(unit)
            else:
                outcomes.extend(covered)
        if todo:
            if self._use_pool(todo):
                outcomes.extend(_PoolSupervisor(self, journal).run(todo))
            else:
                outcomes.extend(self._run_units_inprocess(todo, journal))
        return self._assemble(outcomes)

    # -- unit planning / merging -------------------------------------------
    def _plan_units(self) -> List[_Unit]:
        n_batch = self.grid.n_batch_scenarios()
        step = self.chunk_rows or n_batch
        units: List[_Unit] = []
        for si, sp in enumerate(self.grid.structural_points()):
            for start in range(0, n_batch, step):
                stop = min(start + step, n_batch)
                units.append(_Unit(si, sp, start, stop, self.grid))
        return units

    def _fingerprint(self) -> Dict[str, Any]:
        """What the checkpoint journal keys on: everything that
        determines a unit's identity and results — including the
        failure policy (``on_error`` / ``max_attempts`` / ``timeout``),
        so e.g. quarantine decisions journaled by an
        ``on_error="quarantine"`` run are never replayed as silent
        ``None`` rows under ``on_error="raise"``, and the streaming
        config (``reducers`` / ``keep_results``), so a journal written
        by a dense run is never consumed by a streaming run or vice
        versa.  Version 6: one :func:`~repro.sweep.checkpoint.journal_key`
        over all of it, by content (a session's built chain included),
        so older journals never replay."""
        return {"version": 6, "key": journal_key((
            self.grid.axes, self.stimulus, self.build, self.measure,
            self.chunk_rows, self.nan_guard, self.on_error,
            self.max_attempts, self.timeout, self.reducers,
            self.keep_results))}

    def _load_covering(self, unit: _Unit, journal: CheckpointJournal
                       ) -> Optional[List[_UnitOutcome]]:
        """Journaled outcomes covering ``unit``, or None to re-run it.

        Quarantine bisection journals *sub*-units (``0-4-5``/``0-5-6``
        instead of ``0-4-6``), so a resume must recurse down the
        deterministic split tree before declaring a unit missing —
        otherwise replaying a sweep with quarantined rows would re-run
        (and potentially un-quarantine) them.  The first uncovered half
        ends the search, so a missing unit costs ``O(log n_rows)``
        in-memory lookups.
        """
        record = journal.load(unit.journal_key)
        if record is not None:
            return [_UnitOutcome(unit, record["values"], record["failures"],
                                 record["partials"])]
        if unit.n_rows <= 1:
            return None
        covered: List[_UnitOutcome] = []
        for half in unit.split():
            part = self._load_covering(half, journal)
            if part is None:
                return None
            covered.extend(part)
        return covered

    def _assemble(self, outcomes: List[_UnitOutcome]) -> SweepResult:
        failures: List[SweepFailure] = []
        for outcome in outcomes:
            failures.extend(outcome.failures)
        # Execution order is nondeterministic under a pool; canonical
        # grid order keeps resumed-vs-uninterrupted comparisons exact.
        failures.sort(key=lambda f: self.grid.flat_index(f.params))
        aggregates = (self._finalize_aggregates(
                          outcome.partials for outcome in sorted(
                              outcomes, key=lambda o: o.unit.key))
                      if self.reducers is not None else None)
        if not self.keep_results:
            return SweepResult(grid=self.grid, params=None, results=None,
                               failures=failures, aggregates=aggregates)
        # Canonical index of (structural point, batch row): the grid's
        # row-major index array with its structural axes moved first.
        # Positional, so axes with repeated values keep every slot.
        axes = self.grid.axes
        order = sorted(range(len(axes)), key=lambda i: not axes[i].structural)
        n = self.grid.n_scenarios
        index = np.arange(n).reshape(self.grid.shape).transpose(order)
        index = index.reshape(-1, self.grid.n_batch_scenarios())
        results: List[Any] = [None] * n
        for outcome in outcomes:
            unit = outcome.unit
            for flat, value in zip(index[unit.si, unit.start:unit.stop],
                                   outcome.values):
                results[flat] = value
        return SweepResult(grid=self.grid, params=list(self.grid.points()),
                           results=results, failures=failures,
                           aggregates=aggregates)

    # -- streaming reduction -----------------------------------------------
    def _reduce_unit(self, values: List[Any],
                     full_params: List[Dict]) -> Dict[str, Any]:
        """Fold one finished unit's values into per-reducer partials
        (``None`` rows — quarantined scenarios — are the reducers'
        business to skip)."""
        return {name: reducer.update(reducer.init(), values, full_params)
                for name, reducer in self.reducers.items()}

    def _finalize_aggregates(self, partials_in_order) -> Dict[str, Any]:
        """Merge per-unit partials in canonical unit order and
        finalize.  The fixed merge order is what makes the aggregates
        independent of pool completion order and resume history."""
        states = {name: reducer.init()
                  for name, reducer in self.reducers.items()}
        for partials in partials_in_order:
            for name, reducer in self.reducers.items():
                states[name] = reducer.merge(states[name], partials[name])
        return {name: reducer.finalize(states[name])
                for name, reducer in self.reducers.items()}

    # -- pool / in-process selection ---------------------------------------
    def _use_pool(self, units: List[_Unit]) -> bool:
        if not self.processes or self.processes <= 1 or len(units) <= 1:
            return False
        try:
            pickle.dumps(self)
            return True
        except (pickle.PicklingError, TypeError, AttributeError) as error:
            bad = [name for name in ("stimulus", "build", "measure")
                   if not _picklable(getattr(self, name))]
            named = ", ".join(bad) if bad else "the runner"
            warnings.warn(
                f"SweepRunner(processes={self.processes}) cannot fan out "
                f"to a process pool: {named} "
                f"{'are' if len(bad) > 1 else 'is'} not picklable "
                f"({error}); executing in-process instead.  Use "
                "module-level callables to enable the pool.",
                RuntimeWarning, stacklevel=3)
            return False

    # -- failure bookkeeping (shared by pool and in-process paths) ---------
    def _sleep_backoff(self, unit: _Unit) -> None:
        if unit.attempts and self.retry_backoff_s:
            time.sleep(self.retry_backoff_s * 2 ** (unit.attempts - 1))

    def _finish_unit(self, unit: _Unit, values: List[Any],
                     failures: List[SweepFailure],
                     sink: List[_UnitOutcome],
                     journal: Optional[CheckpointJournal],
                     params: List[Dict]) -> None:
        partials = (self._reduce_unit(values, params)
                    if self.reducers is not None else None)
        # keep_results=False is the whole point of streaming: the rows
        # are dropped here, right after folding into the partials, so
        # neither the outcome sink nor the journal ever holds them.
        kept = list(values) if self.keep_results else None
        outcome = _UnitOutcome(unit, kept, failures, partials)
        if journal is not None:
            journal.store(unit.journal_key, outcome.values,
                          outcome.failures, outcome.partials)
        sink.append(outcome)

    def _after_failed_attempt(self, unit: _Unit, kind: str, error: str,
                              tb: str, sink: List[_UnitOutcome],
                              journal: Optional[CheckpointJournal]
                              ) -> List[_Unit]:
        """One failed try: retry, bisect, or quarantine/raise.

        Returns the follow-up units to (re)queue; resolved single-row
        quarantines are appended to ``sink`` directly.
        """
        unit.attempts += 1
        if unit.attempts < self.max_attempts:
            return [unit]
        if self.on_error == "raise":
            raise RuntimeError(
                f"sweep unit (structural point {unit.si}, rows "
                f"[{unit.start}:{unit.stop})) failed after "
                f"{unit.attempts} attempt(s) [{kind}]: {error} — pass "
                "on_error='quarantine' to record persistent failures on "
                "SweepResult.failures instead"
            )
        if unit.n_rows > 1:
            return unit.split()
        params = unit.full_params
        failure = SweepFailure(params=dict(params[0]), kind=kind,
                               error=error, traceback=tb,
                               attempts=unit.attempts)
        self._finish_unit(unit, [None], [failure], sink, journal, params)
        return []

    def _handle_values(self, unit: _Unit, values: List[Any],
                       params: List[Dict], sink: List[_UnitOutcome],
                       journal: Optional[CheckpointJournal]
                       ) -> List[_Unit]:
        """Resolve a successfully executed unit (NaN guard included)."""
        bad = ([j for j, value in enumerate(values) if _has_nonfinite(value)]
               if self.nan_guard else [])
        if not bad:
            self._finish_unit(unit, values, [], sink, journal, params)
            return []
        if self.on_error == "raise":
            raise ValueError(
                "nan_guard: non-finite output at scenario rows "
                f"{[unit.start + j for j in bad]} of structural point "
                f"{unit.si} — pass on_error='quarantine' to record them "
                "on SweepResult.failures instead"
            )
        unit.attempts += 1
        if unit.attempts < self.max_attempts:
            return [unit]
        failures = [SweepFailure(
            params=dict(params[j]), kind="non-finite",
            error=f"non-finite measurement {values[j]!r}",
            attempts=unit.attempts) for j in bad]
        kept = [None if j in bad else value for j, value in enumerate(values)]
        self._finish_unit(unit, kept, failures, sink, journal, params)
        return []

    # -- in-process execution ----------------------------------------------
    def _run_units_inprocess(self, units: List[_Unit],
                             journal: Optional[CheckpointJournal]
                             ) -> List[_UnitOutcome]:
        outcomes: List[_UnitOutcome] = []
        processors: Dict[int, Any] = {}
        queue = collections.deque(units)
        while queue:
            unit = queue.popleft()
            self._sleep_backoff(unit)
            try:
                values, params = _execute_unit(self, unit, processors)
            except Exception as error:
                if self.on_error == "raise":
                    raise
                queue.extend(self._after_failed_attempt(
                    unit, "exception", repr(error),
                    _traceback.format_exc(), outcomes, journal))
                continue
            queue.extend(self._handle_values(unit, values, params,
                                             outcomes, journal))
        return outcomes


# ---------------------------------------------------------------------------
# The supervised pool.
# ---------------------------------------------------------------------------

class _PoolSupervisor:
    """Per-unit supervised execution over a ProcessPoolExecutor.

    Replaces the old bare ``pool.map`` (where one dead or hung worker
    re-raised and discarded every completed structural point) with:

    * a sliding in-flight window of ``processes`` units, each with its
      own deadline when ``timeout`` is set, counted once every worker
      of the pool has started (so start-up is never unit time);
    * ``BrokenProcessPool`` recovery — the pool is respawned and every
      in-flight unit requeued.  A wave-mode crash is unattributable
      (all pending futures break at once), so the requeued units are
      marked *suspect* and re-run one at a time; in isolation the next
      crash or timeout is attributable and charged to its unit's retry
      budget, which is what keeps innocent units from being punished
      for a neighbour's crash;
    * hung-worker teardown — a timed-out pool is discarded with its
      worker processes killed (never joined), so a hang can wedge
      neither the sweep nor interpreter shutdown;
    * an in-process fallthrough, with a ``RuntimeWarning``, when the
      pool breaks more than ``MAX_UNATTRIBUTED_BREAKS`` times without
      an attributable culprit (e.g. workers OOM-killed by the OS).
    """

    #: Unattributed pool breaks tolerated before giving up on pooling.
    MAX_UNATTRIBUTED_BREAKS = 3

    def __init__(self, runner: SweepRunner,
                 journal: Optional[CheckpointJournal]):
        self.runner = runner
        self.journal = journal
        self.outcomes: List[_UnitOutcome] = []
        self.pending: collections.deque = collections.deque()
        self.suspects: collections.deque = collections.deque()
        self.pool = None
        self.breaks = 0

    def run(self, units: List[_Unit]) -> List[_UnitOutcome]:
        for unit in units:
            (self.suspects if unit.suspect else self.pending).append(unit)
        try:
            while self.pending or self.suspects:
                if self.breaks > self.MAX_UNATTRIBUTED_BREAKS:
                    self._fall_through_in_process()
                    break
                if self.suspects:
                    self._pass(self.suspects, window=1)
                else:
                    self._pass(self.pending,
                               window=max(int(self.runner.processes), 1))
        except BaseException:
            # An exception is propagating (on_error="raise", abort,
            # KeyboardInterrupt): in-flight workers may be mid-unit or
            # hung, so kill them — a wait=True shutdown here would join
            # a hung worker and wedge the raise forever.
            self._discard_pool(kill=True)
            raise
        self._discard_pool(kill=False)
        return self.outcomes

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self):
        """The pool, started and warm.

        A fresh pool runs one warm-up task per worker, all meeting at a
        barrier, before any unit is submitted: a worker's start-up (its
        interpreter and ``import repro`` under the spawn start method)
        is then over before a unit's deadline starts.  Raises
        ``BrokenProcessPool`` when a worker dies starting up or the
        workers are not all up within ``_START_UP_TIMEOUT_S``.
        """
        if self.pool is None:
            import concurrent.futures
            import multiprocessing
            from concurrent.futures.process import BrokenProcessPool

            context = multiprocessing.get_context()
            workers = self.runner.processes
            self.pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=context,
                initializer=_set_start_barrier,
                initargs=(context.Barrier(workers),))
            warm_up = [self.pool.submit(_warm_up) for _ in range(workers)]
            done, late = concurrent.futures.wait(
                warm_up, timeout=_START_UP_TIMEOUT_S)
            for task in done:
                task.result()
            if late:
                raise BrokenProcessPool(
                    f"{len(late)} of {workers} pool workers did not start "
                    f"within {_START_UP_TIMEOUT_S:g} s")
        return self.pool

    def _discard_pool(self, kill: bool) -> None:
        pool, self.pool = self.pool, None
        if pool is None:
            return
        if kill:
            # A hung worker cannot be cancelled through the executor
            # API and would be joined at interpreter exit — kill the
            # worker processes outright.  (_processes is private but
            # stable since 3.7; pebble/loky exist for this reason.)
            for process in list(getattr(pool, "_processes", {}).values()):
                process.kill()
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            pool.shutdown(wait=True)

    def _requeue(self, units: Sequence[_Unit]) -> None:
        for unit in units:
            (self.suspects if unit.suspect else self.pending).append(unit)

    # -- one scheduling pass -----------------------------------------------
    def _pass(self, queue: collections.deque, window: int) -> None:
        """Drain ``queue`` through the pool with ``window`` units in
        flight, returning early on a pool break or timeout (the outer
        loop respawns and continues)."""
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        isolated = window == 1
        wave: Dict[Any, _Unit] = {}
        deadlines: Dict[Any, Optional[float]] = {}
        try:
            pool = self._ensure_pool()
        except BrokenProcessPool:
            # The workers did not all start: no unit ran, none is charged.
            self._broken(wave, attributed=False)
            return

        while queue or wave:
            while queue and len(wave) < window:
                unit = queue.popleft()
                self.runner._sleep_backoff(unit)
                try:
                    future = pool.submit(_execute_unit, self.runner, unit)
                except BrokenProcessPool:
                    # The pool died between passes; requeue and respawn.
                    queue.appendleft(unit)
                    self._broken(wave, attributed=isolated)
                    return
                wave[future] = unit
                deadlines[future] = (
                    None if self.runner.timeout is None
                    else time.monotonic() + self.runner.timeout)

            bounded = [d for d in deadlines.values() if d is not None]
            wait_for = (max(0.0, min(bounded) - time.monotonic())
                        if bounded else None)
            done, _ = concurrent.futures.wait(
                list(wave), timeout=wait_for,
                return_when=concurrent.futures.FIRST_COMPLETED)
            # Broken futures last: when a crash takes the pool down,
            # results that did complete first are still harvested.
            for future in sorted(
                    done, key=lambda f: isinstance(f.exception(),
                                                   BrokenProcessPool)):
                unit = wave.pop(future)
                deadlines.pop(future)
                try:
                    values, params = future.result()
                except BrokenProcessPool as error:
                    if isolated:
                        # Sole in-flight unit: the crash is its doing.
                        self._charge(unit, "crash",
                                     f"worker process died ({error})")
                        self._broken(wave, attributed=True)
                    else:
                        self.suspects.append(unit)
                        self._broken(wave, attributed=False)
                    return
                except Exception as error:
                    if self.runner.on_error == "raise":
                        raise
                    # format_exception chains into the _RemoteTraceback
                    # cause concurrent.futures attaches, so the quarantine
                    # record carries the worker-side traceback.
                    self._requeue(self.runner._after_failed_attempt(
                        unit, "exception", repr(error),
                        "".join(_traceback.format_exception(error)),
                        self.outcomes, self.journal))
                    continue
                unit.suspect = False  # proved healthy
                self._requeue(self.runner._handle_values(
                    unit, values, params, self.outcomes, self.journal))
            # Deadlines are checked every iteration — not only when the
            # pool went quiet — so a hung worker is charged on schedule
            # even while a steady stream of other units completes.
            now = time.monotonic()
            expired = [future for future, deadline in deadlines.items()
                       if deadline is not None and deadline <= now]
            if expired:
                self._timed_out(expired, wave)
                return

    # -- failure transitions -----------------------------------------------
    def _charge(self, unit: _Unit, kind: str, error: str) -> None:
        """Charge a crash or timeout to ``unit``; what it leaves to run
        (a retry or its split halves) runs in isolation."""
        follow = self.runner._after_failed_attempt(
            unit, kind, error, "", self.outcomes, self.journal)
        for sub in follow:
            sub.suspect = True
        self._requeue(follow)

    def _broken(self, wave: Dict[Any, _Unit], attributed: bool) -> None:
        """The pool died under ``wave``; requeue survivors as suspects."""
        for unit in wave.values():
            unit.suspect = True
            self.suspects.append(unit)
        wave.clear()
        if not attributed:
            self.breaks += 1
        self._discard_pool(kill=True)

    def _timed_out(self, expired: List[Any],
                   wave: Dict[Any, _Unit]) -> None:
        """Deadlines expired: charge the hung units, spare the rest.

        The pool is torn down (workers killed) *before* the expired
        units are charged: under ``on_error="raise"`` the charge
        raises once the retry budget is spent, and a still-live hung
        worker would then be joined during cleanup, wedging the sweep
        instead of raising.
        """
        self._discard_pool(kill=True)
        for future in expired:
            self._charge(wave.pop(future), "timeout",
                         f"unit exceeded timeout={self.runner.timeout}s")
        # In-flight innocents are requeued without an attempt charge.
        self._requeue(wave.values())
        wave.clear()

    def _fall_through_in_process(self) -> None:
        remaining = list(self.suspects) + list(self.pending)
        self.suspects.clear()
        self.pending.clear()
        self._discard_pool(kill=True)
        warnings.warn(
            f"sweep process pool broke {self.breaks} times without an "
            f"attributable unit; executing the remaining {len(remaining)} "
            "unit(s) in-process (per-unit timeouts cannot be enforced "
            "in-process)",
            RuntimeWarning, stacklevel=2)
        self.outcomes.extend(
            self.runner._run_units_inprocess(remaining, self.journal))
