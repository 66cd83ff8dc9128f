"""Deterministic fault injection for the sweep reliability layer.

The retry / quarantine / checkpoint machinery in
:mod:`repro.sweep.runner` is only trustworthy if it is exercised, so
this module can make chosen execution units misbehave on demand —
crash their worker process, hang, raise, emit NaNs, or abort the whole
sweep — deterministically enough to test end to end in CI.

Activation is env-gated: ``REPRO_SWEEP_FAULTS`` names a JSON plan
file (usually written by :func:`inject_faults`) and injection is a
no-op when the variable is unset, so production sweeps never pay more
than one ``os.environ`` lookup per unit.  The plan travels to pool
workers through the inherited environment, and per-rule attempt
counters are kept as ``O_EXCL`` marker files next to the plan, so
"fail the first N attempts, then succeed" stays exact across worker
death and pool respawns.

An execution unit is one (structural point, row-chunk) of a sweep,
identified by ``(si, start, stop)``: structural-point index plus the
half-open range of batch-point indices it covers.  A rule targets
units by structural index, exact chunk start, and/or absolute row
indices — row targeting keeps matching the sub-units the runner's
quarantine bisection produces, which is how a fault is narrowed down
to its offending row.

.. warning::
   ``mode="crash"`` calls ``os._exit`` in whatever process executes
   the unit.  Under a process pool that kills a worker (the point);
   in-process it kills the interpreter.  Keep crash rules to
   pool-backed runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import pathlib
import time
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "ENV_VAR",
    "FaultInjected",
    "FaultRule",
    "SweepAbort",
    "inject_faults",
    "read_plan",
    "write_plan",
]

ENV_VAR = "REPRO_SWEEP_FAULTS"

_MODES = ("crash", "hang", "raise", "nan", "abort")


class FaultInjected(RuntimeError):
    """The exception raised by ``mode="raise"`` rules (a stand-in for
    any transient per-unit failure)."""


class SweepAbort(RuntimeError):
    """A fatal, never-retried failure (``mode="abort"``): the
    supervisor re-raises it immediately, modelling the whole sweep
    process dying mid-run with the checkpoint journal left behind.

    Once an abort rule has fired, every later unit started under the
    same plan raises it again: a dead sweep runs nothing more.  This
    keeps the abort observable when a pool break loses the worker
    result that carried the first raise (the requeued unit aborts
    again instead of running clean)."""


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One injected misbehaviour.

    Parameters
    ----------
    mode:
        ``"crash"`` (``os._exit`` the executing process), ``"hang"``
        (sleep ``seconds`` before proceeding normally), ``"raise"``
        (raise :class:`FaultInjected`), ``"nan"`` (overwrite measured
        values with ``nan``), or ``"abort"`` (raise
        :class:`SweepAbort`, which is never retried; from then on
        every unit started under the plan raises it too).
    si / start:
        Restrict the rule to units of one structural-point index /
        one exact chunk start; ``None`` matches any.
    rows:
        Absolute batch-point indices; the rule matches any unit whose
        ``[start, stop)`` range contains one of them (and, for
        ``"nan"``, only those rows are poisoned).  ``None`` matches
        any unit (and poisons every row).
    times:
        Fire on the first ``times`` attempts of each matching unit,
        then stand down — the knob that makes "transient" faults.
        ``None`` fires on every attempt ("persistent").
    seconds:
        Sleep length for ``"hang"``.
    """

    mode: str
    si: Optional[int] = None
    start: Optional[int] = None
    rows: Optional[Tuple[int, ...]] = None
    times: Optional[int] = 1
    seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; choose from {_MODES}"
            )
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")
        if self.rows is not None:
            object.__setattr__(self, "rows", tuple(int(r)
                                                   for r in self.rows))

    def matches(self, si: int, start: int, stop: int) -> bool:
        """Does this rule target unit ``(si, start, stop)``?"""
        if self.si is not None and self.si != si:
            return False
        if self.start is not None and self.start != start:
            return False
        if self.rows is not None \
                and not any(start <= row < stop for row in self.rows):
            return False
        return True


# ---------------------------------------------------------------------------
# Plan files + attempt counters.
# ---------------------------------------------------------------------------

def write_plan(path, rules: Sequence[FaultRule]) -> pathlib.Path:
    """Serialize ``rules`` to a JSON plan file."""
    path = pathlib.Path(path)
    payload = {"rules": [dataclasses.asdict(rule) for rule in rules]}
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def read_plan(path) -> List[FaultRule]:
    """Load a plan file back into :class:`FaultRule` objects."""
    payload = json.loads(pathlib.Path(path).read_text())
    return [FaultRule(**raw) for raw in payload["rules"]]


@contextlib.contextmanager
def inject_faults(rules: Sequence[FaultRule], directory):
    """Activate a fault plan for the duration of a ``with`` block.

    Writes the plan under ``directory`` (created if needed; attempt
    counters live alongside it) and points :data:`ENV_VAR` at it, so
    in-process execution and every pool worker spawned inside the
    block see the same plan.  The previous environment is restored on
    exit.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    plan_path = write_plan(directory / "faults.json", rules)
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = str(plan_path)
    try:
        yield plan_path
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous


def _claim(plan_path: pathlib.Path, rule_index: int, rule: FaultRule,
           unit_key: Tuple[int, int, int]) -> bool:
    """Count one attempt of ``rule`` against a unit; True when the rule
    fires this attempt.

    The counter is a series of ``O_CREAT | O_EXCL`` marker files, so
    the count is atomic across processes and survives worker death —
    exactly what "crash on the first attempt only" needs.
    """
    hits = plan_path.parent / f"{plan_path.stem}-hits"
    hits.mkdir(exist_ok=True)
    si, start, stop = unit_key
    attempt = 0
    while True:
        marker = hits / f"rule{rule_index}-u{si}-{start}-{stop}-a{attempt}"
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            attempt += 1
            continue
        break
    return rule.times is None or attempt < rule.times


def _active_plan():
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    path = pathlib.Path(raw)
    try:
        return path, read_plan(path)
    except FileNotFoundError:
        return None


# ---------------------------------------------------------------------------
# Runner hooks (called per unit; no-ops when the env var is unset).
# ---------------------------------------------------------------------------

def on_unit_start(unit_key: Tuple[int, int, int]) -> None:
    """Crash / hang / raise / abort hooks, fired before a unit runs."""
    active = _active_plan()
    if active is None:
        return
    plan_path, rules = active
    aborted = plan_path.parent / f"{plan_path.stem}-aborted"
    if aborted.exists():
        raise SweepAbort(aborted.read_text())
    for index, rule in enumerate(rules):
        if rule.mode == "nan" or not rule.matches(*unit_key):
            continue
        if not _claim(plan_path, index, rule, unit_key):
            continue
        if rule.mode == "crash":
            # Hard worker death: no exception, no cleanup — the
            # supervisor must see BrokenProcessPool.
            os._exit(86)
        elif rule.mode == "hang":
            time.sleep(rule.seconds)
        elif rule.mode == "abort":
            # Recorded before raising: the raise travels back in a
            # worker result that a concurrent pool break can lose.
            message = f"injected abort at unit {unit_key}"
            aborted.write_text(message)
            raise SweepAbort(message)
        elif rule.mode == "raise":
            raise FaultInjected(f"injected failure at unit {unit_key}")


def on_unit_values(unit_key: Tuple[int, int, int], values: list) -> list:
    """NaN-poisoning hook, applied to a unit's measured values."""
    active = _active_plan()
    if active is None:
        return values
    plan_path, rules = active
    si, start, stop = unit_key
    out = list(values)
    for index, rule in enumerate(rules):
        if rule.mode != "nan" or not rule.matches(si, start, stop):
            continue
        if not _claim(plan_path, index, rule, unit_key):
            continue
        if rule.rows is None:
            targets = range(len(out))
        else:
            targets = [row - start for row in rule.rows
                       if start <= row < stop]
        for relative in targets:
            out[relative] = float("nan")
    return out
