"""Declarative scenario grids for multi-scenario studies.

A study — Monte Carlo offset yield, jitter tolerance, a channel-length
sweep, PVT robustness — is a cartesian product of axes.  Axes come in
two kinds with very different costs:

* **batchable** axes vary only the stimulus (jitter seed, noise seed,
  amplitude, mismatch draw): every point shares one pipeline, so all of
  them can ride through the signal path together as one
  :class:`~repro.signals.batch.WaveformBatch` pass;
* **structural** axes change the circuit or channel itself (equalizer
  setting, trace length, PVT corner) or the measurement geometry (the
  line code — see :func:`modulation_axis`): each point needs its
  pipeline rebuilt.

:class:`ScenarioGrid` declares the axes; the
:class:`~repro.sweep.runner.SweepRunner` partitions them and executes
one batched pass per structural point.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = ["SweepAxis", "ScenarioGrid", "modulation_axis"]


@dataclasses.dataclass(frozen=True)
class SweepAxis:
    """One swept parameter.

    Parameters
    ----------
    name:
        Parameter name; becomes a key of every scenario's parameter dict.
    values:
        The values the axis takes, in sweep order.
    structural:
        True when changing this parameter requires rebuilding the
        pipeline (circuit/channel change); False when it only varies the
        stimulus and can be batched.
    """

    name: str
    values: Tuple
    structural: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("axis name must be non-empty")
        values = tuple(self.values)
        if not values:
            raise ValueError(f"axis {self.name!r} has no values")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


def modulation_axis(modulations: Sequence) -> SweepAxis:
    """A structural ``"modulation"`` axis over line codes.

    ``modulation_axis([Nrz(), Pam4()])`` puts NRZ and PAM4 points in
    one grid: the axis name matches :class:`repro.link.TxConfig`'s
    ``modulation`` field, so :meth:`repro.link.LinkSession.sweep`
    rebuilds the chain per line code and slices/measures each point
    with the matching alphabet.  Always structural — a line code
    changes the measurement geometry, never just the stimulus.
    """
    return SweepAxis("modulation", tuple(modulations), structural=True)


class ScenarioGrid:
    """The cartesian product of sweep axes.

    Scenario ordering is row-major over the axes in declaration order
    (the last axis varies fastest) — the order :meth:`points` yields and
    the order of :class:`~repro.sweep.runner.SweepResult` entries.
    """

    def __init__(self, axes: Sequence[SweepAxis]):
        if not axes:
            raise ValueError("grid needs at least one axis")
        names = [axis.name for axis in axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")
        self.axes: List[SweepAxis] = list(axes)

    # -- geometry ----------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Points per axis, in declaration order."""
        return tuple(len(axis) for axis in self.axes)

    @property
    def n_scenarios(self) -> int:
        """Total number of scenario points."""
        return math.prod(len(axis) for axis in self.axes)

    @property
    def names(self) -> List[str]:
        """Axis names in declaration order."""
        return [axis.name for axis in self.axes]

    def structural_axes(self) -> List[SweepAxis]:
        """The axes that force a pipeline rebuild."""
        return [axis for axis in self.axes if axis.structural]

    def batch_axes(self) -> List[SweepAxis]:
        """The axes that batch through one pipeline."""
        return [axis for axis in self.axes if not axis.structural]

    # -- iteration ---------------------------------------------------------
    def points(self) -> Iterator[Dict]:
        """Every scenario's parameter dict, in canonical order."""
        return self._subspace_points(self.axes)

    @staticmethod
    def _subspace_points(axes: Sequence[SweepAxis]) -> Iterator[Dict]:
        names = [axis.name for axis in axes]
        for combo in itertools.product(*(axis.values for axis in axes)):
            yield dict(zip(names, combo))

    def structural_points(self) -> Iterator[Dict]:
        """Parameter dicts over the structural axes only (one empty dict
        when every axis is batchable)."""
        return self._subspace_points(self.structural_axes())

    def batch_points(self) -> Iterator[Dict]:
        """Parameter dicts over the batchable axes only (one empty dict
        when every axis is structural)."""
        return self._subspace_points(self.batch_axes())

    def batch_points_slice(self, start: int, stop: int) -> List[Dict]:
        """``list(batch_points())[start:stop]`` computed directly from
        the axis values by mixed-radix unravelling — ``O(stop - start)``
        dicts, never the whole enumeration.  The sweep runner
        materializes each execution unit's rows through this, so
        supervisor memory holds one chunk's parameter dicts at a time
        instead of every scenario's for the whole sweep."""
        axes = self.batch_axes()
        total = self.n_batch_scenarios()
        start = max(0, min(int(start), total))
        stop = max(start, min(int(stop), total))
        if not axes:
            return [{}][start:stop]
        indices = np.unravel_index(np.arange(start, stop),
                                   [len(axis) for axis in axes])
        columns = [[axis.values[i] for i in index.tolist()]
                   for axis, index in zip(axes, indices)]
        names = [axis.name for axis in axes]
        return [dict(zip(names, row)) for row in zip(*columns)]

    def n_batch_scenarios(self) -> int:
        """Scenarios per batched pass (product of batchable axis sizes)."""
        return math.prod(len(axis) for axis in self.batch_axes())

    # -- indexing ----------------------------------------------------------
    def flat_index(self, params: Dict) -> int:
        """Canonical-order index of a full parameter assignment."""
        index = 0
        for axis in self.axes:
            try:
                value_index = axis.values.index(params[axis.name])
            except KeyError:
                raise KeyError(f"missing axis {axis.name!r} in params")
            except ValueError:
                raise ValueError(
                    f"{params[axis.name]!r} is not a value of axis "
                    f"{axis.name!r}"
                )
            index = index * len(axis) + value_index
        return index
