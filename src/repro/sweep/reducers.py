"""Streaming reducers: constant-memory aggregation over sweep results.

A million-point Monte Carlo yield study does not need a million
measurement objects — it needs a count, a histogram, a quantile, a
pass rate.  This module lifts the "retain every row densely"
assumption out of the sweep engine the same way
:mod:`repro.signals.modulation` lifted the two-level NRZ assumption
out of the slicers: aggregation becomes an explicit layer that every
stratum (runner, checkpoint journal, :class:`~repro.link.LinkSession`
facade, reporting) threads through instead of hardcoding.

The contract is the classic parallel-aggregation triple plus a
finalizer:

* ``init() -> state`` — an empty partial;
* ``update(state, values, params) -> state`` — fold one execution
  unit's per-row values (``None`` rows — quarantined scenarios — are
  skipped) into a partial;
* ``merge(a, b) -> state`` — combine two partials;
* ``finalize(state)`` — the user-facing aggregate.

Partials are **order-independent and deterministically mergeable**:
the runner merges them in canonical unit order regardless of the
(nondeterministic) pool completion order, so a resumed, retried,
re-chunked or pool-shuffled sweep finalizes to the same aggregate as
an uninterrupted in-process one — exactly for the integer-state
reducers (:class:`Count`, :class:`MinMax`'s min/max, :class:`Yield`,
:class:`Histogram`, :class:`Quantiles`), and to floating-point
associativity (≤1e-9 relative) for :class:`MeanVar`, whose partials
combine via Chan's parallel variance merge.

States are plain picklable tuples/ndarrays: the checkpoint journal
stores one partial per finished unit, so a checkpoint-resumed
streaming sweep finalizes identically to an uninterrupted one without
ever re-reading per-row data.

Built-ins extract one float per scenario via their ``extract``
callable (default: the measured value itself is the number)::

    from repro.sweep import MeanVar, Histogram, Quantiles, Yield

    result = runner_with(
        reducers={
            "height": MeanVar(extract=lambda m, p: m.eye_height),
            "height_hist": Histogram(0.0, 0.4, n_bins=64,
                                     extract=lambda m, p: m.eye_height),
            "yield": Yield(lambda m, p: m.eye_height > 0.05),
        },
        keep_results=False,
    ).run()
    result.aggregates["height"].mean
    result.aggregates["yield"].fraction
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, \
    Tuple, runtime_checkable

import numpy as np

__all__ = [
    "Reducer",
    "Count",
    "MinMax",
    "MeanVar",
    "Histogram",
    "Quantiles",
    "Yield",
    "MinMaxResult",
    "MeanVarResult",
    "HistogramResult",
    "QuantilesResult",
    "YieldResult",
]


@runtime_checkable
class Reducer(Protocol):
    """The streaming-aggregation contract (see the module docstring).

    A checkpointed sweep keys its journal on each reducer's pickled
    content (:func:`~repro.sweep.checkpoint.journal_key`), so a reducer
    must pickle, and everything that determines its finalized value
    (bin edges, quantile list, extract callable) must be in its state.
    """

    def init(self) -> Any: ...

    def update(self, state: Any, values: Sequence[Any],
               params: Sequence[Dict]) -> Any: ...

    def merge(self, a: Any, b: Any) -> Any: ...

    def finalize(self, state: Any) -> Any: ...


# ---------------------------------------------------------------------------
# Finalized aggregate types.
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class MinMaxResult:
    """Running extrema; ``min``/``max`` are ``nan`` for an empty sweep."""

    n: int
    min: float
    max: float


@dataclasses.dataclass(frozen=True)
class MeanVarResult:
    """Welford/Chan moments; ``variance`` is the population variance
    (``ddof=0``, matching ``np.var``), ``nan`` when ``n == 0``."""

    n: int
    mean: float
    variance: float

    @property
    def std(self) -> float:
        return math.sqrt(self.variance) if self.n else float("nan")


@dataclasses.dataclass(frozen=True)
class HistogramResult:
    """A fixed-bin streaming histogram.

    ``counts[i]`` covers ``[edges[i], edges[i + 1])`` (the last bin is
    closed on the right, like ``np.histogram``); values outside
    ``[edges[0], edges[-1]]`` land in ``underflow``/``overflow``
    instead of being silently dropped.
    """

    edges: np.ndarray
    counts: np.ndarray
    underflow: int
    overflow: int

    @property
    def n(self) -> int:
        """Total values seen, including out-of-range ones."""
        return int(self.counts.sum()) + self.underflow + self.overflow

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimated from the cumulative histogram,
        linearly interpolated within the containing bin (resolution is
        one bin width; out-of-range mass clamps to the edge values)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = self.n
        if total == 0:
            return float("nan")
        target = q * total
        if target <= self.underflow:
            return float(self.edges[0])
        running = float(self.underflow)
        for i, count in enumerate(self.counts):
            if running + count >= target and count > 0:
                frac = (target - running) / count
                lo, hi = self.edges[i], self.edges[i + 1]
                return float(lo + frac * (hi - lo))
            running += count
        return float(self.edges[-1])


@dataclasses.dataclass(frozen=True)
class QuantilesResult:
    """Histogram-estimated quantiles: ``values[i]`` estimates the
    ``qs[i]``-quantile (resolution: one bin of the backing sketch)."""

    qs: Tuple[float, ...]
    values: Tuple[float, ...]
    n: int

    def __getitem__(self, q: float) -> float:
        try:
            return self.values[self.qs.index(q)]
        except ValueError:
            raise KeyError(
                f"quantile {q!r} was not requested; available: {self.qs}"
            )


@dataclasses.dataclass(frozen=True)
class YieldResult:
    """Pass/fail tally; ``fraction`` is ``nan`` for an empty sweep."""

    n_pass: int
    n_total: int

    @property
    def fraction(self) -> float:
        return self.n_pass / self.n_total if self.n_total else float("nan")


# ---------------------------------------------------------------------------
# Shared extraction plumbing.
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _ScalarReducer:
    """Base for the built-ins: one float per scenario via ``extract``.

    ``extract(result, params) -> float`` maps a measured value to the
    number being aggregated; ``None`` (the default) takes the value
    itself.  ``None`` *rows* — quarantined scenarios — are skipped, so
    a partially failed sweep still aggregates its healthy rows (the
    quarantine records live on ``SweepResult.failures``).
    """

    extract: Optional[Callable[[Any, Dict], float]] = \
        dataclasses.field(default=None, kw_only=True)

    def _floats(self, values: Sequence[Any],
                params: Sequence[Dict]) -> np.ndarray:
        kept: List[float] = []
        for value, p in zip(values, params):
            if value is None:
                continue
            if self.extract is not None:
                try:
                    value = self.extract(value, p)
                except Exception as error:
                    raise type(error)(
                        f"{type(self).__name__}.extract failed for "
                        f"scenario {p!r}: {error}"
                    ) from error
            kept.append(float(value))
        return np.asarray(kept, dtype=float)


@dataclasses.dataclass(frozen=True)
class Count(_ScalarReducer):
    """How many scenarios produced a (non-quarantined) value."""

    def init(self) -> int:
        return 0

    def update(self, state: int, values: Sequence[Any],
               params: Sequence[Dict]) -> int:
        return state + sum(1 for value in values if value is not None)

    def merge(self, a: int, b: int) -> int:
        return a + b

    def finalize(self, state: int) -> int:
        return int(state)


@dataclasses.dataclass(frozen=True)
class MinMax(_ScalarReducer):
    """Exact running extrema (min/max are exactly associative)."""

    def init(self) -> Tuple[int, float, float]:
        return (0, math.inf, -math.inf)

    def update(self, state, values, params):
        floats = self._floats(values, params)
        if floats.size == 0:
            return state
        n, lo, hi = state
        return (n + floats.size, min(lo, float(floats.min())),
                max(hi, float(floats.max())))

    def merge(self, a, b):
        return (a[0] + b[0], min(a[1], b[1]), max(a[2], b[2]))

    def finalize(self, state) -> MinMaxResult:
        n, lo, hi = state
        if n == 0:
            return MinMaxResult(0, float("nan"), float("nan"))
        return MinMaxResult(n, lo, hi)


@dataclasses.dataclass(frozen=True)
class MeanVar(_ScalarReducer):
    """Streaming mean/variance: Welford-style accumulation within a
    unit (vectorized over the chunk), Chan's parallel algorithm to
    merge partials.  State is ``(n, mean, M2)``; merging is
    order-sensitive only at floating-point level (≤1e-9 relative vs a
    dense two-pass ``np.mean``/``np.var`` in practice)."""

    def init(self) -> Tuple[int, float, float]:
        return (0, 0.0, 0.0)

    def update(self, state, values, params):
        floats = self._floats(values, params)
        if floats.size == 0:
            return state
        n_b = int(floats.size)
        mean_b = float(floats.mean())
        m2_b = float(((floats - mean_b) ** 2).sum())
        return self.merge(state, (n_b, mean_b, m2_b))

    def merge(self, a, b):
        n_a, mean_a, m2_a = a
        n_b, mean_b, m2_b = b
        if n_a == 0:
            return b
        if n_b == 0:
            return a
        n = n_a + n_b
        delta = mean_b - mean_a
        mean = mean_a + delta * (n_b / n)
        m2 = m2_a + m2_b + delta * delta * (n_a * n_b / n)
        return (n, mean, m2)

    def finalize(self, state) -> MeanVarResult:
        n, mean, m2 = state
        if n == 0:
            return MeanVarResult(0, float("nan"), float("nan"))
        return MeanVarResult(int(n), float(mean), float(m2 / n))


@dataclasses.dataclass(frozen=True)
class Histogram(_ScalarReducer):
    """Fixed-bin streaming histogram over ``[lo, hi]``.

    Bin counts are integers, so partials merge exactly regardless of
    chunking or completion order.  Out-of-range values are tallied in
    the underflow/overflow counters, never dropped.
    """

    lo: float = 0.0
    hi: float = 1.0
    n_bins: int = 64

    def __post_init__(self) -> None:
        if not self.hi > self.lo:
            raise ValueError(
                f"histogram range must satisfy hi > lo, got "
                f"[{self.lo}, {self.hi}]"
            )
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {self.n_bins}")

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_bins + 1)

    def init(self):
        return (np.zeros(self.n_bins, dtype=np.int64), 0, 0)

    def update(self, state, values, params):
        floats = self._floats(values, params)
        if floats.size == 0:
            return state
        counts, under, over = state
        below = int(np.count_nonzero(floats < self.lo))
        above = int(np.count_nonzero(floats > self.hi))
        inside = floats[(floats >= self.lo) & (floats <= self.hi)]
        new_counts, _ = np.histogram(inside, bins=self.edges)
        return (counts + new_counts, under + below, over + above)

    def merge(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])

    def finalize(self, state) -> HistogramResult:
        counts, under, over = state
        return HistogramResult(edges=self.edges,
                               counts=np.asarray(counts, dtype=np.int64),
                               underflow=int(under), overflow=int(over))


@dataclasses.dataclass(frozen=True)
class Quantiles(Histogram):
    """Online quantiles from a constant-memory cumulative sketch.

    A P²-style estimator with a crucial difference: instead of the
    classic five adaptive markers (whose state is order-*dependent*),
    the sketch is a fixed-bin cumulative histogram over ``[lo, hi]``
    with linear interpolation inside the containing bin — the same
    constant memory, but partials are integer bin counts, so the
    estimate is invariant to chunking, completion order and resume.
    Resolution is one bin width (``(hi - lo) / n_bins``); mass outside
    the range clamps to the edges.
    """

    n_bins: int = 256
    qs: Tuple[float, ...] = (0.05, 0.25, 0.5, 0.75, 0.95)

    def __post_init__(self) -> None:
        object.__setattr__(self, "qs", tuple(float(q) for q in self.qs))
        if not self.qs:
            raise ValueError("qs must name at least one quantile")
        if any(not 0.0 <= q <= 1.0 for q in self.qs):
            raise ValueError(f"quantiles must be in [0, 1], got {self.qs}")
        super().__post_init__()

    def finalize(self, state) -> QuantilesResult:
        histogram = super().finalize(state)
        return QuantilesResult(
            qs=self.qs,
            values=tuple(histogram.quantile(q) for q in self.qs),
            n=histogram.n,
        )


@dataclasses.dataclass(frozen=True)
class Yield(_ScalarReducer):
    """Pass/fail yield counter: ``predicate(result, params) -> bool``
    per scenario (exact: the state is two integers).

    With ``extract`` set, the predicate sees the extracted float; by
    default it sees the raw measured value.
    """

    predicate: Optional[Callable[[Any, Dict], bool]] = None

    def __init__(self, predicate=None, *, extract=None):
        # Positional predicate: Yield(lambda m, p: m.eye_height > 0.05).
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "extract", extract)
        if predicate is None:
            raise ValueError(
                "Yield needs a predicate(result, params) -> bool"
            )

    def init(self) -> Tuple[int, int]:
        return (0, 0)

    def update(self, state, values, params):
        n_pass, n_total = state
        for value, p in zip(values, params):
            if value is None:
                continue
            if self.extract is not None:
                value = self.extract(value, p)
            n_total += 1
            if self.predicate(value, p):
                n_pass += 1
        return (n_pass, n_total)

    def merge(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def finalize(self, state) -> YieldResult:
        return YieldResult(n_pass=int(state[0]), n_total=int(state[1]))
