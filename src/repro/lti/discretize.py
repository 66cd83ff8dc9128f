"""Continuous-to-discrete conversion and time-domain filtering.

SPICE integrates circuit ODEs with adaptive timesteps; our substitute is
the bilinear (Tustin) transform, which maps a rational H(s) onto a
digital IIR filter that is exact at DC, preserves stability, and is
accurate well past the signal band when the waveform is oversampled
(the library's NRZ default of 32 samples/bit puts the 10 Gb/s Nyquist
at 160 GHz, far above every circuit pole we model).

The bilinear transform itself is implemented from scratch (it is the
substrate this library owes its transient results to); the inner
direct-form filtering loop is scipy's compiled ``_linear_filter`` (the
loop behind ``scipy.signal.lfilter``), used purely as a vectorized
kernel.  It is loaded straight from its extension file, found without
importing scipy itself, because importing the ``scipy.signal`` package
also imports ``scipy.stats``, ``interpolate``, ``optimize`` and
``spatial`` and used to be most of ``import repro``'s time and memory;
it is the only scipy module ``import repro`` loads.  :func:`_lfilter` and
:func:`_lfilter_zi` repeat ``lfilter``'s dispatch and ``lfilter_zi``'s
arithmetic, so every filtered sample is bit-identical to the
``scipy.signal`` calls.

Two properties matter for multi-scenario throughput:

* discretization is **memoized** — coefficient sets are keyed on the
  analog coefficients, the sample rate and the prewarp frequency, so a
  pipeline re-simulated across thousands of scenarios derives each
  digital filter once (one level up, the circuit stages cache their
  analog transfer functions per field value, see
  :func:`repro.core.cml_buffer.lowered_block`, so neither the analog nor
  the digital coefficients are rebuilt per call);
* filtering is **batched** — :func:`simulate_tf` accepts a 2-D
  ``(n_scenarios, n_samples)`` array and runs one filter call over
  the last axis with per-row steady-state initial conditions, which is
  what makes :class:`~repro.signals.batch.WaveformBatch` pipelines fast.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from typing import Tuple

import numpy as np

from .transfer_function import RationalTF

__all__ = ["bilinear_transform", "simulate_tf"]


def _load_linear_filter():
    """scipy's compiled direct-form II transposed loop, loaded on its own.

    scipy's directory is found with ``importlib.util.find_spec``, so
    neither ``scipy/__init__.py`` nor ``scipy/signal/__init__.py`` runs.
    Executing the extension enters it in ``sys.modules`` as
    ``scipy.signal._sigtools`` (it uses single-phase initialization), so
    a later ``import scipy.signal`` reuses this module and
    ``scipy.signal.lfilter`` runs the same ``_linear_filter``.
    """
    name = "scipy.signal._sigtools"
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("repro needs scipy>=1.10", name="scipy")
    finder = importlib.machinery.FileFinder(
        os.path.join(os.path.dirname(scipy_spec.origin), "signal"),
        (importlib.machinery.ExtensionFileLoader,
         importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    module = None
    if spec is not None:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    if not hasattr(module, "_linear_filter"):
        from importlib.metadata import version
        raise ImportError(
            f"repro needs the compiled filter loop {name}._linear_filter, "
            f"which scipy {version('scipy')} does not provide; "
            "install scipy>=1.10")
    return module._linear_filter


_linear_filter = _load_linear_filter()


@functools.lru_cache(maxsize=128)
def _binomial_cross_table(n: int) -> np.ndarray:
    """Rows of ``(z-1)^p (z+1)^(n-p)`` for ``p = 0..n``, degree ``n`` each.

    Built once per transfer-function order and cached: the bilinear
    expansion of any order-``n`` polynomial is then a weighted sum of
    these rows instead of a fresh O(n^2) chain of ``np.polymul`` calls
    per coefficient.
    """
    z_plus = np.array([1.0, 1.0])    # (z + 1) in descending powers of z
    z_minus = np.array([1.0, -1.0])  # (z - 1)
    minus_powers = [np.ones(1)]
    plus_powers = [np.ones(1)]
    for _ in range(n):
        minus_powers.append(np.polymul(minus_powers[-1], z_minus))
        plus_powers.append(np.polymul(plus_powers[-1], z_plus))
    table = np.stack([np.polymul(minus_powers[p], plus_powers[n - p])
                      for p in range(n + 1)])
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=4096)
def _bilinear_cached(num: Tuple[float, ...], den: Tuple[float, ...],
                     k: float) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized digital ``(b, a)`` for Tustin with substitution gain ``k``.

    The returned arrays are shared cache entries and marked read-only.
    """
    num_s = np.asarray(num)
    den_s = np.asarray(den)
    n = max(len(num_s), len(den_s)) - 1  # overall order
    table = _binomial_cross_table(n)

    def expand(poly_s: np.ndarray) -> np.ndarray:
        """Expand poly(s) over the common (z+1)^n denominator."""
        order = len(poly_s) - 1
        powers = order - np.arange(len(poly_s))  # power of s per coefficient
        weights = poly_s * (k ** powers.astype(float))
        return weights @ table[powers]

    b = expand(num_s)
    a = expand(den_s)
    if a[0] == 0:
        raise ValueError("bilinear transform produced a degenerate filter")
    b, a = b / a[0], a / a[0]
    b.setflags(write=False)
    a.setflags(write=False)
    return b, a


def bilinear_transform(tf: RationalTF, sample_rate: float,
                       prewarp_hz: float | None = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Map ``H(s)`` to digital filter coefficients ``(b, a)`` via Tustin.

    Substitutes ``s = k (z - 1)/(z + 1)`` with ``k = 2 fs`` (or the
    prewarped value matching the analog response exactly at
    ``prewarp_hz``).  Returns numerator/denominator coefficient arrays in
    descending powers of ``z^-1``, normalized so ``a[0] = 1``.

    The expansion is done with polynomial algebra: writing
    ``num(s) = sum c_i s^i``, each power ``s^i`` becomes
    ``k^i (z-1)^i (z+1)^(n-i)`` over the common denominator
    ``(z+1)^n`` where ``n`` is the TF order, so both digital polynomials
    are weighted sums of rows from a per-order binomial product table.

    Results are memoized on ``(tf coefficients, sample_rate, prewarp)``;
    the returned arrays are shared and read-only.
    """
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    if prewarp_hz is None:
        k = 2.0 * sample_rate
    else:
        if prewarp_hz <= 0:
            raise ValueError(f"prewarp_hz must be positive, got {prewarp_hz}")
        omega = 2.0 * np.pi * prewarp_hz
        if omega >= np.pi * sample_rate:
            raise ValueError(
                "prewarp frequency must be below Nyquist "
                f"({sample_rate / 2:.3g} Hz), got {prewarp_hz:.3g} Hz"
            )
        k = omega / np.tan(omega / (2.0 * sample_rate))

    num_s = np.atleast_1d(tf.num)
    den_s = np.atleast_1d(tf.den)
    return _bilinear_cached(tuple(num_s), tuple(den_s), float(k))


def simulate_tf(tf: RationalTF, data: np.ndarray, sample_rate: float,
                prewarp_hz: float | None = None,
                initial_value: float | np.ndarray | None = None
                ) -> np.ndarray:
    """Filter ``data`` through ``tf`` discretized at ``sample_rate``.

    ``data`` may be 1-D (one waveform) or 2-D ``(n_scenarios,
    n_samples)``; a 2-D input is filtered along the last axis in a single
    vectorized pass, each row initialized independently.

    ``initial_value`` sets the assumed constant input level before the
    first sample so filters start in steady state instead of ringing at
    t=0 (a link idles at a constant differential level before the
    pattern starts).  Defaults to the first data sample (per row for 2-D
    input); an array of per-row values is accepted for batches.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim not in (1, 2):
        raise ValueError(
            f"data must be 1-D or 2-D (batch), got shape {data.shape}"
        )
    if data.size == 0:
        return data.copy()
    b, a = bilinear_transform(tf, sample_rate, prewarp_hz=prewarp_hz)
    if initial_value is None:
        x0 = np.asarray(data[..., 0], dtype=float)
    else:
        x0 = np.broadcast_to(np.asarray(initial_value, dtype=float),
                             data.shape[:-1])
    # Steady-state warm-up: initial filter state matching a constant
    # input at x0, or an explicit warm-up run when no such state exists.
    return _steady_state_lfilter(b, a, data, x0, tf, sample_rate)


def _lfilter(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``scipy.signal.lfilter(b, a, x)`` along the last axis, float64.

    The same dispatch: a one-coefficient denominator (a pure gain)
    convolves each row with ``b / a[0]``; longer ones run the compiled
    loop.
    """
    if len(a) == 1:
        b = b / a[0]
        out = np.apply_along_axis(lambda row: np.convolve(b, row), -1, x)
        return out[..., :x.shape[-1]]
    return _linear_filter(b, a, x, -1)


def _lfilter_zi(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``scipy.signal.lfilter_zi(b, a)`` for ``b`` and ``a`` of one
    length (as the bilinear transform gives): the unit-step state.

    Solves ``zi = A zi + B`` with the companion matrix ``A`` of the
    normalized denominator, in scipy's operation order.  Raises
    ``ValueError`` for an order-0 filter (it has no state) and
    ``LinAlgError`` for a pole at ``z = 1``.
    """
    if a[0] != 1.0:
        b, a = b / a[0], a / a[0]
    if len(a) < 2:
        raise ValueError("an order-0 filter has no state")
    companion_t = np.eye(len(a) - 1, k=1)
    companion_t[:, 0] = -a[1:] / a[0]
    return np.linalg.solve(np.eye(len(a) - 1) - companion_t,
                           b[1:] - a[1:] * b[0])


@functools.lru_cache(maxsize=4096)
def _lfilter_zi_cached(b_key: bytes, a_key: bytes,
                       n: int) -> np.ndarray:
    """:func:`_lfilter_zi` memoized on the coefficient bytes."""
    b = np.frombuffer(b_key, dtype=float, count=n)
    a = np.frombuffer(a_key, dtype=float)
    zi = _lfilter_zi(b, a)
    zi.setflags(write=False)
    return zi


def _steady_state_lfilter(b: np.ndarray, a: np.ndarray, data: np.ndarray,
                          x0: np.ndarray, tf: RationalTF,
                          sample_rate: float) -> np.ndarray:
    """Filter with initial conditions matching a constant input ``x0``.

    Works on 1-D data (scalar ``x0``) and on 2-D batches (``x0`` of
    shape ``(n_scenarios,)`` giving per-row initial conditions).
    """
    try:
        zi_unit = _lfilter_zi_cached(b.tobytes(), a.tobytes(), len(b))
    except (ValueError, np.linalg.LinAlgError):
        # Degenerate cases (pure gain, pole at z=1 from an s=0 pole):
        # fall back to an explicit warm-up run.
        n_warm = _settle_samples(tf, sample_rate)
        warm = np.broadcast_to(x0[..., np.newaxis],
                               data.shape[:-1] + (n_warm,))
        y_all = _lfilter(b, a, np.concatenate([warm, data], axis=-1))
        return y_all[..., n_warm:]
    zi = zi_unit * x0[..., np.newaxis]
    return _linear_filter(b, a, data, -1, zi)[0]


def _settle_samples(tf: RationalTF, sample_rate: float,
                    settle_factor: float = 10.0) -> int:
    """Number of samples for the slowest stable pole to settle."""
    poles = tf.poles()
    stable = poles[poles.real < 0]
    if stable.size == 0:
        return 16
    slowest_tau = 1.0 / np.min(np.abs(stable.real))
    n = int(np.ceil(settle_factor * slowest_tau * sample_rate))
    return int(np.clip(n, 16, 2_000_000))
