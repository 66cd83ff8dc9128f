"""Continuous-to-discrete conversion and time-domain filtering.

SPICE integrates circuit ODEs with adaptive timesteps; our substitute is
the bilinear (Tustin) transform, which maps a rational H(s) onto a
digital IIR filter that is exact at DC, preserves stability, and is
accurate well past the signal band when the waveform is oversampled
(the library's NRZ default of 32 samples/bit puts the 10 Gb/s Nyquist
at 160 GHz, far above every circuit pole we model).

The bilinear transform itself is implemented from scratch (it is the
substrate this library owes its transient results to); the inner
direct-form filtering loop is delegated to :func:`scipy.signal.lfilter`
purely as a vectorized kernel.

Two properties matter for multi-scenario throughput:

* discretization is **memoized** — coefficient sets are keyed on the
  analog coefficients, the sample rate and the prewarp frequency, so a
  pipeline re-simulated across thousands of scenarios derives each
  digital filter once (one level up, the circuit stages cache their
  analog transfer functions per field value, see
  :func:`repro.core.cml_buffer.lowered_block`, so neither the analog nor
  the digital coefficients are rebuilt per call);
* filtering is **batched** — :func:`simulate_tf` accepts a 2-D
  ``(n_scenarios, n_samples)`` array and runs one ``lfilter`` call over
  the last axis with per-row steady-state initial conditions, which is
  what makes :class:`~repro.signals.batch.WaveformBatch` pipelines fast.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np
from scipy.signal import lfilter, lfilter_zi

from .transfer_function import RationalTF

__all__ = ["bilinear_transform", "simulate_tf", "impulse_response",
           "step_response"]


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


@functools.lru_cache(maxsize=4096)
def _lfilter_zi_cached(b_key: bytes, a_key: bytes,
                       n: int) -> np.ndarray:
    """Unit-step-state ``lfilter_zi`` memoized on the coefficient bytes."""
    b = np.frombuffer(b_key, dtype=float, count=n)
    a = np.frombuffer(a_key, dtype=float)
    zi = lfilter_zi(b, a)
    zi.setflags(write=False)
    return zi


def _steady_state_lfilter(b: np.ndarray, a: np.ndarray, data: np.ndarray,
                          x0: np.ndarray, tf: RationalTF,
                          sample_rate: float) -> np.ndarray:
    """lfilter with initial conditions matching a constant input ``x0``.

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
        y_all = lfilter(b, a, np.concatenate([warm, data], axis=-1),
                        axis=-1)
        return np.asarray(y_all[..., n_warm:])
    zi = zi_unit * x0[..., np.newaxis]
    y, _ = lfilter(b, a, data, axis=-1, zi=zi)
    return np.asarray(y)


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


def impulse_response(tf: RationalTF, sample_rate: float,
                     duration: float,
                     prewarp_hz: float | None = None) -> np.ndarray:
    """Discrete-time impulse response (scaled by fs to approximate h(t)).

    Routed through :func:`simulate_tf` with a zero pre-history, so the
    result is consistent with transient simulations even for transfer
    functions whose ``lfilter_zi`` is degenerate (e.g. an s=0 pole).
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    n = max(2, int(round(duration * sample_rate)))
    impulse = np.zeros(n)
    impulse[0] = sample_rate  # unit-area discrete impulse
    return simulate_tf(tf, impulse, sample_rate, prewarp_hz=prewarp_hz,
                       initial_value=0.0)


def step_response(tf: RationalTF, sample_rate: float,
                  duration: float,
                  prewarp_hz: float | None = None) -> np.ndarray:
    """Unit step response of the transfer function.

    The input is held at zero before t=0 (the same steady-state
    initialization as :func:`simulate_tf`), so the step transient agrees
    with a transient simulation of the same 0-to-1 input.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    n = max(2, int(round(duration * sample_rate)))
    step = np.ones(n)
    return simulate_tf(tf, step, sample_rate, prewarp_hz=prewarp_hz,
                       initial_value=0.0)
