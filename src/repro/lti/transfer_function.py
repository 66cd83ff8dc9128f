"""Rational transfer functions in the Laplace domain.

This is the library's replacement for SPICE AC analysis: every linear
circuit block (equalizer, CML buffer, channel approximations, offset
loop) reduces to a :class:`RationalTF` — a ratio of polynomials in *s* —
and the algebra here (cascade, parallel, feedback) composes blocks the
way the paper's Section III composes stages.

Polynomials are stored as numpy coefficient arrays in *descending*
powers of *s*, matching :func:`numpy.polyval`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = ["RationalTF", "first_order_lowpass", "second_order_lowpass",
           "pole_zero_tf"]


def _trim(coeffs: np.ndarray) -> np.ndarray:
    """Strip leading (highest-order) zeros, keeping at least one term."""
    if (type(coeffs) is np.ndarray and coeffs.dtype == np.float64
            and coeffs.ndim == 1 and coeffs.size and coeffs[0] != 0):
        return coeffs  # already trimmed: the common case in TF algebra
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    nonzero = np.flatnonzero(coeffs)
    if nonzero.size == 0:
        return np.zeros(1)
    return coeffs[nonzero[0]:]


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.polymul`` for float coefficient arrays, without its ``poly1d``
    wrapping: the same convolution of the same trimmed operands."""
    return np.convolve(_trim(a), _trim(b))


def _polyadd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.polyadd``: zero-pad the shorter operand at the high-order end."""
    diff = len(b) - len(a)
    if diff > 0:
        a = np.concatenate((np.zeros(diff), a))
    elif diff < 0:
        b = np.concatenate((np.zeros(-diff), b))
    return a + b


@dataclasses.dataclass(frozen=True)
class RationalTF:
    """A transfer function ``H(s) = num(s) / den(s)``.

    Parameters
    ----------
    num, den:
        Polynomial coefficients in descending powers of *s*.  The
        denominator must not be the zero polynomial.
    """

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self) -> None:
        num = _trim(self.num)
        den = _trim(self.den)
        if not np.any(den):
            raise ValueError("denominator polynomial is zero")
        # Normalize so the denominator's leading coefficient is 1; this
        # makes equality checks and discretization numerically stable.
        lead = den[0]
        object.__setattr__(self, "num", num / lead)
        object.__setattr__(self, "den", den / lead)

    # -- constructors -----------------------------------------------------
    @classmethod
    def constant(cls, gain: float) -> "RationalTF":
        """A frequency-independent gain."""
        return cls(np.array([float(gain)]), np.array([1.0]))

    @classmethod
    def integrator(cls, gain: float = 1.0) -> "RationalTF":
        """``gain / s`` — used by feedback-loop analyses."""
        return cls(np.array([float(gain)]), np.array([1.0, 0.0]))

    @classmethod
    def differentiator(cls, gain: float = 1.0) -> "RationalTF":
        """``gain * s`` — ideal differentiator."""
        return cls(np.array([float(gain), 0.0]), np.array([1.0]))

    @classmethod
    def from_poles_zeros(cls, zeros: Iterable[complex],
                         poles: Iterable[complex],
                         gain: float = 1.0) -> "RationalTF":
        """Build from explicit pole/zero locations (rad/s, complex).

        ``gain`` multiplies the monic rational; complex roots must come in
        conjugate pairs for the result to be real (enforced by discarding
        the negligible imaginary residue after polynomial expansion).
        """
        num = np.atleast_1d(np.poly(list(zeros))) * gain
        den = np.atleast_1d(np.poly(list(poles)))
        num_real = np.real_if_close(num, tol=1e6)
        den_real = np.real_if_close(den, tol=1e6)
        if np.iscomplexobj(num_real) or np.iscomplexobj(den_real):
            raise ValueError(
                "complex poles/zeros must come in conjugate pairs"
            )
        return cls(num_real.astype(float), den_real.astype(float))

    # -- algebra ------------------------------------------------------------
    def cascade(self, other: "RationalTF") -> "RationalTF":
        """Series connection: ``H = H1 * H2`` (buffered stages)."""
        return RationalTF(_polymul(self.num, other.num),
                          _polymul(self.den, other.den))

    __mul__ = cascade

    def parallel(self, other: "RationalTF") -> "RationalTF":
        """Parallel (summing) connection: ``H = H1 + H2``."""
        num = _polyadd(_polymul(self.num, other.den),
                       _polymul(other.num, self.den))
        return RationalTF(num, _polymul(self.den, other.den))

    __add__ = parallel

    def __sub__(self, other: "RationalTF") -> "RationalTF":
        return self.parallel(other.scaled(-1.0))

    def scaled(self, gain: float) -> "RationalTF":
        """Multiply by a frequency-independent gain."""
        return RationalTF(self.num * float(gain), self.den)

    def feedback(self, loop: "RationalTF | None" = None) -> "RationalTF":
        """Closed loop with negative feedback: ``H / (1 + H * G)``.

        With ``loop=None`` the feedback is unity.  This is the form used
        to close the DC-offset-cancellation loop around the limiting
        amplifier and the active-feedback loop inside Cherry-Hooper
        stages.
        """
        if loop is None:
            loop = RationalTF.constant(1.0)
        open_num = _polymul(self.num, loop.den)
        den = _polyadd(_polymul(self.den, loop.den),
                       _polymul(self.num, loop.num))
        return RationalTF(open_num, den)

    def inverse(self) -> "RationalTF":
        """``1 / H`` — only valid when the numerator is nonzero."""
        if not np.any(self.num):
            raise ValueError("cannot invert a zero transfer function")
        return RationalTF(self.den, self.num)

    # -- inspection ----------------------------------------------------------
    @property
    def order(self) -> int:
        """Denominator order (number of poles)."""
        return len(self.den) - 1

    def poles(self) -> np.ndarray:
        """Pole locations in rad/s (complex)."""
        if len(self.den) <= 1:
            return np.array([], dtype=complex)
        return np.roots(self.den)

    def zeros(self) -> np.ndarray:
        """Zero locations in rad/s (complex)."""
        if len(self.num) <= 1:
            return np.array([], dtype=complex)
        return np.roots(self.num)

    def is_stable(self) -> bool:
        """True when every pole lies strictly in the left half plane."""
        poles = self.poles()
        if poles.size == 0:
            return True
        return bool(np.all(poles.real < 0))

    def dc_gain(self) -> float:
        """H(0).  Raises if the TF has a pole at the origin."""
        den0 = self.den[-1]
        if den0 == 0:
            raise ZeroDivisionError("transfer function has a pole at s = 0")
        return float(self.num[-1] / den0)

    # -- frequency response ---------------------------------------------------
    def response(self, freq_hz: np.ndarray) -> np.ndarray:
        """Complex frequency response H(j 2*pi*f) at the given frequencies."""
        s = 2j * np.pi * np.asarray(freq_hz, dtype=float)
        return np.polyval(self.num, s) / np.polyval(self.den, s)

    def magnitude_db(self, freq_hz: np.ndarray) -> np.ndarray:
        """Magnitude response in dB."""
        mag = np.abs(self.response(freq_hz))
        return 20.0 * np.log10(np.maximum(mag, 1e-300))

    def phase_deg(self, freq_hz: np.ndarray) -> np.ndarray:
        """Unwrapped phase response in degrees."""
        return np.degrees(np.unwrap(np.angle(self.response(freq_hz))))

    def group_delay(self, freq_hz: np.ndarray) -> np.ndarray:
        """Group delay in seconds, -d(phase)/d(omega), by finite differences."""
        freq_hz = np.asarray(freq_hz, dtype=float)
        if freq_hz.size < 2:
            raise ValueError("group delay needs at least two frequency points")
        phase = np.unwrap(np.angle(self.response(freq_hz)))
        omega = 2.0 * np.pi * freq_hz
        return -np.gradient(phase, omega)

    def bandwidth_3db(self, f_max: float = 100e9,
                      reference_hz: float = 0.0) -> float:
        """The -3 dB bandwidth relative to the response at ``reference_hz``.

        Scans log-spaced frequencies up to ``f_max`` for the first
        crossing below ``|H(ref)| / sqrt(2)`` and refines it by bisection.
        Returns ``math.inf`` if no crossing is found below ``f_max``.
        """
        if reference_hz == 0.0:
            ref_mag = abs(self.dc_gain())
        else:
            ref_mag = float(abs(self.response(np.array([reference_hz]))[0]))
        if ref_mag == 0:
            raise ValueError("reference gain is zero; -3 dB point undefined")
        target = ref_mag / math.sqrt(2.0)

        freqs = np.logspace(5, math.log10(f_max), 2400)
        mags = np.abs(self.response(freqs))
        below = np.flatnonzero(mags < target)
        if below.size == 0:
            return math.inf
        hi_idx = below[0]
        if hi_idx == 0:
            return freqs[0]
        lo, hi = freqs[hi_idx - 1], freqs[hi_idx]
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            mag = abs(self.response(np.array([mid]))[0])
            if mag < target:
                hi = mid
            else:
                lo = mid
        return math.sqrt(lo * hi)

    def peaking_db(self, f_max: float = 100e9) -> float:
        """Peak magnitude above the DC gain, in dB (0 when monotone).

        Inductive peaking shows up as a bump before roll-off; the paper's
        Fig 7(b) sweeps exactly this quantity via the PMOS load size.
        """
        dc = abs(self.dc_gain())
        if dc == 0:
            raise ValueError("DC gain is zero; peaking undefined")
        freqs = np.logspace(5, math.log10(f_max), 2400)
        peak = float(np.max(np.abs(self.response(freqs))))
        return max(0.0, 20.0 * math.log10(peak / dc))

    def __repr__(self) -> str:
        num = np.array2string(self.num, precision=4)
        den = np.array2string(self.den, precision=4)
        return f"RationalTF(num={num}, den={den})"


def first_order_lowpass(pole_hz: float, gain: float = 1.0) -> RationalTF:
    """``gain / (1 + s/wp)`` — the single-pole building block."""
    if pole_hz <= 0:
        raise ValueError(f"pole frequency must be positive, got {pole_hz}")
    wp = 2.0 * np.pi * pole_hz
    return RationalTF(np.array([gain]), np.array([1.0 / wp, 1.0]))


def second_order_lowpass(natural_hz: float, q: float,
                         gain: float = 1.0) -> RationalTF:
    """``gain * wn^2 / (s^2 + wn/Q s + wn^2)``.

    The canonical resonant low-pass; active feedback turns a cascade of
    two real poles into this form with Q set by the loop gain, which is
    how Cherry-Hooper stages extend bandwidth.
    """
    if natural_hz <= 0:
        raise ValueError(f"natural frequency must be positive, got {natural_hz}")
    if q <= 0:
        raise ValueError(f"Q must be positive, got {q}")
    wn = 2.0 * np.pi * natural_hz
    return RationalTF(np.array([gain * wn**2]),
                      np.array([1.0, wn / q, wn**2]))


def pole_zero_tf(pole_hz: Sequence[float], zero_hz: Sequence[float] = (),
                 gain: float = 1.0) -> RationalTF:
    """Build a TF from real pole/zero frequencies in Hz with DC gain ``gain``.

    Each entry contributes ``(1 + s/w)`` so that the DC gain equals
    ``gain`` exactly regardless of the pole/zero placement.
    """
    num = np.array([float(gain)])
    den = np.array([1.0])
    for fz in zero_hz:
        if fz <= 0:
            raise ValueError(f"zero frequency must be positive, got {fz}")
        num = _polymul(num, np.array([1.0 / (2 * np.pi * fz), 1.0]))
    for fp in pole_hz:
        if fp <= 0:
            raise ValueError(f"pole frequency must be positive, got {fp}")
        den = _polymul(den, np.array([1.0 / (2 * np.pi * fp), 1.0]))
    return RationalTF(num, den)
