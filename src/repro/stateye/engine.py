"""The statistical eye/BER engine: exact ISI-PDF convolution.

Pattern simulation estimates BER by counting errors, so observing a
compliance-grade tail (1e-12..1e-15) needs ~10/BER transmitted bits —
physically unreachable.  The statistical (StatEye/peak-distortion) view
computes the same distribution in closed form from the *single-symbol
pulse response*:

* For a linear chain, the received waveform is the superposition
  ``v(t) = sum_k l_{s_k} * p(t - k*UI)`` of one pulse response ``p``
  per transmitted symbol, with ``l`` the normalized modulation levels
  (the repo's encoders satisfy this identity exactly away from the
  stream edges, including the tanh-edge encoder — the edge transitions
  telescope).
* Sampling at phase ``t`` therefore sees the main cursor ``l_0 * c_0(t)``
  plus the ISI sum over neighbouring cursors ``c_k(t) = p(t + k*UI)``.
  With i.i.d. equiprobable symbols each cursor contributes an
  independent ``L``-point amplitude distribution, and the exact ISI
  voltage PDF is the discrete convolution of those per-cursor level
  sets on a fixed voltage grid.
* Gaussian noise multiplies in as its characteristic function; RJ/DJ
  jitter folds in along the (periodic) phase axis as a circular
  convolution with the dual-Dirac + Gaussian timing kernel, evaluated
  as one ``n_phases x n_phases`` circulant matrix product per
  (scenario, sub-eye) surface.
* Conditioning on the transmitted level ``l`` shifts the ISI+noise PDF
  by ``l * c_0`` — a phase factor ``exp(-i*omega*l*c_0)`` in the
  ``rfft`` domain, built as a coarse times a fine exponential because
  ``omega`` is a uniform grid.  On a symmetric alphabet
  (``levels == -levels[::-1]``, e.g. NRZ and PAM4) the ISI and noise
  PDFs are even, so the PDF given ``-l`` is the one given ``+l``
  mirrored through the grid origin (bin ``j`` to
  ``(2*origin - j) mod n_voltages``, a plain reversal on odd grids).
  Each ``+-l`` pair then costs one shift factor, one ``irfft`` and one
  set of cumulative sums, whose mirror images are the partner's tails.
  An asymmetric alphabet has no pairs and computes each level alone.

Each cursor's ``L``-spike distribution is deposited on the voltage grid
with sum-preserving linear splitting and the convolutions are evaluated
in the ``rfft`` domain (circular convolution == exact discrete
convolution while the support fits the grid — the grid is sized, or
validated against ``v_half_span``, so it always does).  Most cursors of
a real pulse are *sub-bin* (every level spike lands within one grid
step of zero): per (scenario, phase) row those 3-tap kernels are
convolved directly and transformed once, and only a cursor wider than a
bin on a row pays its own ``rfft`` there.  Everything is
vectorized over ``(scenario, phase)`` rows, giving a full
``(n_scenarios, n_eyes, n_phases, n_voltages)`` BER surface stack in
milliseconds per scenario; ``chunk_scenarios`` bounds the working-set
memory and ``keep_surfaces=False`` keeps only the per-scenario
summaries (the flat-memory sweep mode).

Two resolution effects bound the deepest trustworthy BER.  The float64
FFT/cumsum pipeline carries ~1e-15 of absolute noise in CDF terms, and
the linear-split spike deposits smear each ISI spike by up to one grid
step ``dv`` — harmless while ``dv`` is small against the noise sigma,
but a coarse grid (``dv >~ 0.5 * noise_rms``) biases the extreme tails
visibly.  What is checked: the reported BER agrees with time-domain
error counting within half a decade at BER ~2.5e-3
(``benchmarks/bench_stateye.py``) and above 1e-4 in the tests.  The
deep tails (1e-12..1e-15) are not verified: against an exact pattern
enumeration, the default ``n_voltages=513`` read up to ~0.85 decades
off at ``dv / noise_rms ~ 0.32``.  Raise ``n_voltages`` (or shrink
``v_half_span``) when probing deep contours with small noise.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

import numpy as np

from ..analysis.isi import PulseResponse
from ..signals.modulation import Modulation, Nrz
from .result import StatEyeBatchResult, StatEyeResult, _summaries

__all__ = ["StatEye"]

# OpenBLAS keeps a matrix product with M * N * K <= 4 * 65536 on the
# calling thread; a larger one may be split across helper threads.  At
# the jitter fold's sizes that hand-off saves nothing, and it stalls a
# call for milliseconds when the other cores are busy.
_SERIAL_PRODUCT_SIZE = 4 * 65536


@dataclasses.dataclass(frozen=True)
class StatEye:
    """Statistical eye/BER engine configuration + analysis entry points.

    Parameters
    ----------
    modulation:
        Line code whose level alphabet drives the cursor level sets and
        sub-eye count (NRZ default; PAM4 gives all three sub-eyes).
    n_phases:
        Sampling phases across one UI (the time axis of the surfaces).
    n_voltages:
        Voltage-grid resolution (the threshold axis of the surfaces).
    n_precursors / n_postcursors:
        ISI cursor span around the main cursor; the cursor window is
        ``n_precursors + 1 + n_postcursors`` UI wide.
    noise_rms:
        Slicer-referred Gaussian noise sigma in volts.
    rj_rms_ui / dj_pp_ui:
        Random (Gaussian sigma) and deterministic (dual-Dirac
        peak-to-peak) jitter in UI, folded along the phase axis.
    v_half_span:
        Optional fixed half-extent of the voltage grid in volts.  By
        default the grid is sized per call to contain the ISI support
        plus 10-sigma noise tails; pin it to make independent calls
        (e.g. a sweep's serial and batched paths, or NRZ-vs-PAM4
        comparisons) share bit-identical grids.
    target_ber:
        Default BER for contours/eye-opening summaries.
    ber_floor:
        Reported BERs are floored here in log-domain views so closed
        tails never read as exactly zero.
    """

    modulation: Modulation = Nrz()
    n_phases: int = 64
    n_voltages: int = 513
    n_precursors: int = 4
    n_postcursors: int = 16
    noise_rms: float = 0.0
    rj_rms_ui: float = 0.0
    dj_pp_ui: float = 0.0
    v_half_span: Optional[float] = None
    target_ber: float = 1e-12
    ber_floor: float = 1e-18

    def __post_init__(self) -> None:
        if self.n_phases < 4:
            raise ValueError(
                f"phase resolution must be positive: need n_phases >= 4 "
                f"to resolve an eye, got {self.n_phases}"
            )
        if self.n_voltages < 16:
            raise ValueError(
                f"voltage resolution must be positive: need n_voltages "
                f">= 16 to resolve the levels, got {self.n_voltages}"
            )
        if self.n_precursors < 0 or self.n_postcursors < 0:
            raise ValueError(
                f"cursor span must be >= 1 UI: n_precursors and "
                f"n_postcursors must be >= 0, got n_precursors="
                f"{self.n_precursors}, n_postcursors={self.n_postcursors}"
            )
        for name in ("noise_rms", "rj_rms_ui", "dj_pp_ui"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.dj_pp_ui >= 1.0:
            raise ValueError(
                f"dj_pp_ui must be < 1 UI (a full-UI deterministic "
                f"offset closes the eye by construction), got "
                f"{self.dj_pp_ui}"
            )
        if self.v_half_span is not None and self.v_half_span <= 0:
            raise ValueError(
                f"v_half_span must be positive, got {self.v_half_span}"
            )
        if not 0.0 < self.target_ber < 0.5:
            raise ValueError(
                f"target_ber must be in (0, 0.5), got {self.target_ber}"
            )
        if not 0.0 < self.ber_floor < 0.5:
            raise ValueError(
                f"ber_floor must be in (0, 0.5), got {self.ber_floor}"
            )

    # -- public API --------------------------------------------------------
    def analyze(self, pulse: PulseResponse) -> StatEyeResult:
        """Full statistical eye of one pulse response."""
        if not isinstance(pulse, PulseResponse):
            raise TypeError(
                f"analyze() takes a PulseResponse, got "
                f"{type(pulse).__name__}; use analyze_batch() for batches"
            )
        cursors, phases = self._cursor_tensor([pulse])
        dv, origin, voltages = self._grid(cursors)
        return StatEyeResult(surfaces=self._surfaces(cursors, dv, origin)[0],
                             **self._settings(phases, voltages))

    def analyze_batch(self, pulses: Sequence[PulseResponse], *,
                      chunk_scenarios: Optional[int] = None,
                      keep_surfaces: bool = True) -> StatEyeBatchResult:
        """Statistical eyes of N pulse responses in one vectorized pass.

        The voltage grid is sized once across all scenarios (pin
        ``v_half_span`` for grids independent of the batch contents).
        ``chunk_scenarios`` bounds the working set: the big
        ``(chunk, n_eyes, n_phases, n_voltages)`` intermediates exist
        for one chunk at a time, and with ``keep_surfaces=False`` only
        the ``O(n_scenarios * n_phases)`` summary arrays survive — the
        flat-memory path for very large batches.
        """
        pulses = list(pulses)
        if not pulses:
            raise ValueError("need at least one pulse response")
        if chunk_scenarios is not None and chunk_scenarios < 1:
            raise ValueError(
                f"chunk_scenarios must be >= 1, got {chunk_scenarios}"
            )
        cursors, phases = self._cursor_tensor(pulses)
        dv, origin, voltages = self._grid(cursors)

        step = len(pulses) if chunk_scenarios is None else chunk_scenarios
        parts = []
        for start in range(0, len(pulses), step):
            surfaces = self._surfaces(cursors[start:start + step], dv, origin)
            parts.append(StatEyeBatchResult(
                **_summaries(surfaces, self.modulation, phases, voltages,
                             self.target_ber, self.ber_floor),
                surfaces=surfaces if keep_surfaces else None,
                **self._settings(phases, voltages)))
        return StatEyeBatchResult.concatenate(parts)

    def isi_distribution(self, pulse: PulseResponse
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Diagnostic: the pure ISI voltage PDF per phase.

        Returns ``(voltages, pdf)`` with ``pdf`` of shape
        ``(n_phases, n_voltages)`` — the exact discrete distribution of
        the ISI sum (all cursors except the main one), before noise,
        jitter and the main-cursor conditional shift.  Each row sums to
        1 up to FFT round-off.
        """
        cursors, _ = self._cursor_tensor([pulse])
        dv, origin, voltages = self._grid(cursors)
        spectrum = self._isi_spectrum(cursors, dv)
        pdf = np.roll(np.fft.irfft(spectrum, n=self.n_voltages, axis=-1),
                      origin, axis=-1)[0]
        return voltages, pdf

    def _settings(self, phases: np.ndarray, voltages: np.ndarray) -> dict:
        """The grid and engine fields every result carries."""
        return dict(
            modulation=self.modulation, phases_ui=phases, voltages=voltages,
            noise_rms=self.noise_rms, rj_rms_ui=self.rj_rms_ui,
            dj_pp_ui=self.dj_pp_ui, target_ber=self.target_ber,
            ber_floor=self.ber_floor)

    # -- cursor extraction -------------------------------------------------
    def _cursor_tensor(self, pulses: Sequence[PulseResponse]
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Interpolate every pulse at (phase, cursor-offset) instants.

        Returns ``(cursors, phases_ui)`` with ``cursors`` of shape
        ``(n_scenarios, n_phases, n_cursors)``; column ``n_precursors``
        is the main cursor and phase 0.5 lands exactly on the pulse
        peak (the eye centre).
        """
        n_phases = self.n_phases
        offsets = np.arange(-self.n_precursors, self.n_postcursors + 1)
        phases = np.arange(n_phases) / float(n_phases)
        cursors = np.empty((len(pulses), n_phases, offsets.size))
        for i, pulse in enumerate(pulses):
            if not isinstance(pulse, PulseResponse):
                raise TypeError(
                    f"expected PulseResponse rows, got "
                    f"{type(pulse).__name__}"
                )
            data = np.asarray(pulse.wave.data, dtype=float)
            if data.size < 2:
                raise ValueError("pulse response waveform is too short")
            if not np.isfinite(data).all():
                raise ValueError(
                    "pulse response waveform has non-finite samples")
            spb = pulse.wave.sample_rate / pulse.bit_rate
            peak = int(np.argmax(np.abs(data)))
            positions = peak + (phases[:, None] - 0.5
                                + offsets[None, :]) * spb
            cursors[i] = np.interp(
                positions.ravel(), np.arange(data.size), data,
                left=0.0, right=0.0).reshape(n_phases, offsets.size)
        return cursors, phases

    # -- voltage grid ------------------------------------------------------
    def _grid(self, cursors: np.ndarray) -> Tuple[float, int, np.ndarray]:
        """Voltage-grid step, zero-origin index and grid voltages for a
        cursor tensor.

        The grid must contain the full superposition support plus the
        10-sigma noise tails, or the circular convolution would wrap
        tail mass back into the eye.
        """
        levels = np.asarray(self.modulation.levels, dtype=float)
        level_max = float(np.max(np.abs(levels)))
        reach = level_max * float(np.abs(cursors).sum(axis=-1).max())
        need = reach + 10.0 * self.noise_rms
        origin = self.n_voltages // 2
        side_bins = min(origin, self.n_voltages - 1 - origin)
        if self.v_half_span is not None:
            if self.v_half_span < need:
                raise ValueError(
                    f"v_half_span={self.v_half_span:g} V is too small: "
                    f"the ISI support plus 10-sigma noise tails reach "
                    f"{need:g} V and would wrap around the voltage grid"
                )
            half = self.v_half_span
        else:
            if need <= 0.0:
                raise ValueError(
                    "pulse response is identically zero and noise_rms "
                    "is 0: the statistical eye is undefined"
                )
            half = 1.05 * need
        dv = half / side_bins
        return dv, origin, (np.arange(self.n_voltages) - origin) * dv

    # -- the convolution core ----------------------------------------------
    def _spikes(self, amplitude: np.ndarray, dv: float,
                width: int) -> np.ndarray:
        """Each amplitude's ``L``-spike kernel (one spike per modulation
        level, weight ``1/L``, sum-preserving linear splitting) on a
        wrapped grid of ``width`` bins, value 0 at bin 0:
        ``(amplitude.size, width)``."""
        levels = np.asarray(self.modulation.levels, dtype=float)
        weight = 1.0 / levels.size
        amplitude = amplitude.ravel()
        rows = np.arange(amplitude.size)
        kernel = np.zeros((amplitude.size, width))
        for level in levels:
            position = level * amplitude / dv
            low = np.floor(position).astype(np.int64)
            frac = position - low
            kernel[rows, low % width] += weight * (1.0 - frac)
            kernel[rows, (low + 1) % width] += weight * frac
        return kernel

    def _isi_spectrum(self, cursors: np.ndarray, dv: float) -> np.ndarray:
        """rfft of the exact ISI PDF per (scenario, phase) row.

        Each non-main cursor contributes an ``L``-spike kernel
        (:meth:`_spikes`); the product of their spectra is the spectrum
        of the exact discrete convolution.  Per row, a cursor with
        ``max|level| * |c_k| / dv < 1`` is *sub-bin*: its kernel is 3
        taps at offsets -1, 0, +1.  A row's sub-bin kernels are
        convolved directly into one ``2G + 1`` tap array, folded onto
        the grid modulo ``n_voltages`` (accumulating) and transformed
        once; a cursor wider than a bin is deposited and transformed on
        the rows where it is wide.  Rows skip the factors they do not
        own instead of multiplying in the transform of a delta, so a
        row's spectrum never depends on the rest of its batch.
        """
        n_scen, n_phases, n_cursors = cursors.shape
        m = self.n_voltages
        level_max = float(np.max(np.abs(self.modulation.levels)))
        isi = np.delete(cursors, self.n_precursors, axis=-1).reshape(
            n_scen * n_phases, n_cursors - 1)
        narrow = level_max * np.abs(isi) / dv < 1.0
        spectrum = np.ones((isi.shape[0], m // 2 + 1), dtype=complex)
        grouped = narrow & (isi != 0.0)
        rows = np.flatnonzero(grouped.any(axis=1))
        cols = np.flatnonzero(grouped.any(axis=0))
        if rows.size:
            # Zero amplitude is the exact identity kernel (0, 1, 0).
            amplitude = np.where(grouped, isi, 0.0)[np.ix_(rows, cols)]
            three = self._spikes(amplitude, dv, 3).reshape(
                rows.size, cols.size, 3)
            n_taps = 2 * cols.size + 1
            taps = np.zeros((rows.size, n_taps))
            taps[:, cols.size] = 1.0
            out = np.zeros_like(taps)
            term = np.empty_like(taps)
            for g in range(cols.size):
                # After g factors only the 2g + 1 centre taps can be
                # nonzero, so each step works on its new window and
                # alternates between two buffers.
                center, up, down = three[:, g].T[..., None]
                lo, hi = cols.size - g - 1, cols.size + g + 2
                new, step = out[:, lo:hi], term[:, :hi - lo - 1]
                np.multiply(center, taps[:, lo:hi], out=new)
                new[:, 1:] += np.multiply(up, taps[:, lo:hi - 1], out=step)
                new[:, :-1] += np.multiply(down, taps[:, lo + 1:hi],
                                           out=step)
                taps, out = out, taps
            # Tap j sits at offset j - G: fold it onto bin (j - G) mod m
            # by laying the taps out from bin -G mod m and summing the
            # m-bin blocks (several taps per bin when 2G + 1 > m).
            start = -cols.size % m
            n_blocks = -(-(start + n_taps) // m)
            kernel = np.zeros((rows.size, n_blocks * m))
            kernel[:, start:start + n_taps] = taps
            spectrum[rows] = np.fft.rfft(
                kernel.reshape(rows.size, n_blocks, m).sum(axis=1), axis=-1)
        wide = ~narrow
        for k in np.flatnonzero(wide.any(axis=0)):
            hit = np.flatnonzero(wide[:, k])
            spectrum[hit] *= np.fft.rfft(self._spikes(isi[hit, k], dv, m),
                                         axis=-1)
        return spectrum.reshape(n_scen, n_phases, m // 2 + 1)

    def _jitter_kernel(self) -> Optional[np.ndarray]:
        """Dual-Dirac + Gaussian timing kernel on the wrapped phase
        grid (``None`` when jitter-free)."""
        if self.rj_rms_ui <= 0.0 and self.dj_pp_ui <= 0.0:
            return None
        n = self.n_phases
        kernel = np.zeros(n)
        for offset_ui in (-0.5 * self.dj_pp_ui, 0.5 * self.dj_pp_ui):
            position = offset_ui * n
            low = int(np.floor(position))
            frac = position - low
            kernel[low % n] += 0.5 * (1.0 - frac)
            kernel[(low + 1) % n] += 0.5 * frac
        if self.rj_rms_ui > 0.0:
            offsets = ((np.arange(n) + n // 2) % n) - n // 2
            gauss = np.exp(-0.5 * (offsets / (self.rj_rms_ui * n)) ** 2)
            gauss /= gauss.sum()
            kernel = np.fft.irfft(np.fft.rfft(kernel) * np.fft.rfft(gauss),
                                  n=n)
            np.maximum(kernel, 0.0, out=kernel)
        return kernel / kernel.sum()

    def _surfaces(self, cursors: np.ndarray, dv: float,
                  origin: int) -> np.ndarray:
        """BER(t, v) surfaces for one cursor-tensor chunk:
        ``(n_scenarios, n_eyes, n_phases, n_voltages)``.

        Eye ``e`` is bounded by the upper tail of level ``e`` and the
        lower tail of level ``e + 1``.  On a symmetric alphabet level
        ``n_levels - 1 - li`` is level ``li`` mirrored through the grid
        origin, so one shift factor, ``irfft`` and set of tail sums
        serve both; an asymmetric alphabet computes every level.
        """
        m = self.n_voltages
        levels = np.asarray(self.modulation.levels, dtype=float)
        top = levels.size - 1
        n_scen, n_phases, _ = cursors.shape
        spectrum = self._isi_spectrum(cursors, dv)
        omega = 2.0 * np.pi * np.fft.rfftfreq(m, d=dv)
        if self.noise_rms > 0.0:
            spectrum *= np.exp(-0.5 * (self.noise_rms * omega) ** 2)
        main = cursors[:, :, self.n_precursors]
        # On a symmetric alphabet the ISI and noise PDFs are even, so
        # conditioning on -l gives the PDF of +l mirrored through the
        # grid origin: bin j <-> (2 * origin - j) mod m.  That is a
        # plain reversal on an odd grid; on an even grid bin 0 has no
        # partner and mirrors onto itself (``wrap``).
        paired = bool(np.array_equal(levels, -levels[::-1]))
        wrap = 2 * origin - m + 1
        surfaces = np.zeros((n_scen, top, n_phases, m))
        for li, level in enumerate(levels):
            mate = top - li
            if paired and mate < li:
                continue  # served by its mirror image
            # Conditioning on the transmitted level shifts the ISI+noise
            # distribution by level * main_cursor — a phase factor.
            pdf = np.roll(np.fft.irfft(
                spectrum * _phase_ramp(omega, level * main), n=m, axis=-1),
                origin, axis=-1)
            # The irfft leaves ~1e-17 of zero-mean noise per bin; it is
            # deliberately NOT rectified here — clipping would bias
            # every tail bin positive and the bias would accumulate
            # into a ~1e-15 BER floor.  Left signed, the noise cancels
            # in the tail sums (and the final surface clip restores
            # [0, 0.5]).
            # Both tails are accumulated over the tail bins only (the
            # upper tail as a reverse cumsum, never as 1 - CDF): the
            # round-off then scales with the tail mass itself instead
            # of the distribution bulk, keeping 1e-15..1e-18 BERs real.
            # below[j] = P(X < v_j) and above[j] = P(X >= v_j), padded
            # to m + 1 entries so the mirror can read them backwards.
            mirrored = paired and mate > li
            if li > 0:
                # This level bounds eye li-1 from above: its lower tail
                # P(X <= v) is the probability of slicing below it.
                below = np.empty(pdf.shape[:-1] + (m + 1,))
                below[..., 0] = 0.0
                np.cumsum(pdf, axis=-1, out=below[..., 1:])
                surfaces[:, li - 1] += below[..., 1:]
                if mirrored:
                    # ...and its mirror's upper tail P(-X > v) bounds
                    # eye mate from below.
                    surfaces[:, mate] += below[..., wrap:wrap + m][..., ::-1]
                    if wrap:
                        surfaces[:, mate] -= pdf[..., :wrap]
            if li < top:
                # ...and bounds eye li from below: its upper tail
                # P(X > v), exclusive of the threshold bin.
                above = np.empty(pdf.shape[:-1] + (m + 1,))
                above[..., m] = 0.0
                np.cumsum(pdf[..., ::-1], axis=-1, out=above[..., m - 1::-1])
                surfaces[:, li] += above[..., :m] - pdf
                if mirrored:
                    # ...its mirror's lower tail P(-X <= v) bounds eye
                    # mate-1 from above.
                    surfaces[:, mate - 1] += \
                        above[..., wrap:wrap + m][..., ::-1]
                    if wrap:
                        surfaces[:, mate - 1] += pdf[..., :wrap]
        surfaces *= 0.5
        np.clip(surfaces, 0.0, 0.5, out=surfaces)
        kernel = self._jitter_kernel()
        if kernel is not None:
            # The symbol stream is stationary, so the sampled-voltage
            # distribution is periodic in phase: jitter folds in as a
            # circular convolution along the phase axis, one circulant
            # product per (scenario, eye) surface, taken in voltage
            # blocks that BLAS runs on the calling thread.
            index = np.arange(n_phases)
            circulant = kernel[(index[:, None] - index) % n_phases]
            block = max(1, _SERIAL_PRODUCT_SIZE // n_phases ** 2)
            folded = np.empty_like(surfaces)
            for start in range(0, m, block):
                columns = slice(start, start + block)
                np.matmul(circulant, surfaces[..., columns],
                          out=folded[..., columns])
            surfaces = folded
            np.clip(surfaces, 0.0, 0.5, out=surfaces)
        return surfaces


def _phase_ramp(omega: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """``exp(-1j * omega * offset[..., None])`` on the uniform frequency
    grid ``omega[k] = k * omega[1]``.

    With ``k = a * B + b`` the factor splits into a coarse
    ``exp(-1j * omega[a * B] * offset)`` times a fine
    ``exp(-1j * omega[b] * offset)``, so a row costs about
    ``2 * sqrt(len(omega))`` complex exponentials instead of
    ``len(omega)``.
    """
    n = omega.size
    fine = int(np.ceil(np.sqrt(n)))
    x = offset[..., None]
    ramp = (np.exp(-1j * omega[::fine] * x)[..., :, None]
            * np.exp(-1j * omega[:fine] * x)[..., None, :])
    return ramp.reshape(offset.shape + (-1,))[..., :n]

