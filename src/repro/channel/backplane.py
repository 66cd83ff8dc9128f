"""Lossy backplane/PCB-trace channel model.

The paper's motivation (Section I) is that "serial interconnect signals
show a lot of high frequency attenuation, skin loss after propagation
through long PCB trace on the backplane".  The experiments of Figs 15
and 16 need exactly that: a low-pass channel whose loss at the 5 GHz
Nyquist frequency visibly closes an unequalized 10 Gb/s eye.

The model is the standard parametric stripline attenuation

    alpha(f) = k_skin * sqrt(f) + k_dielectric * f      [dB/m]

applied over a trace length, with a *causal* phase response: bulk
propagation delay plus the minimum-phase component implied by the loss
magnitude (computed with the real-cepstrum method).  Causality matters —
a zero-phase low-pass channel would smear energy symmetrically into
pre-cursor ISI that a real trace does not produce.

The paper never specifies its backplane; :data:`FR4_DEFAULT` is a
representative FR-4 stripline (loss tangent ~0.02) and the default
20-inch (0.5 m) length gives ~13 dB loss at 5 GHz — a typical mid-2000s
switch-fabric path.

The impulse response is applied by FFT convolution with ``numpy.fft``
at the 5-smooth length ``scipy.fft.next_fast_len`` would pick, so
importing the channel loads no scipy package.  On numpy 2.x, whose FFT
is the same pocketfft code as ``scipy.fft``, every sample is
bit-identical to the ``scipy.fft`` convolution; numpy 1.x has an older
FFT and agrees to round-off.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from ..lti.blocks import Block
from ..signals.waveform import Waveform

__all__ = ["ChannelParameters", "FR4_DEFAULT", "BackplaneChannel"]

_SPEED_OF_LIGHT = 2.998e8


@dataclasses.dataclass(frozen=True)
class ChannelParameters:
    """Per-metre loss model of a PCB trace.

    Parameters
    ----------
    k_skin:
        Skin-effect (conductor) loss coefficient in dB/(m*sqrt(Hz)).
    k_dielectric:
        Dielectric loss coefficient in dB/(m*Hz).
    dielectric_constant:
        Effective relative permittivity (sets propagation velocity).
    """

    k_skin: float
    k_dielectric: float
    dielectric_constant: float = 4.2

    def __post_init__(self) -> None:
        if self.k_skin < 0 or self.k_dielectric < 0:
            raise ValueError("loss coefficients must be non-negative")
        if self.dielectric_constant < 1.0:
            raise ValueError(
                f"dielectric constant must be >= 1, got {self.dielectric_constant}"
            )

    def attenuation_db_per_m(self, freq_hz: np.ndarray) -> np.ndarray:
        """alpha(f) in dB/m at the given frequencies (>= 0)."""
        f = np.abs(np.asarray(freq_hz, dtype=float))
        return self.k_skin * np.sqrt(f) + self.k_dielectric * f

    @property
    def velocity(self) -> float:
        """Propagation velocity c/sqrt(eps_r) in m/s."""
        return _SPEED_OF_LIGHT / math.sqrt(self.dielectric_constant)


#: Representative FR-4 stripline: ~2.5 dB/m at 1 GHz dielectric-dominated
#: loss, modest skin term — 0.5 m gives ~13 dB at 5 GHz.
FR4_DEFAULT = ChannelParameters(
    k_skin=2.5e-5,          # dB/(m*sqrt(Hz))  -> 0.8 dB/m/sqrt(GHz)
    k_dielectric=5.0e-9,    # dB/(m*Hz)        -> 5 dB/m/GHz
    dielectric_constant=4.2,
)


@dataclasses.dataclass
class BackplaneChannel(Block):
    """A length of lossy trace, usable directly as a pipeline block.

    Parameters
    ----------
    length_m:
        Physical trace length in metres.
    params:
        Loss model; defaults to :data:`FR4_DEFAULT`.
    include_delay:
        When False the bulk propagation delay is removed (keeps eyes
        aligned with the transmit clock in benches); the dispersive
        minimum-phase component is always kept.
    """

    length_m: float
    params: ChannelParameters = FR4_DEFAULT
    include_delay: bool = False
    name: str = "backplane"

    def __post_init__(self) -> None:
        if self.length_m < 0:
            raise ValueError(f"length must be >= 0, got {self.length_m}")

    # -- frequency-domain description ---------------------------------------
    def loss_db(self, freq_hz: np.ndarray) -> np.ndarray:
        """Total insertion loss (positive dB) at the given frequencies."""
        return self.params.attenuation_db_per_m(freq_hz) * self.length_m

    def s21_db(self, freq_hz: np.ndarray) -> np.ndarray:
        """|S21| in dB (negative-going)."""
        return -self.loss_db(freq_hz)

    def magnitude(self, freq_hz: np.ndarray) -> np.ndarray:
        """Linear |H(f)|."""
        return 10.0 ** (-self.loss_db(freq_hz) / 20.0)

    def nyquist_loss_db(self, bit_rate: float) -> float:
        """Loss at the NRZ Nyquist frequency (bit_rate / 2)."""
        if bit_rate <= 0:
            raise ValueError(f"bit_rate must be positive, got {bit_rate}")
        return float(self.loss_db(np.array([bit_rate / 2.0]))[0])

    @property
    def propagation_delay(self) -> float:
        """Bulk delay length/velocity in seconds."""
        return self.length_m / self.params.velocity

    # -- time-domain application -------------------------------------------
    def frequency_response(self, freq_hz: np.ndarray) -> np.ndarray:
        """Complex H(f) on an arbitrary grid: |H| plus the bulk-delay phase.

        The minimum-phase dispersion that :meth:`process` applies is not
        included; this is adequate for plotting magnitude and delay.
        """
        freq_hz = np.asarray(freq_hz, dtype=float)
        phase = np.zeros_like(freq_hz)
        if self.include_delay:
            phase = phase - 2.0 * np.pi * freq_hz * self.propagation_delay
        return self.magnitude(freq_hz) * np.exp(1j * phase)

    def process(self, wave: Waveform) -> Waveform:
        """Pass a waveform through the channel (linear convolution).

        The channel's minimum-phase impulse response is applied by
        *linear* convolution, so the long skin-effect tail never wraps
        around.  The link is assumed to have idled at the waveform's
        first value before time zero (steady state), so no artificial
        start-up step appears.

        A :class:`~repro.signals.batch.WaveformBatch` is convolved along
        its sample axis in one pass, each row idling at its own first
        value.
        """
        if self.length_m == 0:
            return wave
        data = wave.data
        n = data.shape[-1]
        if n == 0:
            return wave
        x0 = data[..., :1]
        n_conv, spectrum, dc_gain = _channel_spectrum(
            self.params, self.length_m, self.include_delay, wave.dt, n)
        filtered = np.fft.irfft(
            np.fft.rfft(data - x0, n=n_conv, axis=-1) * spectrum,
            n=n_conv, axis=-1)[..., :n]
        return wave.with_data(filtered + x0 * dc_gain)

    # -- convenience ---------------------------------------------------------
    def scaled_to_loss(self, target_db: float, at_hz: float
                       ) -> "BackplaneChannel":
        """A channel of the length that produces ``target_db`` at ``at_hz``.

        Benches use this to dial in "a channel with N dB of Nyquist loss"
        without caring about physical length.
        """
        if target_db < 0:
            raise ValueError(f"target loss must be >= 0, got {target_db}")
        per_m = float(self.params.attenuation_db_per_m(np.array([at_hz]))[0])
        if per_m == 0:
            raise ValueError("channel parameters give zero loss; cannot scale")
        return dataclasses.replace(self, length_m=target_db / per_m)


@functools.lru_cache(maxsize=16)
def _channel_spectrum(params: ChannelParameters, length_m: float,
                      include_delay: bool, dt: float, n: int
                      ) -> tuple[int, np.ndarray, float]:
    """``(n_conv, H, dc_gain)`` with which :meth:`BackplaneChannel.process`
    filters an ``n``-sample waveform.

    The minimum-phase impulse response ``h`` is synthesized with the
    real-cepstrum method (the folded cepstrum of log|H| gives the unique
    minimum-phase spectrum with that magnitude; an optional bulk delay is
    layered on top) on a power-of-two grid at least 4x the signal length
    and >= 2^13 samples, so the loss curve is resolved and the tail
    decays inside the grid.  Output sample ``k < n`` depends only on
    ``h[:k + 1]``, so ``H`` is the spectrum of ``h[:n]`` at the shortest
    fast real-FFT length ``n_conv >= 2n - 1`` (no wrap-around).  The idle
    level before time zero passes through every tap, so ``dc_gain`` sums
    the full ``h``.

    The cache is module-level and keyed on every input rather than held
    per channel, so channels rebuilt by ``scaled_to_loss`` or a sweep
    still hit it and a mutated channel never reads a stale entry.  Its
    array is shared, hence read-only.
    """
    channel = BackplaneChannel(length_m, params, include_delay)
    n_fft = 1 << max(13, int(math.ceil(math.log2(max(n, 2)))) + 2)
    freq = np.fft.rfftfreq(n_fft, d=dt)
    log_mag_half = np.log(np.maximum(channel.magnitude(freq), 1e-12))
    # Fold the cepstrum of the full (hermitian) log-magnitude spectrum.
    cepstrum = np.fft.ifft(np.concatenate([log_mag_half,
                                           log_mag_half[-2:0:-1]])).real
    half = n_fft // 2
    folded = np.zeros_like(cepstrum)
    folded[0] = cepstrum[0]
    folded[1:half] = 2.0 * cepstrum[1:half]
    folded[half] = cepstrum[half]
    h_min = np.exp(np.fft.fft(folded))[: len(freq)]
    if include_delay:
        h_min = h_min * np.exp(-2j * np.pi * freq * channel.propagation_delay)
    h = np.fft.irfft(h_min, n=n_fft)
    n_conv = _fast_real_fft_length(2 * n - 1)
    spectrum = np.fft.rfft(h[:n], n=n_conv)
    spectrum.flags.writeable = False
    return n_conv, spectrum, float(np.sum(h))


def _fast_real_fft_length(target: int) -> int:
    """The smallest ``2**a * 3**b * 5**c >= target``.

    This is the length ``scipy.fft.next_fast_len(target, real=True)``
    returns, and the channel's results depend on it: every sample of
    :meth:`BackplaneChannel.process` changes with the convolution length.
    For each ``3**b * 5**c`` below the best length so far, the smallest
    power-of-two multiple that reaches ``target`` is a candidate.
    """
    best = 1 << (target - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-target // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best
