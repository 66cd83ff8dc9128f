"""Inter-symbol-interference analysis via pulse responses.

The channel experiments (Figs 15/16) are all about ISI: a lossy trace
smears each bit into its neighbours.  The single-bit *pulse response*
makes this quantitative without simulating long patterns:

* the **cursor** is the pulse sample at the decision instant;
* **pre/post-cursors** are the samples one UI apart — the interference
  a bit inflicts on its neighbours;
* **peak-distortion analysis** bounds the worst-case eye opening as
  ``cursor - sum(|other cursors|)`` — the classical conservative eye
  estimate, negative when ISI alone can close the eye.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
from typing import List, Optional, Tuple

import numpy as np

from ..lti.blocks import Block
from ..signals.batch import WaveformBatch, _apply_processor
from ..signals.modulation import Modulation
from ..signals.nrz import bits_to_nrz
from ..signals.waveform import Waveform
from ..sweep.checkpoint import content_digest

__all__ = ["PulseResponse", "pulse_response", "pulse_response_batch"]


@dataclasses.dataclass(frozen=True)
class PulseResponse:
    """A single-bit response sampled at UI spacing.

    ``cursors[cursor_index]`` is the main tap; entries before/after are
    pre-/post-cursor ISI taps.
    """

    wave: Waveform
    bit_rate: float
    cursors: np.ndarray
    cursor_index: int

    @classmethod
    def from_waveform(cls, wave: Waveform,
                      bit_rate: float) -> "PulseResponse":
        """Interpret an already-measured (baseline-free) response.

        ``wave`` must be the system's response to a lone unit pulse
        with the baseline removed.  Cursors
        are sampled at UI spacing through the peak, exactly as
        :func:`pulse_response` does.
        """
        data = np.asarray(wave.data, dtype=float)
        if data.size < 2:
            raise ValueError("pulse waveform needs at least 2 samples")
        ratio = wave.sample_rate / bit_rate
        spb = int(round(ratio))
        if spb < 2 or abs(ratio - spb) > 1e-9 * spb:
            raise ValueError(
                f"sample rate must be an integer multiple (>= 2) of the "
                f"bit rate, got {ratio:g} samples per UI"
            )
        peak = int(np.argmax(np.abs(data)))
        offset = peak % spb
        return cls(wave=wave, bit_rate=bit_rate,
                   cursors=np.asarray(data[offset::spb]),
                   cursor_index=peak // spb)

    @property
    def main_cursor(self) -> float:
        """The decision-instant amplitude."""
        return float(self.cursors[self.cursor_index])

    def precursors(self) -> np.ndarray:
        """ISI taps before the main cursor."""
        return self.cursors[: self.cursor_index]

    def postcursors(self) -> np.ndarray:
        """ISI taps after the main cursor."""
        return self.cursors[self.cursor_index + 1:]

    def isi_sum(self, modulation: Optional[Modulation] = None) -> float:
        """Worst-case peak-to-peak ISI excursion of the sampled voltage.

        With normalized levels spanning ``span = max - min`` (1.0 for
        the shipped alphabets), each non-main tap ``c`` contributes at
        most ``span * |c|`` peak to peak, so the total is
        ``span * sum|others|`` — for two-level NRZ exactly the
        historical ``sum|others|``.
        """
        others = np.concatenate([self.precursors(), self.postcursors()])
        total = float(np.sum(np.abs(others)))
        if modulation is None:
            return total
        levels = np.asarray(modulation.levels, dtype=float)
        return float(levels.max() - levels.min()) * total

    def worst_case_opening(self,
                           modulation: Optional[Modulation] = None) -> float:
        """Peak-distortion eye bound (can be < 0 when ISI closes it).

        For each sub-eye the separation of its two adjacent levels is
        eroded by the full peak-to-peak ISI excursion:
        ``sep_e * main - isi_sum(modulation)``; the bound is the
        narrowest sub-eye's.  A PAM4 inner eye starts with one third of
        the NRZ separation but suffers the *same* ISI excursion, which
        the historical two-level formula (``modulation=None``, exactly
        ``main - sum|others|``) misses.
        """
        if modulation is None:
            return self.main_cursor - self.isi_sum()
        levels = np.asarray(modulation.levels, dtype=float)
        min_sep = float(np.min(np.diff(levels)))
        return min_sep * self.main_cursor - self.isi_sum(modulation)

    def isi_ratio_db(self) -> float:
        """Main cursor over total ISI in dB (higher = cleaner)."""
        isi = self.isi_sum()
        if isi == 0:
            return float("inf")
        return 20.0 * float(np.log10(self.main_cursor / isi))


def pulse_response(system: Block, bit_rate: float,
                   samples_per_bit: int = 32, n_lead_bits: int = 8,
                   n_lag_bits: int = 24,
                   amplitude: float = 1.0) -> PulseResponse:
    """Measure a system's single-bit pulse response.

    Sends ``...0001000...`` (a lone one), removes the system's response
    to the all-zero baseline, and samples at the instant maximizing the
    main cursor: a one-amplitude :func:`pulse_response_batch`, so it
    shares that function's memo (same key, same limits).
    """
    return pulse_response_batch(system, bit_rate, [amplitude],
                                samples_per_bit=samples_per_bit,
                                n_lead_bits=n_lead_bits,
                                n_lag_bits=n_lag_bits)[0]


def pulse_response_batch(system: Block, bit_rate: float,
                         amplitudes, samples_per_bit: int = 32,
                         n_lead_bits: int = 8,
                         n_lag_bits: int = 24) -> List[PulseResponse]:
    """Pulse responses at several stimulus amplitudes in one batched pass.

    Builds the lone-one stimulus and the all-zero baseline for every
    amplitude, pushes them through ``system`` as one batch (a block's
    ``process``, or ``system`` itself when it is a batch callable; both
    must be batch-transparent), and extracts one :class:`PulseResponse`
    per amplitude — the nonlinear-compression view of ISI across a
    drive range without re-running the pipeline per point.

    **Memo.**  The responses of the last 16 distinct calls are kept, so
    repeated queries on an unchanged link (a statistical eye swept over
    noise and jitter) simulate it once.  The key is a digest of the
    system's *content* and of every argument
    (:func:`~repro.sweep.checkpoint.content_digest`): one pickle pass
    over ``system`` with functions and lambdas reduced to their code
    (bytecode, the names it loads, constants), defaults and closure
    contents, and bound methods to their function and ``self``, all
    pickled by content in turn.  A field mutated in place, however
    deeply nested (behind a ``session.process`` stage too), a lambda
    calling another function or a closure holding another constant
    therefore misses.  A class is keyed by its identity in this
    process, not by its source: a redefined class (same name, new
    ``process``) misses.  The limit is that what a class or function
    reaches through module globals is not in the key.  Only what
    ``system`` holds is keyed: pass the chain alone (as
    :meth:`~repro.link.LinkSession.statistical_eye` does, a partial of
    the chain loop over its stages), and links that differ only in
    what runs after the chain share one entry.  A system that cannot
    be pickled (or whose pickling raises anything else) is simulated
    on every call.  The key is in-process only; sweep journals use
    :func:`~repro.sweep.checkpoint.journal_key`, the same reduction
    made stable across processes.  Each call returns fresh arrays, so
    a caller writing into one cannot change a later result, and the
    memo holds no reference to ``system``.
    """
    amplitudes = list(amplitudes)
    if not amplitudes:
        raise ValueError("need at least one amplitude")
    if n_lead_bits < 2 or n_lag_bits < 2:
        raise ValueError("need at least 2 lead and lag bits")
    key = content_digest((system, bit_rate, amplitudes, samples_per_bit,
                           n_lead_bits, n_lag_bits))
    with _PULSE_LOCK:
        entry = _PULSES.get(key)
        if entry is not None:
            _PULSES.move_to_end(key)
    if entry is None:
        entry = _simulate_pulses(system, bit_rate, amplitudes,
                                 samples_per_bit, n_lead_bits, n_lag_bits)
        if key is not None:
            with _PULSE_LOCK:
                _PULSES[key] = entry
                while len(_PULSES) > _PULSE_ENTRIES:
                    _PULSES.popitem(last=False)
    responses, sample_rate = entry
    return [PulseResponse.from_waveform(Waveform(row, sample_rate), bit_rate)
            for row in responses.copy()]


#: Memo of :func:`pulse_response_batch`: content digest → (read-only
#: ``(n_amplitudes, n_samples)`` responses, sample rate), least
#: recently used first.
_PULSES: "collections.OrderedDict[bytes, Tuple[np.ndarray, float]]" = \
    collections.OrderedDict()
_PULSE_ENTRIES = 16
_PULSE_LOCK = threading.Lock()


def _simulate_pulses(system, bit_rate, amplitudes, samples_per_bit,
                     n_lead_bits, n_lag_bits) -> Tuple[np.ndarray, float]:
    """The lone-one minus all-zero responses, one row per amplitude."""
    lone_one = np.array([0] * n_lead_bits + [1] + [0] * n_lag_bits)
    out = _apply_processor(system, WaveformBatch.stack([
        bits_to_nrz(bits, bit_rate, amplitude=a,
                    samples_per_bit=samples_per_bit)
        for bits in (lone_one, np.zeros_like(lone_one)) for a in amplitudes
    ]))
    responses = out.data[:len(amplitudes)] - out.data[len(amplitudes):]
    responses.flags.writeable = False
    return responses, out.sample_rate
