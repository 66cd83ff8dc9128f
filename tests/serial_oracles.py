"""Scalar reference loops: the independent oracles for row parity.

The library runs the bang-bang CDR, its lock detector and the DFE in
one batched kernel each (:mod:`repro.kernels`); a single waveform is a
batch of one.  A test that compared a batch row with a one-row call
would compare the kernel with itself, so the parity tests compare
against the scalar loops kept here instead.  Each loop advances one
waveform one bit at a time with plain Python scalars, in the same
floating-point expression order as the kernels, so a kernel row must
match it bit for bit:

* :class:`SerialCdr` — the scalar bang-bang loop (Alexander votes
  through :func:`vote_step`, proportional + integral update, cycle-slip
  wrap) and its scalar lock detector;
* :func:`detect_lock_batch` — the batched lock detector with its
  window peak-to-peak taken over every window in full (``np.ptp`` of a
  sliding-window view, O(n * window)), which the library's O(n)
  running-extrema form must match index for index;
* :class:`SerialDfe` — the scalar decision-feedback loop for a
  :class:`~repro.baselines.DecisionFeedbackEqualizer`'s geometry;
* :func:`run_link` — the framed link (8b/10b serialize, analog path,
  scalar CDR, deserialize) for one waveform;
* :func:`serial_sweep` — a :class:`~repro.sweep.SweepRunner`'s grid
  walked one scenario at a time, the loop the batched sweep replaces;
* :func:`eye_diagram`, :func:`eye_quality_metric`, :func:`ber_from_eye`
  and :func:`pulse_response` — the
  per-waveform measurement layer above the eye fold: ``eye_diagram``
  resamples a non-integer samples/UI waveform on its own before
  folding, ``ber_from_eye`` converts Q to BER in scalar Python and
  ``pulse_response`` pushes single waveforms, not a batch, through the
  system.  The fold itself is pinned separately, against a frozen
  scalar eye in ``test_eye_oracle.py``;
* :func:`adapt_equalizer` / :func:`adapt_peaking` — the knob searches
  scored candidate by candidate through :meth:`ScalarKnobSearch.maximize
  <repro.core.ScalarKnobSearch.maximize>`;
* :func:`isi_spectrum` / :func:`isi_pdf` — the statistical eye's ISI
  spectrum as one full-grid deposit and ``rfft`` per cursor, multiplied
  up, with no sub-bin grouping.  The engine matches it to FFT
  round-off, not bit for bit;
* :func:`stateye_surfaces` — the statistical eye's BER surfaces with
  one shift, ``irfft`` and tail pair per modulation level (no mirrored
  level pairs) and jitter folded through an ``rfft``/``irfft`` pair;
* :class:`SerialStatEye` — the statistical eye's summaries (optimum,
  bathtubs, contours, heights, widths) of one
  :class:`~repro.stateye.StatEyeResult`, phase by phase, with the
  scalar run walk :func:`open_run` and the scalar tie rule
  :func:`flat_center_argmin`.  The stack functions must match it bit
  for bit.

Tests import this module by name (``tests/`` is on ``sys.path`` under
pytest); benchmarks add ``tests/`` to the path first.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.ber import ber_from_q_factors
from repro.analysis.eye import EyeDiagram
from repro.analysis.isi import PulseResponse
from repro.baselines.dfe import inner_eye_height_from_corrected
from repro.cdr import CdrConfig, CdrResult
from repro.core.adaptation import (
    AdaptationResult,
    ScalarKnobSearch,
    _training_wave,
)
from repro.core.interface import build_input_interface, build_output_interface
from repro.serdes.encoding import CodingError
from repro.serdes.serializer import (
    Deserializer,
    LinkReport,
    _serialize_payload,
)
from repro.signals.batch import WaveformBatch
from repro.signals.modulation import Modulation
from repro.signals.nrz import bits_to_nrz
from repro.signals.waveform import Waveform, sample_uniform
from repro.sweep import SweepResult


def vote_step(previous_data: np.ndarray, samples_edge: np.ndarray,
              samples_data: np.ndarray) -> np.ndarray:
    """One Alexander vote per row from aligned A/T/B samples: +1 EARLY
    (T agrees with A), -1 LATE (T agrees with B), 0 without a
    transition.  A sample counts high at or above zero, so NaN counts
    low (the kernels' slicer convention)."""
    a, t, b = (np.where(np.asarray(v, dtype=float) >= 0.0, 1.0, -1.0)
               for v in (previous_data, samples_edge, samples_data))
    transition = a != b
    votes = np.zeros(np.shape(t), dtype=np.int8)
    votes[transition & (t == a)] = 1
    votes[transition & (t == b)] = -1
    return votes


class SerialCdr:
    """The scalar reference of :class:`repro.cdr.BangBangCdr`."""

    def __init__(self, config: CdrConfig):
        self.config = config

    def _usable_bits(self, duration: float, n_bits: int | None) -> int:
        total_bits = int(duration / (1.0 / self.config.bit_rate)) - 2
        if n_bits is not None:
            total_bits = min(total_bits, n_bits)
        if total_bits < 16:
            raise ValueError(
                f"waveform too short for CDR: {total_bits} usable bits"
            )
        return total_bits

    def recover(self, wave: Waveform, n_bits: int | None = None
                ) -> CdrResult:
        """Run the loop over a waveform and return decisions + tracking.

        The sampler interpolates the waveform at the recovered instants;
        data and edge samples alternate half a UI apart, Alexander votes
        update the loop once per bit.
        """
        config = self.config
        ui = 1.0 / config.bit_rate
        total_bits = self._usable_bits(wave.duration, n_bits)
        thresholds = config.decision_thresholds()
        center = float(thresholds[(len(thresholds) - 1) // 2])

        data = wave.data
        t0 = wave.t0
        sample_rate = wave.sample_rate
        t_last = wave.time[-1]
        phase = config.initial_phase_ui
        integral = config.initial_frequency_ppm * 1e-6
        bit_offset = 0
        slips = 0

        decisions = np.zeros(total_bits, dtype=np.int8)
        phases = np.empty(total_bits)
        votes = np.zeros(total_bits, dtype=np.int8)
        previous_data_sample = None
        previous_edge_sample = None

        for k in range(total_bits):
            t_data = (k + 0.5 + bit_offset + phase) * ui
            t_edge = (k + 1.0 + bit_offset + phase) * ui
            if t_edge >= t_last:
                total_bits = k
                decisions = decisions[:k]
                phases = phases[:k]
                votes = votes[:k]
                break
            sample_data = float(sample_uniform(data, t0, sample_rate,
                                               t_data))
            sample_edge = float(sample_uniform(data, t0, sample_rate,
                                               t_edge))
            # Nearest-level slice: count of thresholds strictly below
            # the sample.  For NRZ ([0.0]) this is the historical
            # ``1 if sample > 0 else 0`` sign slicer, bit for bit.
            symbol = 0
            for threshold in thresholds:
                if sample_data > threshold:
                    symbol += 1
            decisions[k] = symbol
            phases[k] = phase

            if previous_data_sample is not None:
                # Alexander vote at the middle-eye threshold (the 0 V
                # guard keeps the NRZ fast path untouched; subtracting
                # an exact 0.0 could not change the votes anyway).
                if center != 0.0:
                    vote = int(vote_step(
                        np.array([previous_data_sample - center]),
                        np.array([previous_edge_sample - center]),
                        np.array([sample_data - center]),
                    )[0])
                else:
                    vote = int(vote_step(
                        np.array([previous_data_sample]),
                        np.array([previous_edge_sample]),
                        np.array([sample_data]),
                    )[0])
                votes[k] = vote
                integral = integral + config.ki * vote
                phase = phase + (config.kp * vote + integral)
                # A wrap across +-1 UI is a cycle slip: fold the whole
                # bit into the index offset so the sampling instant (and
                # therefore the decision sequence) stays continuous, and
                # count it.
                if phase > 1.0:
                    phase -= 1.0
                    bit_offset += 1
                    slips += 1
                elif phase < -1.0:
                    phase += 1.0
                    bit_offset -= 1
                    slips -= 1
            previous_data_sample = sample_data
            previous_edge_sample = sample_edge

        locked_at = self._detect_lock(phases)
        return CdrResult(decisions=decisions, phase_track_ui=phases,
                         votes=votes, locked_at_bit=locked_at,
                         slips=slips)

    @staticmethod
    def _detect_lock(phases: np.ndarray, window: int = 64,
                     tolerance_ui: float = 0.05) -> int:
        """First bit index after which the phase stays within a band.

        A window is a candidate when its peak-to-peak wander is inside
        ``tolerance_ui`` AND the whole remaining track stays within
        twice that band (the loop must not wander off later).  Both
        scans run as vectorized sliding-window / suffix reductions.
        """
        n = len(phases)
        if n < 2 * window:
            return -1
        windows = np.lib.stride_tricks.sliding_window_view(phases, window)
        window_ptp = np.ptp(windows, axis=-1)[: n - window]
        suffix_max = np.maximum.accumulate(phases[::-1])[::-1]
        suffix_min = np.minimum.accumulate(phases[::-1])[::-1]
        suffix_ptp = (suffix_max - suffix_min)[: n - window]
        hits = np.nonzero((window_ptp < tolerance_ui)
                          & (suffix_ptp < 2 * tolerance_ui))[0]
        return int(hits[0]) if len(hits) else -1


class SerialDfe:
    """The scalar reference of
    :class:`repro.baselines.DecisionFeedbackEqualizer`: reads the taps
    and slicer geometry of ``dfe``, runs its own loop."""

    def __init__(self, dfe):
        self.taps = np.asarray(dfe.taps, dtype=float)
        self.bit_rate = dfe.bit_rate
        self.sample_phase_ui = dfe.sample_phase_ui
        self.decision_thresholds = dfe.decision_thresholds
        self.decision_levels = dfe.decision_levels

    def _n_bits(self, n_samples: int, ui_samples: float) -> int:
        """Decidable bits: every UI whose sampling instant
        ``(k + sample_phase_ui) * ui_samples`` lies on the sample grid.

        ``int((n_samples - 1) / ui_samples)`` — the old formula —
        silently dropped the final UI when the waveform ends exactly on
        a bit boundary: its mid-UI sampling instant is on the grid even
        though the boundary itself is one sample past it.
        """
        n_bits = int(np.floor((n_samples - 1) / ui_samples
                              - self.sample_phase_ui)) + 1
        if n_bits < len(self.taps) + 4:
            raise ValueError("waveform too short for the tap count")
        return n_bits

    def equalize(self, wave: Waveform) -> Tuple[np.ndarray, np.ndarray]:
        """Run the DFE over a waveform.

        Returns ``(decisions, corrected_samples)``: the sliced symbols
        (level indices; 0/1 bits for NRZ) and the ISI-corrected analog
        samples at the decision instants (the quantity whose histogram
        is the DFE's "inner eye").
        """
        ui_samples = wave.sample_rate / self.bit_rate
        n_bits = self._n_bits(len(wave), ui_samples)
        thresholds = self.decision_thresholds
        levels = self.decision_levels
        decisions = np.zeros(n_bits, dtype=np.int8)
        corrected = np.zeros(n_bits)
        history = np.zeros(len(self.taps))  # previous decided values
        data = wave.data
        for k in range(n_bits):
            index = (k + self.sample_phase_ui) * ui_samples
            # The shared interpolation kernel clamps at the grid edge,
            # guarding the last-sample instant against float round-up.
            raw = float(sample_uniform(data, 0.0, 1.0, index))
            # Tap-index-order accumulation: the exact summation order
            # of the DFE kernel, so its rows match bit for bit at any
            # tap count.
            feedback = 0.0
            for weight, past in zip(self.taps, history):
                feedback += weight * past
            value = raw - feedback
            corrected[k] = value
            # Nearest-level slice: count of thresholds strictly below
            # the value.  For NRZ ([0.0]) this is the historical
            # ``1 if value > 0 else 0`` sign slicer, bit for bit.
            symbol = 0
            for threshold in thresholds:
                if value > threshold:
                    symbol += 1
            decisions[k] = symbol
            history = np.roll(history, 1)
            history[0] = levels[symbol]
        return decisions, corrected

    def inner_eye_height(self, wave: Waveform,
                         skip_bits: int = 16) -> float:
        """Worst-case vertical opening of the corrected samples
        (worst sub-eye for multi-level modulations)."""
        _, corrected = self.equalize(wave)
        return float(inner_eye_height_from_corrected(
            corrected, skip_bits, thresholds=self.decision_thresholds))


def detect_lock_batch(phases: np.ndarray, row_bits: np.ndarray,
                      window: int = 64,
                      tolerance_ui: float = 0.05) -> np.ndarray:
    """First bit index after which each row's phase stays in a band,
    every window's peak-to-peak taken in full; the contract is
    :meth:`repro.cdr.BangBangCdr._detect_lock_batch`'s."""
    n_rows, total_bits = phases.shape
    row_bits = np.asarray(row_bits, dtype=np.int64)
    locked = np.full(n_rows, -1, dtype=np.int64)
    if total_bits < 2 * window:
        return locked
    windows = np.lib.stride_tricks.sliding_window_view(
        phases, window, axis=-1)
    window_ptp = np.ptp(windows, axis=-1)
    suffix_max = np.fmax.accumulate(phases[:, ::-1], axis=-1)[:, ::-1]
    suffix_min = np.fmin.accumulate(phases[:, ::-1], axis=-1)[:, ::-1]
    n_windows = window_ptp.shape[1]
    suffix_ptp = (suffix_max - suffix_min)[:, :n_windows]
    columns = np.arange(n_windows)[np.newaxis, :]
    valid = (columns < (row_bits - window)[:, np.newaxis]) \
        & (row_bits >= 2 * window)[:, np.newaxis]
    hits = (window_ptp < tolerance_ui) \
        & (suffix_ptp < 2 * tolerance_ui) & valid
    any_hit = hits.any(axis=1)
    locked[any_hit] = np.argmax(hits[any_hit], axis=1)
    return locked


def run_link(payload: bytes,
             analog_path: Callable[[Waveform], Waveform],
             bit_rate: float = 10e9,
             samples_per_bit: int = 16,
             amplitude: float = 0.25,
             cdr_kp: float = 4e-3,
             training_commas: int = 40,
             training_bytes: int = 8,
             use_last_comma: bool = False) -> LinkReport:
    """Run bytes through serializer -> analog path -> CDR -> deserializer.

    ``analog_path`` is any waveform transform: an output interface, a
    channel, an input interface, or their composition.

    ``training_commas`` sets the K28.5 preamble length; it must outlast
    the CDR's lock time (a bang-bang loop with kp = 4 mUI pulls in from
    a worst-case half-UI offset in ~0.5/kp ~ 125 bits, plus settling —
    the 40-comma/400-bit default covers it, mirroring the training
    sequences real link protocols send).  ``training_bytes`` adds
    throwaway data bytes after the comma burst: the loop's lock point
    shifts slightly between the transition-dense comma pattern and
    ISI-shaped data, and the pad absorbs the re-settle.
    """
    wave = _serialize_payload(payload, bit_rate, samples_per_bit,
                              amplitude, training_commas, training_bytes)
    received = analog_path(wave)

    cdr = SerialCdr(CdrConfig(bit_rate=bit_rate, kp=cdr_kp))
    result = cdr.recover(received)
    deserializer = Deserializer(use_last_comma=use_last_comma)
    try:
        decoded = deserializer.deserialize(result.decisions)
        decoded = decoded[training_bytes:]  # strip the settle pad
    except CodingError:
        decoded = b""
    jitter = (result.recovered_jitter_ui() if result.is_locked else
              float("nan"))
    return LinkReport(
        payload_sent=payload,
        payload_received=decoded,
        bits_recovered=len(result.decisions),
        cdr_locked=result.is_locked,
        recovered_jitter_ui=jitter,
        cdr_slips=result.slips,
    )


def serial_sweep(runner, measure_row: Optional[Callable[[Waveform, Dict],
                                                        Any]] = None
                 ) -> SweepResult:
    """Walk ``runner``'s grid one scenario at a time, in canonical order.

    Each structural point's pipeline is built once (as any careful
    hand-written loop would); every scenario then runs alone: its
    stimulus goes through the pipeline as a one-row batch and is
    measured by ``runner.measure`` as a one-row batch, or by
    ``measure_row(wave, params)`` on the processed waveform when given
    (e.g. a scalar oracle above).  Row ``i`` of ``runner.run()`` must
    match row ``i`` here.  No chunks, faults, retries or journal.
    Reducers fold one partial per structural point, merged in
    structural order.
    """
    grid = runner.grid
    processors: Dict[tuple, Any] = {}
    groups: Dict[tuple, Tuple[list, list]] = {}
    params, results = [], []
    for index in np.ndindex(*grid.shape):
        point = {axis.name: axis.values[i]
                 for axis, i in zip(grid.axes, index)}
        key = tuple(i for axis, i in zip(grid.axes, index)
                    if axis.structural)
        if key not in processors:
            structural = {axis.name: point[axis.name]
                          for axis in grid.structural_axes()}
            processors[key] = (runner.build(structural)
                               if runner.build is not None else None)
        processor = processors[key]
        wave = runner.stimulus(point)
        out = WaveformBatch(wave.data[np.newaxis, :], wave.sample_rate,
                            t0=wave.t0)
        if processor is not None:
            out = getattr(processor, "process", processor)(out)
        if measure_row is not None:
            value = measure_row(out[0], point)
        elif runner.measure is not None:
            value = runner.measure(out, [point])[0]
        else:
            value = out[0]
        group_values, group_params = groups.setdefault(key, ([], []))
        group_values.append(value)
        group_params.append(point)
        params.append(point)
        results.append(value)
    aggregates = None
    if runner.reducers is not None:
        aggregates = runner._finalize_aggregates(
            runner._reduce_unit(*groups[key]) for key in sorted(groups))
    if not runner.keep_results:
        params = results = None
    return SweepResult(grid=grid, params=params, results=results,
                       aggregates=aggregates)


def eye_diagram(wave: Waveform, bit_rate: float, skip_ui: int = 8,
                modulation: Optional[Modulation] = None) -> EyeDiagram:
    """Fold one waveform, first resampling a rate that is not a whole
    multiple of ``bit_rate`` to ``max(8, ceil(samples/UI))`` per UI."""
    samples_per_ui = wave.sample_rate / bit_rate
    if abs(samples_per_ui - round(samples_per_ui)) > 1e-6:
        target = bit_rate * max(8, int(math.ceil(samples_per_ui)))
        wave = wave.resampled(target)
    return EyeDiagram(wave, bit_rate, skip_ui=skip_ui, modulation=modulation)


def eye_quality_metric(wave: Waveform, bit_rate: float,
                       skip_ui: int = 16) -> float:
    """Eye width minus twice the RMS jitter (UI); -1 for a closed eye,
    -10 for one that cannot be folded."""
    try:
        eye = eye_diagram(wave, bit_rate, skip_ui=skip_ui)
    except ValueError:
        return -10.0
    measurement = eye.measure()
    if not measurement.is_open:
        return -1.0
    return measurement.eye_width_ui - 2.0 * eye.jitter_rms_ui()


def ber_from_eye(wave: Waveform, bit_rate: float, skip_ui: int = 8,
                 modulation: Optional[Modulation] = None) -> float:
    """BER from the eye's Q-factor(s), summed in scalar Python."""
    measurement = eye_diagram(wave, bit_rate, skip_ui=skip_ui,
                              modulation=modulation).measure()
    q_factors = (measurement.q_factors
                 if measurement.q_factors is not None
                 else (measurement.q_factor,))
    return ber_from_q_factors(q_factors, modulation)


def pulse_response(system, bit_rate: float, samples_per_bit: int = 32,
                   n_lead_bits: int = 8, n_lag_bits: int = 24,
                   amplitude: float = 1.0) -> PulseResponse:
    """Lone-one response minus all-zero baseline, each pushed through
    ``system`` as a single waveform."""
    bits: List[int] = [0] * n_lead_bits + [1] + [0] * n_lag_bits
    stimulus = bits_to_nrz(np.array(bits), bit_rate, amplitude=amplitude,
                           samples_per_bit=samples_per_bit)
    baseline = bits_to_nrz(np.zeros(len(bits), dtype=int), bit_rate,
                           amplitude=amplitude,
                           samples_per_bit=samples_per_bit)
    response = system.process(stimulus).data - system.process(baseline).data
    return PulseResponse.from_waveform(
        Waveform(response, stimulus.sample_rate), bit_rate)


def adapt_equalizer(channel, bit_rate: float = 10e9,
                    amplitude: float = 0.2, samples_per_bit: int = 16,
                    n_bits: int = 260, n_refine: int = 6
                    ) -> AdaptationResult:
    """:func:`repro.core.adapt_equalizer`, one candidate V1 at a time."""
    received = channel.process(
        _training_wave(bit_rate, amplitude, samples_per_bit, n_bits))
    v1_lo, v1_hi = \
        build_input_interface().equalizer.degeneration.control_range()

    def objective(v1: float) -> float:
        rx = build_input_interface(equalizer_control_voltage=v1)
        return eye_quality_metric(rx.process(received), bit_rate)

    return ScalarKnobSearch(lo=v1_lo, hi=min(v1_hi, 1.2), n_grid=6,
                            n_refine=n_refine).maximize(objective)


def adapt_peaking(channel, bit_rate: float = 10e9,
                  amplitude: float = 0.3, samples_per_bit: int = 16,
                  n_bits: int = 260, n_refine: int = 6
                  ) -> AdaptationResult:
    """:func:`repro.core.adapt_peaking`, one spike current at a time."""
    wave = _training_wave(bit_rate, amplitude, samples_per_bit, n_bits)

    def objective(spike_current: float) -> float:
        tx = build_output_interface(spike_current=spike_current)
        received = channel.process(tx.process(wave))
        metric = eye_quality_metric(received, bit_rate)
        try:
            measurement = eye_diagram(received, bit_rate, skip_ui=16).measure()
            metric += 2.0 * max(0.0, measurement.eye_height)
        except ValueError:
            pass
        return metric

    return ScalarKnobSearch(lo=0.2e-3, hi=4e-3, n_grid=5,
                            n_refine=n_refine).maximize(objective)


def isi_spectrum(engine, cursors: np.ndarray, dv: float) -> np.ndarray:
    """:meth:`repro.stateye.StatEye._isi_spectrum`, one full-grid
    ``L``-spike deposit and ``rfft`` per non-main cursor (all rows at
    once), multiplied up in cursor order.  All-zero cursors are
    skipped."""
    n_scen, n_phases, n_cursors = cursors.shape
    m = engine.n_voltages
    levels = np.asarray(engine.modulation.levels, dtype=float)
    weight = 1.0 / levels.size
    rows = np.arange(n_scen * n_phases)
    spectrum = np.ones((rows.size, m // 2 + 1), dtype=complex)
    for k in range(n_cursors):
        if k == engine.n_precursors:
            continue
        amplitude = cursors[:, :, k].ravel()
        if not np.any(amplitude):
            continue
        kernel = np.zeros((rows.size, m))
        for level in levels:
            position = level * amplitude / dv
            low = np.floor(position).astype(np.int64)
            frac = position - low
            kernel[rows, low % m] += weight * (1.0 - frac)
            kernel[rows, (low + 1) % m] += weight * frac
        spectrum *= np.fft.rfft(kernel, axis=-1)
    return spectrum.reshape(n_scen, n_phases, m // 2 + 1)


def isi_pdf(engine, cursors: np.ndarray, dv: float,
            origin: int) -> np.ndarray:
    """The ISI voltage PDF per (scenario, phase) row from
    :func:`isi_spectrum`, zero volts at grid index ``origin``."""
    spectrum = isi_spectrum(engine, cursors, dv)
    return np.roll(np.fft.irfft(spectrum, n=engine.n_voltages, axis=-1),
                   origin, axis=-1)


def stateye_surfaces(engine, cursors: np.ndarray, dv: float,
                     origin: int) -> np.ndarray:
    """:meth:`repro.stateye.StatEye._surfaces`, one conditional PDF per
    modulation level: its own shift factor from one complex exponential
    per frequency bin, its own ``irfft`` and both tails by ``cumsum``,
    then jitter folded by an ``rfft``/``irfft`` pair along the phase
    axis.  The ISI spectrum and the jitter kernel come from the engine.
    The engine matches it to round-off, not bit for bit."""
    m = engine.n_voltages
    levels = np.asarray(engine.modulation.levels, dtype=float)
    n_scen, n_phases, _ = cursors.shape
    spectrum = engine._isi_spectrum(cursors, dv)
    omega = 2.0 * np.pi * np.fft.rfftfreq(m, d=dv)
    if engine.noise_rms > 0.0:
        spectrum = spectrum * np.exp(-0.5 * (engine.noise_rms * omega) ** 2)
    main = cursors[:, :, engine.n_precursors]
    surfaces = np.zeros((n_scen, levels.size - 1, n_phases, m))
    for li, level in enumerate(levels):
        shifted = spectrum * np.exp(-1j * omega * (level
                                                  * main)[..., None])
        pdf = np.roll(np.fft.irfft(shifted, n=m, axis=-1), origin,
                      axis=-1)
        if li > 0:
            surfaces[:, li - 1] += 0.5 * np.cumsum(pdf, axis=-1)
        if li < levels.size - 1:
            upper = np.cumsum(pdf[..., ::-1], axis=-1)[..., ::-1]
            surfaces[:, li] += 0.5 * (upper - pdf)
    np.clip(surfaces, 0.0, 0.5, out=surfaces)
    kernel = engine._jitter_kernel()
    if kernel is not None:
        shaped = np.fft.rfft(surfaces, axis=2) \
            * np.fft.rfft(kernel)[None, None, :, None]
        surfaces = np.fft.irfft(shaped, n=n_phases, axis=2)
        np.clip(surfaces, 0.0, 0.5, out=surfaces)
    return surfaces


def flat_center_argmin(values: np.ndarray) -> int:
    """Centre index of the (possibly flat) minimum region of a 1-D
    array: values within 1e-12 relative or 1e-15 absolute of the
    minimum are tied, and the middle tie wins."""
    minimum = float(np.min(values))
    flat = np.flatnonzero(values <= minimum * (1.0 + 1e-12) + 1e-15)
    return int(flat[len(flat) // 2])


def open_run(mask: np.ndarray, start: int) -> Optional[Tuple[int, int]]:
    """The contiguous True run of ``mask`` containing ``start``."""
    if not mask[start]:
        return None
    lo = start
    while lo > 0 and mask[lo - 1]:
        lo -= 1
    hi = start
    while hi < mask.size - 1 and mask[hi + 1]:
        hi += 1
    return lo, hi


class SerialStatEye:
    """:class:`repro.stateye.StatEyeResult`'s summaries of one result,
    computed eye by eye and phase by phase."""

    def __init__(self, result) -> None:
        self.result = result
        self.surfaces = result.surfaces
        self.voltages = result.voltages

    def _eye_index(self, eye: Optional[int]) -> int:
        return self.worst_eye_index() if eye is None else int(eye)

    def _combine(self, per_eye: np.ndarray) -> np.ndarray:
        modulation = self.result.modulation
        ser = (2.0 / modulation.n_levels) * per_eye.sum(axis=0)
        return ser / modulation.bits_per_symbol

    def worst_eye_index(self) -> int:
        return int(np.argmax(self.surfaces.min(axis=(1, 2))))

    def combined_phase_ber(self) -> np.ndarray:
        return self._combine(self.surfaces.min(axis=-1))

    def best_phase_index(self) -> int:
        return flat_center_argmin(self.combined_phase_ber())

    def best_phase_ui(self) -> float:
        return float(self.result.phases_ui[self.best_phase_index()])

    def best_threshold_indices(self) -> np.ndarray:
        p = self.best_phase_index()
        return np.array([flat_center_argmin(self.surfaces[e, p])
                         for e in range(len(self.surfaces))])

    def best_thresholds(self) -> np.ndarray:
        return self.voltages[self.best_threshold_indices()]

    def ber(self) -> float:
        return float(np.min(self.combined_phase_ber()))

    def min_ber(self, eye: Optional[int] = None) -> float:
        if eye is None:
            return self.ber()
        return float(np.min(self.surfaces[eye]))

    def bathtub(self, eye: Optional[int] = None) -> np.ndarray:
        vi = self.best_threshold_indices()
        fixed = np.stack([self.surfaces[e, :, vi[e]]
                          for e in range(len(self.surfaces))])
        ber = self._combine(fixed) if eye is None else fixed[eye]
        return np.clip(ber, self.result.ber_floor, 0.5)

    def contour(self, target: float, eye: Optional[int] = None
                ) -> Tuple[np.ndarray, np.ndarray]:
        e = self._eye_index(eye)
        vi = int(self.best_threshold_indices()[e])
        surf = self.surfaces[e]
        lower = np.full(surf.shape[0], np.nan)
        upper = np.full(surf.shape[0], np.nan)
        for p in range(surf.shape[0]):
            mask = surf[p] <= target
            run = open_run(mask, vi)
            if run is None:
                run = open_run(mask, flat_center_argmin(surf[p]))
            if run is not None:
                lower[p] = self.voltages[run[0]]
                upper[p] = self.voltages[run[1]]
        return lower, upper

    def eye_height_at(self, target: float,
                      eye: Optional[int] = None) -> float:
        lower, upper = self.contour(target, eye)
        p = self.best_phase_index()
        if not np.isfinite(lower[p]):
            return 0.0
        return float(upper[p] - lower[p])

    def eye_width_ui_at(self, target: float,
                        eye: Optional[int] = None) -> float:
        ber = self.bathtub(self._eye_index(eye))
        good = ber < target
        if not np.any(good):
            return 0.0
        return float(np.sum(good) / len(ber))
