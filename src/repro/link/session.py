"""``LinkSession``: the batch-first facade over the whole link.

The paper's transceiver is one fixed chain — tx → backplane → rx →
CDR/DFE → eye/BER — and this module is its single public entry point.
A session is built either from config dataclasses
(:class:`TxConfig`/:class:`ChannelConfig`/:class:`RxConfig` plus
optional :class:`~repro.cdr.CdrConfig`/:class:`DfeConfig`) or from any
sequence of batch-transparent processors, and every execution path
runs the same chain loop over the same batched kernels:

* :meth:`LinkSession.run` — one waveform in, one :class:`LinkResult`;
* :meth:`LinkSession.run_batch` — N scenarios in one pass, a
  :class:`LinkBatchResult` whose row ``i`` equals ``run(batch[i])``;
  ``chunk_rows=...`` streams the chain in bounded row-chunks (peak
  memory ``O(chunk_rows * n_samples)`` per stage, row-exact vs the
  monolithic pass) so 100k+-scenario batches fit in memory;
* :meth:`LinkSession.sweep` — a declarative
  :class:`~repro.sweep.grid.ScenarioGrid` executed by the
  :class:`~repro.sweep.runner.SweepRunner`, structural axes rebuilding
  the session's configs by field name;
* :meth:`LinkSession.run_framed` / :func:`run_framed_link` — the
  8b/10b framed link (serialize once, batched CDR recovery, per-row
  decode).
"""

from __future__ import annotations

import collections
import dataclasses
import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.eye import MIN_EYE_UI, EyeMeasurement, measure_eye_batch
from ..analysis.isi import pulse_response
from ..baselines.dfe import (
    DecisionFeedbackEqualizer,
    inner_eye_height_from_corrected,
)
from ..cdr.loop import (
    BangBangCdr,
    CdrBatchResult,
    CdrConfig,
    CdrResult,
    _check_finite,
)
from ..channel.backplane import BackplaneChannel
from ..core.interface import build_input_interface, build_output_interface
from ..serdes.serializer import (
    Deserializer,
    LinkBatchReport,
    LinkReport,
    _decode_payload,
    _serialize_payload,
)
from ..lti.blocks import Pipeline
from ..signals.batch import RowStack, WaveformBatch, _apply_processor, _lift
from ..signals.modulation import Modulation, Nrz
from ..signals.waveform import Waveform
from ..sweep.grid import ScenarioGrid
from ..sweep.runner import SweepResult, SweepRunner

__all__ = [
    "TxConfig",
    "ChannelConfig",
    "RxConfig",
    "DfeConfig",
    "LinkResult",
    "LinkBatchResult",
    "LinkSession",
    "run_framed_link",
]


# ---------------------------------------------------------------------------
# Config dataclasses: the builder inputs of a session.
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TxConfig:
    """Transmit side: the paper's output interface.

    ``modulation`` declares the line code of the stimulus this session
    carries (NRZ by default).  The analog chain is modulation-agnostic;
    the field rides through the session into every slicer and eye
    measurement — and, being a config field, it is a valid *structural*
    sweep-axis name, so NRZ-vs-PAM4 runs as one sweep.
    """

    peaking_enabled: bool = True
    spike_width_ui: float = 0.35
    spike_current: float = 1.5e-3
    modulation: Modulation = Nrz()

    def __post_init__(self) -> None:
        _check_finite(self)

    def build(self, bit_rate: float):
        return build_output_interface(
            peaking_enabled=self.peaking_enabled,
            spike_width_ui=self.spike_width_ui,
            spike_current=self.spike_current,
            bit_rate=bit_rate,
        )


@dataclasses.dataclass(frozen=True)
class ChannelConfig:
    """The backplane between the interfaces; zero length means none."""

    length_m: float = 0.0

    def __post_init__(self) -> None:
        _check_finite(self)

    def build(self) -> Optional[BackplaneChannel]:
        if self.length_m <= 0.0:
            return None
        return BackplaneChannel(self.length_m)


@dataclasses.dataclass(frozen=True)
class RxConfig:
    """Receive side: the paper's input interface."""

    equalizer_enabled: bool = True
    equalizer_control_voltage: float = 0.7

    def __post_init__(self) -> None:
        _check_finite(self)

    def build(self):
        rx = build_input_interface(
            equalizer_control_voltage=self.equalizer_control_voltage
        )
        if not self.equalizer_enabled:
            rx = rx.without_equalizer()
        return rx


@dataclasses.dataclass(frozen=True)
class DfeConfig:
    """A baud-rate DFE measured after the receive path.

    ``modulation=None`` inherits the session's line code at build time
    (set it explicitly to pin a different slicer alphabet)."""

    taps: Tuple[float, ...]
    decision_amplitude: float = 1.0
    sample_phase_ui: float = 0.5
    skip_bits: int = 16
    modulation: Optional[Modulation] = None

    def __post_init__(self) -> None:
        _check_finite(self)

    def build(self, bit_rate: float,
              modulation: Optional[Modulation] = None
              ) -> DecisionFeedbackEqualizer:
        effective = self.modulation if self.modulation is not None \
            else (modulation if modulation is not None else Nrz())
        return DecisionFeedbackEqualizer(
            taps=self.taps,
            bit_rate=bit_rate,
            decision_amplitude=self.decision_amplitude,
            sample_phase_ui=self.sample_phase_ui,
            modulation=effective,
        )


def _require_finite(batch: WaveformBatch) -> None:
    """Reject NaN/inf input samples: the chain would smear them over
    every output sample while the CDR still reported lock."""
    if np.isfinite(batch.data).all():
        return
    bad = ~np.isfinite(batch.data)
    first_row = int(np.argmax(bad.any(axis=1)))
    raise ValueError(
        f"input has {int(bad.sum())} non-finite samples (first in row "
        f"{first_row}); LinkSession.run/run_batch need finite waveforms"
    )


def _chain_entry(processor):
    """One entry of a session's chain as it runs: an object with
    ``to_block()`` but no ``process`` (the Cherry-Hooper equalizer, the
    baseline CTLE) lowered once to its block; anything with ``process``
    or a plain batch callable as given."""
    if hasattr(processor, "to_block") and not hasattr(processor, "process"):
        processor = processor.to_block()
    if not (hasattr(processor, "process") or callable(processor)):
        raise TypeError(f"{type(processor).__name__} has no .process and "
                        "is not callable")
    return processor


def _stages(processors):
    """The chain's processors with every pipeline opened up: an entry
    with ``to_pipeline()`` (an interface, the limiting amplifier, the
    tapered driver; their ``process`` is that pipeline's) and a
    ``Pipeline`` yield their blocks in order."""
    for processor in processors:
        if hasattr(processor, "to_pipeline"):
            processor = processor.to_pipeline()
        if isinstance(processor, Pipeline):
            yield from _stages(processor.stages())
        else:
            yield processor


def _run_chain(processors, signal):
    """The one chain loop: lift the input to a batch, apply each
    processor, lower the result.  ``Waveform`` in → ``Waveform`` out,
    ``WaveformBatch`` in → ``WaveformBatch`` out; a processor may fan
    one row out to many (noise fan-out), and the batch then stays a
    batch.  Pipelines run block by block here (:func:`_stages`), so a
    block's input is released as soon as its output exists instead of
    being held by a nested pipeline call (a transmitter's output through
    the whole receiver, say)."""
    batch, was_single = _lift(signal)
    for processor in _stages(processors):
        batch = _apply_processor(processor, batch)
    return batch[0] if was_single and batch.n_scenarios == 1 else batch


def _same_input(seen: WaveformBatch, batch: WaveformBatch) -> bool:
    """``batch`` is exactly ``seen``: the same timebase, shape and
    samples."""
    return (seen.sample_rate == batch.sample_rate and seen.t0 == batch.t0
            and np.array_equal(seen.data, batch.data))


class _SharedPrefix:
    """Leading blocks of a rebuilt chain (the transmitter, or the
    transmitter and the channel) that several structural points of one
    sweep share.

    ``slot`` is one chain level's memo, ``[key, input, output]``,
    shared by every prefix at that level; ``key`` names the prefix by
    its configs (the prefix itself there would make a reference cycle,
    which only the cyclic collector frees).  A call on exactly the
    input the slot's own prefix last ran (:func:`_same_input`) returns
    that output again; any other input runs the blocks and takes the
    slot.  So the sibling points of one row chunk run the prefix once, a
    stimulus that reads the structural value recomputes, and every
    result is bit-identical to a chain that shares nothing.  The kept
    output is read-only, so a later block that writes into its input
    raises instead of corrupting the next point's input.
    """

    def __init__(self, key: Tuple, blocks: Tuple, slot: List):
        self.key = key
        self.blocks = blocks
        self.slot = slot

    def process(self, batch: WaveformBatch) -> WaveformBatch:
        key, seen, out = self.slot
        if key is not self.key or not _same_input(seen, batch):
            out = _run_chain(self.blocks, batch)
            out.data.flags.writeable = False
            self.slot[:] = (self.key, batch, out)
        return out


class _PointBuilder:
    """``build(structural_params)`` of a sweep with structural axes.

    Each point gets the session's configs with the matching fields
    replaced, rebuilt into a fresh chain that only the sweep holds and
    is therefore lowered once (:func:`_stages`), here.  A leading leg
    whose configs, from the transmitter on, equal those of another
    point, and that another leg follows, runs as one
    :class:`_SharedPrefix` for all of those points, with one memo slot
    per chain level.  The memo lives in this builder alone: a pickled
    builder (the journal key, a pool task) carries the session and the
    grid, so the key reads the same before and after a run and each
    pool worker starts with its own empty memo.
    """

    def __init__(self, session: "LinkSession", grid: ScenarioGrid):
        self.session = session
        self.grid = grid
        self._counts = collections.Counter(
            configs[:depth + 1]
            for configs in map(self._configs, grid.structural_points())
            for depth in range(len(configs)))
        self._prefixes: Dict[Tuple, _SharedPrefix] = {}
        self._slots = ([None] * 3, [None] * 3)

    def __reduce__(self):
        return type(self), (self.session, self.grid)

    def _configs(self, structural_params: Dict) -> Tuple:
        """The session's tx/channel/rx configs with the point's fields
        replaced."""
        used = set()

        def override(config):
            if config is None:
                return None
            names = {field.name for field in dataclasses.fields(config)}
            hits = {key: value for key, value in structural_params.items()
                    if key in names}
            used.update(hits)
            return dataclasses.replace(config, **hits) if hits else config

        configs = tuple(map(override, self.session._configs))
        unknown = set(structural_params) - used
        if unknown:
            raise KeyError(
                f"structural parameters {sorted(unknown)} match no field "
                "of the session's tx/channel/rx configs"
            )
        return configs

    def __call__(self, structural_params: Dict):
        configs = self._configs(structural_params)
        _, built = LinkSession._build_chain(*configs,
                                            self.session.bit_rate)
        legs = [(configs[:depth + 1], block)
                for depth, block in enumerate(built) if block is not None]
        chain: List = []
        for level, (key, block) in enumerate(legs):
            if level == len(legs) - 1 or self._counts[key] < 2:
                chain.extend(_stages([block]))
                continue
            if key not in self._prefixes:
                self._prefixes[key] = _SharedPrefix(
                    key, tuple(_stages([block])), self._slots[level])
            chain.append(self._prefixes[key])
        return functools.partial(_run_chain, tuple(chain))


def _require_rate(what: str, rate: float, bit_rate: float) -> None:
    """Reject a CDR or DFE built for another rate than the link's."""
    if rate != bit_rate:
        raise ValueError(
            f"{what} bit_rate {rate:g} differs from the link bit_rate "
            f"{bit_rate:g}"
        )


# ---------------------------------------------------------------------------
# The typed report family.
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class LinkResult:
    """One scenario's outcome: the received waveform plus every
    measurement the session was configured for."""

    output: Waveform
    eye: Optional[EyeMeasurement] = None
    cdr: Optional[CdrResult] = None
    dfe_decisions: Optional[np.ndarray] = None
    dfe_corrected: Optional[np.ndarray] = None
    dfe_inner_eye_height: Optional[float] = None
    modulation: Modulation = Nrz()

    @property
    def cdr_locked(self) -> bool:
        """True when a CDR ran and locked."""
        return self.cdr is not None and self.cdr.is_locked


@dataclasses.dataclass(frozen=True, eq=False)
class LinkBatchResult(RowStack):
    """N scenarios' outcomes from one batched pass.

    Row ``i`` (:meth:`row`) equals :meth:`LinkSession.run` of the same
    scenario — both are assembled by the same kernels.
    """

    output: WaveformBatch
    eyes: Optional[List[EyeMeasurement]] = None
    cdr: Optional[CdrBatchResult] = None
    dfe_decisions: Optional[np.ndarray] = None
    dfe_corrected: Optional[np.ndarray] = None
    dfe_inner_eye_heights: Optional[np.ndarray] = None
    modulation: Modulation = Nrz()

    def row(self, index: int) -> LinkResult:
        """Scenario ``index`` unpacked into the single-scenario form."""
        def at(column, unpack=lambda value: value):
            return None if column is None else unpack(column[index])

        return LinkResult(
            output=self.output[index], eye=at(self.eyes), cdr=at(self.cdr),
            dfe_decisions=at(self.dfe_decisions),
            dfe_corrected=at(self.dfe_corrected),
            dfe_inner_eye_height=at(self.dfe_inner_eye_heights, float),
            modulation=self.modulation,
        )

    def eye_heights(self) -> np.ndarray:
        """Per-scenario vertical eye openings."""
        if self.eyes is None:
            raise ValueError("session ran with measure_eye=False")
        return np.array([eye.eye_height for eye in self.eyes])

    def lock_yield(self) -> float:
        """Fraction of scenarios whose CDR locked."""
        if self.cdr is None:
            raise ValueError("session ran without a CDR")
        return self.cdr.lock_yield()


# ---------------------------------------------------------------------------
# The facade.
# ---------------------------------------------------------------------------

class LinkSession:
    """Composable batch-first link runner.

    Parameters
    ----------
    stages:
        The analog chain, in order: anything with ``process`` (blocks,
        pipelines, channels, interfaces, :class:`~repro.link.CdrStage`),
        anything with ``to_block()`` (lowered once, here), or plain
        batch callables; each must be batch-transparent.
    bit_rate:
        Line rate shared by measurement, CDR and DFE.
    cdr:
        ``None`` (no recovery), a :class:`~repro.cdr.CdrConfig`, or
        ``True`` for the default config at ``bit_rate``.
    dfe:
        ``None``, a :class:`DfeConfig`, or a ready
        :class:`~repro.baselines.dfe.DecisionFeedbackEqualizer`.
    measure_eye / skip_ui:
        Whether (and how) each run folds a scope-style eye.
    modulation:
        Line code every measurement layer slices against (``None`` =
        NRZ).  ``bit_rate`` stays the *symbol* (baud) rate.
    """

    def __init__(self, stages: Sequence = (), *, bit_rate: float = 10e9,
                 cdr: "CdrConfig | bool | None" = None,
                 dfe: "DfeConfig | DecisionFeedbackEqualizer | None" = None,
                 measure_eye: bool = True, skip_ui: int = 16,
                 modulation: Optional[Modulation] = None):
        if bit_rate <= 0:
            raise ValueError(f"bit_rate must be positive, got {bit_rate}")
        self.bit_rate = bit_rate
        self.modulation: Modulation = (Nrz() if modulation is None
                                       else modulation)
        self.stages: Tuple = tuple(_chain_entry(s) for s in stages)
        if cdr is True:
            cdr = CdrConfig(bit_rate=bit_rate, modulation=self.modulation)
        self.cdr_config: Optional[CdrConfig] = cdr or None
        if self.cdr_config is not None:
            _require_rate("CDR", self.cdr_config.bit_rate, bit_rate)
        #: DFE decisions dropped before the inner-eye height: the
        #: config's ``skip_bits``, 16 for a ready equalizer.
        self.dfe_skip_bits = 16
        if isinstance(dfe, DfeConfig):
            self.dfe_skip_bits = dfe.skip_bits
            dfe = dfe.build(bit_rate, modulation=self.modulation)
        elif dfe is not None:
            _require_rate("DFE", dfe.bit_rate, bit_rate)
        self.dfe: Optional[DecisionFeedbackEqualizer] = dfe
        self.measure_eye = measure_eye
        self.skip_ui = skip_ui
        #: Built components, populated by :meth:`from_configs` so
        #: metric accessors (budget, DC gain, output swing) stay reachable.
        self.transmitter = None
        self.channel = None
        self.receiver = None
        self._configs: Optional[Tuple] = None

    # -- construction ------------------------------------------------------
    @classmethod
    def from_configs(cls, tx: Optional[TxConfig] = TxConfig(),
                     channel: Optional[ChannelConfig] = ChannelConfig(),
                     rx: Optional[RxConfig] = RxConfig(), *,
                     bit_rate: float = 10e9,
                     cdr: "CdrConfig | bool | None" = None,
                     dfe: "DfeConfig | DecisionFeedbackEqualizer | None"
                     = None,
                     measure_eye: bool = True, skip_ui: int = 16,
                     modulation: Optional[Modulation] = None
                     ) -> "LinkSession":
        """Build the paper's tx → channel → rx chain from configs.

        Any of ``tx``/``channel``/``rx`` may be ``None`` to omit that
        leg (``ChannelConfig(0.0)`` also omits the channel).  The
        configs are retained, so :meth:`sweep` can rebuild the chain
        along structural axes by config field name.  The line code
        defaults to ``tx.modulation``; an explicit ``modulation``
        argument wins.
        """
        if modulation is None and tx is not None:
            modulation = tx.modulation
        stages, built = cls._build_chain(tx, channel, rx, bit_rate)
        session = cls(stages, bit_rate=bit_rate, cdr=cdr, dfe=dfe,
                      measure_eye=measure_eye, skip_ui=skip_ui,
                      modulation=modulation)
        session.transmitter, session.channel, session.receiver = built
        session._configs = (tx, channel, rx)
        return session

    @staticmethod
    def _build_chain(tx: Optional[TxConfig], channel: Optional[ChannelConfig],
                     rx: Optional[RxConfig], bit_rate: float):
        transmitter = tx.build(bit_rate) if tx is not None else None
        chan = channel.build() if channel is not None else None
        receiver = rx.build() if rx is not None else None
        stages = [block for block in (transmitter, chan, receiver)
                  if block is not None]
        return stages, (transmitter, chan, receiver)

    # -- execution ---------------------------------------------------------
    def process(self, signal):
        """Push a signal through the analog stages (no measurement).

        One chain loop: ``Waveform`` in → ``Waveform`` out,
        ``WaveformBatch`` in → ``WaveformBatch`` out.  A stage that
        returns anything but a :class:`WaveformBatch` for a batch (a
        lone :class:`Waveform` included) raises ``TypeError``.
        """
        return _run_chain(self.stages, signal)

    def statistical_eye(self, engine: "Optional[Any]" = None, *,
                        amplitude: float = 1.0, samples_per_bit: int = 32,
                        n_lead_bits: Optional[int] = None,
                        n_lag_bits: Optional[int] = None,
                        **engine_fields):
        """Statistical eye/BER analysis of this link (the StatEye mode).

        Measures the chain's single-symbol pulse response (lone-one
        stimulus minus the all-zero baseline through the full chain at
        its operating point, via
        :func:`~repro.analysis.isi.pulse_response`) and runs the
        convolution-based engine on it: exact ISI PDFs, Gaussian noise
        and RJ/DJ jitter folded into per-sub-eye BER(t, v) surfaces —
        contours, bathtubs and BER in tails pattern simulation cannot
        reach, though checked against it only at BER ~2.5e-3 (see
        :mod:`repro.stateye.engine`).

        ``engine`` is a ready :class:`~repro.stateye.StatEye`; keyword
        ``engine_fields`` (e.g. ``noise_rms=5e-3``, ``rj_rms_ui=0.01``)
        build one around the session's modulation, or override fields
        of a given engine.  ``amplitude`` must match the peak-to-peak
        stimulus swing of the time-domain runs being modeled.  Returns
        a :class:`~repro.stateye.StatEyeResult`.  The pulse is memoized
        on the content of the chain :meth:`process` runs (see
        :func:`~repro.analysis.isi.pulse_response_batch`), so queries
        that vary only the engine simulate an unchanged chain once, and
        sessions that differ only in CDR, DFE or measurement settings
        share one entry.
        """
        from ..stateye import StatEye

        if engine is None:
            engine = StatEye(**{"modulation": self.modulation,
                                **engine_fields})
        elif engine_fields:
            engine = dataclasses.replace(engine, **engine_fields)
        if n_lead_bits is None:
            n_lead_bits = max(4, engine.n_precursors + 4)
        if n_lag_bits is None:
            n_lag_bits = max(8, engine.n_postcursors + 4)
        pulse = pulse_response(functools.partial(_run_chain, self.stages),
                               self.bit_rate,
                               samples_per_bit=samples_per_bit,
                               n_lead_bits=n_lead_bits,
                               n_lag_bits=n_lag_bits, amplitude=amplitude)
        return engine.analyze(pulse)

    def _analyze(self, out: WaveformBatch,
                 modulation: Optional[Modulation] = None) -> LinkBatchResult:
        """Measure an already-processed batch into the report form.

        ``modulation`` overrides the session's line code for this batch
        (a structural ``modulation`` sweep axis lands here): the eye
        folds per-sub-eye statistics and the CDR and DFE slice with the
        matching alphabet.
        """
        mod = self.modulation if modulation is None else modulation
        eyes = (measure_eye_batch(out, self.bit_rate, skip_ui=self.skip_ui,
                                  modulation=mod)
                if self.measure_eye else None)
        cdr_result = None
        if self.cdr_config is not None:
            cdr_result = BangBangCdr(dataclasses.replace(
                self.cdr_config, modulation=mod)).recover(out)
        dfe = self.dfe
        dfe_decisions = dfe_corrected = dfe_heights = None
        if dfe is not None:
            if mod != dfe.modulation:
                dfe = dataclasses.replace(dfe, modulation=mod)
            dfe_decisions, dfe_corrected = dfe.equalize(out)
            dfe_heights = inner_eye_height_from_corrected(
                dfe_corrected, self.dfe_skip_bits,
                thresholds=dfe.decision_thresholds)
        return LinkBatchResult(output=out, eyes=eyes, cdr=cdr_result,
                               dfe_decisions=dfe_decisions,
                               dfe_corrected=dfe_corrected,
                               dfe_inner_eye_heights=dfe_heights,
                               modulation=mod)

    def _require_length(self, batch: WaveformBatch) -> None:
        """Reject a waveform too short for the session's measurements
        before any stage runs, naming the minimum it needs."""
        samples_per_ui = batch.sample_rate / self.bit_rate
        n_ui = batch.n_samples / samples_per_ui
        shown = f"{n_ui:g} UI"
        needs = []
        if self.measure_eye:
            needs.append((self.skip_ui + MIN_EYE_UI,
                          f"skip_ui={self.skip_ui} + {MIN_EYE_UI} for "
                          "the eye"))
        short = n_ui < max((n for n, _ in needs), default=0.0)
        if self.cdr_config is not None:
            # The CDR counts whole UI from the duration; ask it, so a
            # waveform it would reject never gets past this check.
            cdr = BangBangCdr(self.cdr_config)
            cdr_ui, counted = cdr.min_ui(), cdr.count_ui(batch.duration)
            needs.append((cdr_ui, f"{cdr_ui:g} for the CDR"))
            if counted < cdr_ui <= n_ui:
                shown += f" ({counted} as the CDR counts them)"
            short |= counted < cdr_ui
        if self.dfe is not None:
            dfe_ui = self.dfe.min_ui(samples_per_ui)
            needs.append((dfe_ui, f"{dfe_ui:g} for the DFE"))
            short |= n_ui < dfe_ui
        if short:
            minimum = max(n for n, _ in needs)
            raise ValueError(
                f"waveform too short for this session: {shown}, needs "
                f"at least {minimum:g} UI ("
                + "; ".join(reason for _, reason in needs) + ")"
            )

    def _run(self, batch: WaveformBatch,
             modulation: Optional[Modulation] = None) -> LinkBatchResult:
        return self._analyze(_run_chain(self.stages, batch), modulation)

    def run(self, wave: Waveform) -> LinkResult:
        """One scenario end to end (dispatches through the batch path).

        Raises ``ValueError`` on NaN or infinite input samples, and on a
        waveform too short for the session's eye, CDR and DFE, as
        :meth:`run_batch` does.
        """
        if not isinstance(wave, Waveform):
            raise TypeError(
                f"run() takes a Waveform, got {type(wave).__name__}; "
                "use run_batch() for batches"
            )
        result = self.run_batch(wave)
        if result.n_scenarios != 1:
            raise ValueError(
                f"a stage fanned the waveform out to "
                f"{result.n_scenarios} scenarios; use run_batch() to "
                "keep every row"
            )
        return result.row(0)

    def run_batch(self, batch, *, chunk_rows: Optional[int] = None,
                  keep_output: bool = True) -> LinkBatchResult:
        """N scenarios in one batched pass.

        Accepts a :class:`WaveformBatch`, a single waveform (one-row
        batch), or a sequence of compatible waveforms (stacked).  Input
        with any NaN or infinite sample raises ``ValueError``, naming
        the count and the first offending row (the kernels on their
        own count NaN low; :meth:`sweep` quarantines non-finite
        results through ``nan_guard`` instead).  So does input shorter
        than the session needs — ``skip_ui`` plus 8 UI for the eye,
        18 UI for the CDR, the tap count plus about 4 UI for the DFE —
        before any stage runs, naming that minimum.

        ``chunk_rows`` enables the fused chunked fast path: the batch
        streams tx → channel → rx → CDR/DFE in bounded row-chunks, so
        every stage's intermediate arrays peak at
        ``O(chunk_rows * n_samples)`` instead of
        ``O(n_scenarios * n_samples)`` — the difference between a
        100k-scenario Monte Carlo fitting in memory and OOMing.  Chunks
        are measured independently and reassembled row-exactly
        (:meth:`LinkBatchResult.concatenate`): every kernel in the
        chain is row-independent, so ``run_batch(batch, chunk_rows=c)``
        equals ``run_batch(batch)`` for any ``c``.

        ``keep_output=False`` additionally drops the processed
        waveforms from the result (the returned ``output`` batch has
        zero samples per row), keeping only the configured measurements
        — for large sweeps the received waveforms dominate the result's
        footprint and are rarely wanted.  See
        ``benchmarks/bench_fused_chunked_pass.py`` for the measured
        crossover: chunking costs a few percent below ~1k scenarios
        and is the only way to complete ≥100k.
        """
        if isinstance(batch, Waveform):
            batch = _lift(batch)[0]
        elif not isinstance(batch, WaveformBatch):
            batch = WaveformBatch.stack(list(batch))
        if chunk_rows is not None and chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        _require_finite(batch)
        self._require_length(batch)
        if chunk_rows is None or chunk_rows >= batch.n_scenarios:
            return self._finish(self._run(batch), keep_output)
        parts = [
            self._finish(self._run(batch[start:start + chunk_rows]),
                         keep_output)
            for start in range(0, batch.n_scenarios, chunk_rows)
        ]
        return LinkBatchResult.concatenate(parts)

    @staticmethod
    def _finish(result: LinkBatchResult, keep_output: bool
                ) -> LinkBatchResult:
        """Optionally drop the waveforms, keeping the measurements."""
        if keep_output:
            return result
        empty = WaveformBatch(
            np.empty((result.output.n_scenarios, 0)),
            result.output.sample_rate, t0=result.output.t0)
        return dataclasses.replace(result, output=empty)

    # -- sweeps ------------------------------------------------------------
    def sweep(self, grid: ScenarioGrid,
              stimulus: Callable[[Dict], Waveform], *,
              measure: Optional[Callable[[WaveformBatch, List[Dict]],
                                         Sequence]] = None,
              processes: Optional[int] = None,
              chunk_rows: Optional[int] = None,
              checkpoint_dir=None,
              timeout: Optional[float] = None,
              max_attempts: int = 3,
              retry_backoff_s: float = 0.25,
              nan_guard: bool = False,
              on_error: str = "raise",
              reducers: Optional[Dict[str, Any]] = None,
              keep_results: bool = True) -> SweepResult:
        """Execute a scenario grid through the facade.

        Batchable axes ride through the stage chain as one
        :class:`WaveformBatch` per structural point; structural axes
        whose names match config fields (``length_m``,
        ``peaking_enabled``, ``equalizer_enabled``, ...) rebuild the
        chain via :meth:`from_configs`'s retained configs.  The default
        measurement is the session's own :meth:`_analyze`, so each
        scenario's result is a :class:`LinkResult`; pass ``measure`` to
        record something else (it receives the processed batch and the
        scenario parameter dicts).  ``chunk_rows`` bounds memory the
        same way it does for :meth:`run_batch`: each structural point's
        batchable scenarios stream through the chain in row-chunks of
        at most that size, row-exact vs the monolithic pass.

        Each structural point's chain is built and lowered once per
        sweep.  A chain prefix that several points share — the
        transmitter, or the transmitter and the channel, whose configs
        are equal across those points — runs once for all of them per
        row chunk: units run row-chunk-major (every structural point of
        one chunk, then the next chunk), and the prefix keeps its last
        output, read-only, with the input it came from.  It returns
        that output again only for exactly that input (the same
        ``sample_rate``, ``t0``, shape and samples, by
        ``np.array_equal``) and otherwise recomputes, so a stimulus
        that reads a structural value still gets its own prefix, and
        every result is bit-identical to a chain that shares nothing.
        The memo holds one chunk-sized input and output per shared
        chain level (two levels at most), lives in this call only, and
        is not part of the journal key; under a pool, each unit builds
        its own chain, so sharing is an in-process saving.

        The remaining knobs are :class:`SweepRunner`'s reliability
        layer, passed through verbatim: ``checkpoint_dir`` journals
        finished units for bit-exact resume, ``timeout`` /
        ``max_attempts`` / ``retry_backoff_s`` bound and retry pool
        units, ``nan_guard`` flags non-finite measurements, and
        ``on_error="quarantine"`` records persistent failures on
        ``SweepResult.failures`` instead of raising.  (Note the default
        measurement is a local closure and therefore unpicklable — pass
        an importable ``measure`` to combine ``processes > 1`` with the
        pool.)

        ``reducers`` streams aggregation through the facade: a mapping
        of name → :class:`~repro.sweep.reducers.Reducer` folded online
        over every measured scenario (with the default measurement,
        each reducer's ``extract`` sees a :class:`LinkResult` — e.g.
        ``MeanVar(extract=lambda r, p: r.eye.eye_height)``), finalized
        onto ``SweepResult.aggregates``.  Add ``keep_results=False``
        to drop the dense per-row results entirely — the
        million-scenario yield-study mode, where supervisor memory
        stays flat in scenario count (see ``examples/yield_study.py``).
        """
        for axis in grid.axes:
            if axis.name == "modulation" and not axis.structural:
                raise ValueError(
                    "a 'modulation' axis must be structural=True: it "
                    "changes the slicer alphabet and eye analysis, not "
                    "just the stimulus"
                )
        if measure is None:
            session_modulation = self.modulation

            def measure(out: WaveformBatch, params: List[Dict]):
                mod = (params[0].get("modulation", session_modulation)
                       if params else session_modulation)
                return self._analyze(out, modulation=mod).rows()
        runner = SweepRunner(grid, stimulus=stimulus,
                             build=self._builder_for(grid),
                             measure=measure, processes=processes,
                             chunk_rows=chunk_rows, timeout=timeout,
                             max_attempts=max_attempts,
                             retry_backoff_s=retry_backoff_s,
                             nan_guard=nan_guard, on_error=on_error,
                             reducers=reducers, keep_results=keep_results)
        return runner.run(checkpoint_dir=checkpoint_dir)

    def _builder_for(self, grid: ScenarioGrid):
        structural = [axis.name for axis in grid.structural_axes()]
        if not structural and not self.stages:
            return None
        if not structural:
            return lambda _params: self.process
        if self._configs is None:
            raise ValueError(
                f"structural axes {structural} need a session built by "
                "LinkSession.from_configs (configs are required to "
                "rebuild the chain)"
            )
        return _PointBuilder(self, grid)

    # -- framed link -------------------------------------------------------
    def run_framed(self, payload: bytes, *,
                   fanout: Optional[Callable[[Waveform], Any]] = None,
                   samples_per_bit: int = 16, amplitude: float = 0.25,
                   training_commas: int = 40, training_bytes: int = 8,
                   use_last_comma: bool = False
                   ) -> "LinkReport | LinkBatchReport":
        """8b/10b framed transport through the session's stages.

        The payload is serialized once; ``fanout`` (e.g.
        ``lambda w: WaveformBatch.with_noise_seeds(w, rms, seeds)``)
        optionally expands it to N scenarios before the analog chain.
        Returns a :class:`~repro.serdes.LinkReport` without fan-out, a
        :class:`~repro.serdes.LinkBatchReport` with it.
        """
        def path(wave: Waveform):
            signal = fanout(wave) if fanout is not None else wave
            return self.process(signal)

        return run_framed_link(
            payload, path, bit_rate=self.bit_rate,
            samples_per_bit=samples_per_bit, amplitude=amplitude,
            cdr=self.cdr_config, training_commas=training_commas,
            training_bytes=training_bytes, use_last_comma=use_last_comma,
        )


def run_framed_link(payload: bytes,
                    path: Optional[Callable[[Waveform], Any]] = None, *,
                    bit_rate: float = 10e9, samples_per_bit: int = 16,
                    amplitude: float = 0.25,
                    cdr: Optional[CdrConfig] = None,
                    training_commas: int = 40, training_bytes: int = 8,
                    use_last_comma: bool = False
                    ) -> "LinkReport | LinkBatchReport":
    """The one dispatching framed-link runner.

    Serializes the payload once (commas + settle pad), applies ``path``
    (any waveform transform; it may fan one waveform out to a
    :class:`WaveformBatch` of scenarios), recovers every scenario with
    one batched CDR pass, and comma-aligns/decodes each row.  A path
    returning a single :class:`Waveform` yields a
    :class:`~repro.serdes.LinkReport`; a batch yields a
    :class:`~repro.serdes.LinkBatchReport` whose row ``i`` equals the
    single-scenario run of that row.  ``cdr`` defaults to
    ``CdrConfig(bit_rate=bit_rate)``; a config for another rate raises
    ``ValueError``.
    """
    wave = _serialize_payload(payload, bit_rate, samples_per_bit, amplitude,
                              training_commas, training_bytes)
    received, was_single = _lift(path(wave) if path is not None else wave)
    if cdr is None:
        cdr = CdrConfig(bit_rate=bit_rate)
    _require_rate("CDR", cdr.bit_rate, bit_rate)
    result = BangBangCdr(cdr).recover(received)
    deserializer = Deserializer(use_last_comma=use_last_comma)
    report = LinkBatchReport(
        payloads_received=[
            _decode_payload(deserializer, bits[:n], training_bytes)
            for bits, n in zip(result.decisions, result.n_bits)],
        bits_recovered=result.n_bits,
        cdr_locked=result.is_locked,
        post_lock_jitter_ui=result.recovered_jitter_ui(),
        cdr_slips=result.slips,
        payload_sent=payload,
    )
    return report.row(0) if was_single else report
