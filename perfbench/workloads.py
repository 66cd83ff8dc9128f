"""The four closed-loop workloads of the benchmark.

Each workload is built from a seed (session, base patterns), then makes
one input per request index from ``(seed, index)`` alone, so the same
seed always gives the same requests.  A workload knows:

* ``make_input(i)`` / ``request(inp)`` / ``release(inp)`` — the client
  side and the one facade call the client waits for;
* ``summary(out)`` / ``invariants(out)`` — what the correctness checks
  compare against the committed references, or test on any seed;
* ``traced(inp, tracer)`` / ``mismatches(traced, out)`` — the same
  request again, layer by layer through each layer's public function
  with spans around every call, and its row-exact comparison with the
  facade's output.

All times are host wall-clock seconds; none of them is simulated time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import shutil
import time
from typing import Any, Dict, List

import numpy as np

from repro import (Count, LinkSession, MeanVar, Quantiles, ScenarioGrid,
                   StatEye, SweepAxis, Waveform, WaveformBatch, Yield,
                   bits_to_nrz, prbs7, prbs15)
from repro.analysis.eye import measure_eye_batch
from repro.analysis.isi import pulse_response
from repro.baselines.dfe import inner_eye_height_from_corrected
from repro.cdr import BangBangCdr, CdrConfig
from repro.link import CdrStage, ChannelConfig, DfeConfig, DfeStage, RxConfig

BIT_RATE = 10e9
AMPLITUDE = 0.25           # V, NRZ launch swing of every stimulus
NOISE_RMS = 3e-3           # V, AWGN added per request
LOCK_YIELD_FLOOR = 0.9     # invariant: CDR lock yield of a link request
FLOAT_ATOL = 1e-9          # reference tolerance on heights and BER values
BATHTUB_TOL = 1e-12        # stateye float noise on a bathtub is below this


def common_session() -> LinkSession:
    """The paper's chain as every link workload runs it."""
    return LinkSession.from_configs(
        channel=ChannelConfig(0.3),
        rx=RxConfig(equalizer_control_voltage=0.6),
        cdr=CdrConfig(bit_rate=BIT_RATE),
        dfe=DfeConfig(taps=(0.05, 0.02), decision_amplitude=0.2))


def request_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def noise_seeds(seed: int, index: int, n: int) -> List[int]:
    state = np.random.SeedSequence([seed, index]).generate_state(
        n, dtype=np.uint64)
    return [int(value) for value in state]


def digest(array: np.ndarray) -> str:
    """Exact fingerprint of integer decisions, independent of dtype."""
    return hashlib.sha256(
        np.ascontiguousarray(array, dtype=np.int8).tobytes()).hexdigest()


def compare(reference: Dict, got: Dict, exact: frozenset) -> List[str]:
    """Mismatches between a committed reference summary and this run's."""
    problems = []
    for key, want in reference.items():
        have = got.get(key)
        if key in exact:
            if have != want:
                problems.append(f"{key}: {have!r} != reference {want!r}")
            continue
        want_arr = np.asarray(want, dtype=float)
        have_arr = np.asarray(have, dtype=float)
        if (want_arr.shape != have_arr.shape
                or not np.allclose(have_arr, want_arr, rtol=0.0,
                                   atol=FLOAT_ATOL)):
            worst = (float(np.max(np.abs(have_arr - want_arr)))
                     if want_arr.shape == have_arr.shape else "shape")
            problems.append(f"{key}: differs from reference by {worst}")
    return problems


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if np.issubdtype(a.dtype, np.floating):
        return bool(np.array_equal(a, b, equal_nan=True))
    return bool(np.array_equal(a, b))


@dataclasses.dataclass
class TracedRequest:
    """One traced request: its wall time, what the layers produced, the
    decomposition's own problems and layer counts."""

    seconds: float
    result: Any
    problems: List[str] = dataclasses.field(default_factory=list)
    counts: Dict[str, int] = dataclasses.field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    residual = ""                  # layer name of the untraced remainder
    exact_keys: frozenset = frozenset()
    scenarios = 1                  # per request
    samples = 0                    # per scenario, into the analog chain
    bits = 0                       # per scenario
    grid_points = 0                # per stateye call
    units = 0                      # sweep units per request

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def release(self, inp) -> None:
        """Client-side clean-up after a request (not timed)."""

    def check(self, index: int, out, references) -> List[str]:
        """Invariants on every request, plus the committed reference
        for the request indices a documented seed covers."""
        problems = self.invariants(out)
        if references is not None and index < len(references):
            problems += compare(references[index], self.summary(out),
                                self.exact_keys)
        return problems

    def derived_seconds(self, traced: TracedRequest,
                        t_request: float) -> Dict[str, float]:
        """Layer times no span covers, from paired request times."""
        return {}


class _LinkWorkload(Workload):
    """Shared by ``link_batch`` and ``link_single``: the common chain,
    decomposed into tx → channel → rx → eye → CDR → DFE."""

    residual = "link.facade"
    exact_keys = frozenset({"cdr_decisions_sha256", "cdr_locked"})

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.session = common_session()
        self.cdr_stage = CdrStage(BangBangCdr(self.session.cdr_config))
        self.dfe_stage = DfeStage(self.session.dfe)

    def _layers(self, batch: WaveformBatch, tracer) -> Dict:
        s = self.session
        with tracer.span("tx"):
            wave = s.transmitter.process(batch)
        with tracer.span("channel"):
            wave = s.channel.process(wave)
        with tracer.span("rx"):
            out = s.receiver.process(wave)
        with tracer.span("eye"):
            eyes = measure_eye_batch(out, s.bit_rate, skip_ui=s.skip_ui,
                                     modulation=s.modulation)
        with tracer.span("cdr"):
            cdr = self.cdr_stage.recover(out)
        with tracer.span("dfe"):
            decisions, corrected = self.dfe_stage.equalize(out)
            heights = inner_eye_height_from_corrected(
                corrected, s.dfe_skip_bits,
                thresholds=s.dfe.decision_thresholds)
        return {
            "output": out.data,
            "eye_heights": [eye.eye_height for eye in eyes],
            "eye_widths": [eye.eye_width_ui for eye in eyes],
            "cdr_decisions": cdr.decisions,
            "cdr_locked": cdr.is_locked,
            "dfe_decisions": decisions,
            "dfe_corrected": corrected,
            "dfe_heights": heights,
        }

    def summary(self, out) -> Dict:
        fields = self.fields(out)
        return {
            "eye_heights": [float(v) for v in fields["eye_heights"]],
            "dfe_heights": [float(v) for v in fields["dfe_heights"]],
            "cdr_decisions_sha256": digest(fields["cdr_decisions"]),
            "cdr_locked": "".join("1" if flag else "0"
                                  for flag in fields["cdr_locked"]),
        }

    def invariants(self, out) -> List[str]:
        fields = self.fields(out)
        problems = []
        lock_yield = float(np.mean(fields["cdr_locked"]))
        if lock_yield < LOCK_YIELD_FLOOR:
            problems.append(f"lock yield {lock_yield:.3f} below the "
                            f"{LOCK_YIELD_FLOOR} floor")
        if not np.all(np.asarray(fields["eye_heights"]) > 0):
            problems.append("received eye closed on some row")
        if not np.all(np.asarray(fields["dfe_heights"]) > 0):
            problems.append("DFE inner eye closed on some row")
        if not np.all(np.isfinite(fields["output"])):
            problems.append("non-finite received samples")
        return problems

    def traced(self, inp, tracer) -> TracedRequest:
        batch = self._as_batch(inp)
        start = time.perf_counter()
        layered = self._layers(batch, tracer)
        seconds = time.perf_counter() - start
        locked = np.asarray(layered["cdr_locked"])
        return TracedRequest(seconds, layered, counts={
            "cdr.locked": int(locked.sum()), "cdr.attempted": locked.size})

    def mismatches(self, traced: TracedRequest, out) -> List[str]:
        facade = self.fields(out)
        return [f"layer-by-layer {key} differs from the facade"
                for key in facade if not _same(traced.result[key],
                                               facade[key])]


class LinkBatch(_LinkWorkload):
    name = "link_batch"
    why = ("wide Monte Carlo batch through run_batch; channel, tx/rx "
           "filtering and eye dominate")

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.scenarios = 8 if tiny else 64
        self.bits = 300
        self.base = bits_to_nrz(prbs7(self.bits, seed=1 + seed % 127),
                                BIT_RATE, amplitude=AMPLITUDE,
                                samples_per_bit=16)
        self.samples = len(self.base.data)

    def make_input(self, index: int) -> WaveformBatch:
        return WaveformBatch.with_noise_seeds(
            self.base, NOISE_RMS, noise_seeds(self.seed, index,
                                              self.scenarios))

    def request(self, batch: WaveformBatch):
        return self.session.run_batch(batch)

    @staticmethod
    def _as_batch(batch):
        return batch

    @staticmethod
    def fields(result) -> Dict:
        return {
            "output": result.output.data,
            "eye_heights": [eye.eye_height for eye in result.eyes],
            "eye_widths": [eye.eye_width_ui for eye in result.eyes],
            "cdr_decisions": result.cdr.decisions,
            "cdr_locked": result.cdr.is_locked,
            "dfe_decisions": result.dfe_decisions,
            "dfe_corrected": result.dfe_corrected,
            "dfe_heights": result.dfe_inner_eye_heights,
        }


class LinkSingle(_LinkWorkload):
    name = "link_single"
    why = ("one long PRBS15 waveform per run() call; the bit-serial CDR "
           "and DFE dominate")

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.bits = 300 if tiny else 1000
        self.base = bits_to_nrz(prbs15(self.bits, seed=1 + seed % 32767),
                                BIT_RATE, amplitude=AMPLITUDE,
                                samples_per_bit=16)
        self.samples = len(self.base.data)

    def make_input(self, index: int) -> Waveform:
        return WaveformBatch.with_noise_seeds(
            self.base, NOISE_RMS, noise_seeds(self.seed, index, 1))[0]

    def request(self, wave: Waveform):
        return self.session.run(wave)

    @staticmethod
    def _as_batch(wave):
        # What the facade does with one waveform: a batch of one row.
        return WaveformBatch(wave.data[np.newaxis, :], wave.sample_rate,
                             t0=wave.t0)

    @staticmethod
    def fields(result) -> Dict:
        return {
            "output": result.output.data[np.newaxis, :],
            "eye_heights": [result.eye.eye_height],
            "eye_widths": [result.eye.eye_width_ui],
            "cdr_decisions": result.cdr.decisions[np.newaxis, :],
            "cdr_locked": [result.cdr.is_locked],
            "dfe_decisions": result.dfe_decisions[np.newaxis, :],
            "dfe_corrected": result.dfe_corrected[np.newaxis, :],
            "dfe_heights": [result.dfe_inner_eye_height],
        }


# ---------------------------------------------------------------------------
# yield_sweep: LinkSession.sweep with streaming reducers.
# ---------------------------------------------------------------------------

CORNER_AXIS = "equalizer_control_voltage"
CORNERS = (0.5, 0.6, 0.7)
SWEEP_SKIP_UI = 8
EYE_MASK_V = 0.45
AMPLITUDE_SIGMA = 0.08


def measure_eye_heights(out: WaveformBatch, params) -> List[float]:
    """The sweep's ``measure=``: one eye height per scenario."""
    return [eye.eye_height
            for eye in measure_eye_batch(out, BIT_RATE, skip_ui=SWEEP_SKIP_UI)]


def meets_mask(height: float, params) -> bool:
    return height > EYE_MASK_V


def sweep_reducers() -> Dict:
    return {
        "count": Count(),
        "eye_height": MeanVar(),
        "quantiles": Quantiles(qs=(0.05, 0.5, 0.95), lo=0.0, hi=0.6,
                               n_bins=256),
        "yield": Yield(meets_mask),
    }


class TracedReducer:
    """A reducer with a ``sweep.reduce`` span around each call."""

    def __init__(self, inner, tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def init(self):
        with self.tracer.span("sweep.reduce"):
            return self.inner.init()

    def update(self, state, values, params):
        with self.tracer.span("sweep.reduce"):
            return self.inner.update(state, values, params)

    def merge(self, a, b):
        with self.tracer.span("sweep.reduce"):
            return self.inner.merge(a, b)

    def finalize(self, state):
        with self.tracer.span("sweep.reduce"):
            return self.inner.finalize(state)

    def describe(self) -> str:
        return "traced:" + self.inner.describe()


@dataclasses.dataclass
class SweepInput:
    amplitudes: np.ndarray
    noise: np.ndarray
    checkpoint_dir: str


class YieldSweep(Workload):
    name = "yield_sweep"
    why = ("LinkSession.sweep with reducers and a journal on short "
           "patterns; eye, stack and tx/rx processing dominate, no channel")
    residual = "sweep.framework"
    exact_keys = frozenset({"count", "yield"})

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.draws = 16 if tiny else 128
        self.chunk = 8 if tiny else 64
        self.scenarios = len(CORNERS) * self.draws
        self.units = len(CORNERS) * -(-self.draws // self.chunk)
        self.bits = 48
        self.base = bits_to_nrz(prbs7(self.bits, seed=1 + seed % 127),
                                BIT_RATE, amplitude=1.0, samples_per_bit=8)
        self.samples = len(self.base.data)
        self.session = LinkSession.from_configs(
            channel=None, rx=RxConfig(equalizer_control_voltage=0.6),
            skip_ui=SWEEP_SKIP_UI)
        self.corner_sessions = {
            v: LinkSession.from_configs(
                channel=None, rx=RxConfig(equalizer_control_voltage=v),
                skip_ui=SWEEP_SKIP_UI)
            for v in CORNERS}
        self.grid = ScenarioGrid([
            SweepAxis(CORNER_AXIS, CORNERS, structural=True),
            SweepAxis("draw", tuple(range(self.draws))),
        ])
        self._dirs = itertools.count()

    def _fresh_dir(self) -> str:
        return os.path.join(self.workdir,
                            f"journal-{os.getpid()}-{next(self._dirs)}")

    def make_input(self, index: int) -> SweepInput:
        rng = request_rng(self.seed, index)
        amplitudes = AMPLITUDE * (
            1.0 + AMPLITUDE_SIGMA * rng.standard_normal(self.draws))
        noise = rng.normal(0.0, NOISE_RMS, (self.draws, self.samples))
        return SweepInput(amplitudes, noise, self._fresh_dir())

    def release(self, inp: SweepInput) -> None:
        shutil.rmtree(inp.checkpoint_dir, ignore_errors=True)

    def _stimulus(self, inp: SweepInput):
        base, rate, t0 = self.base.data, self.base.sample_rate, self.base.t0

        def stimulus(params) -> Waveform:
            draw = params["draw"]
            return Waveform(base * inp.amplitudes[draw] + inp.noise[draw],
                            rate, t0=t0)
        return stimulus

    def _sweep(self, stimulus, measure, reducers, checkpoint_dir):
        return self.session.sweep(
            self.grid, stimulus=stimulus, measure=measure,
            chunk_rows=self.chunk, reducers=reducers, keep_results=False,
            checkpoint_dir=checkpoint_dir).aggregates

    def request(self, inp: SweepInput):
        return self._sweep(self._stimulus(inp), measure_eye_heights,
                           sweep_reducers(), inp.checkpoint_dir)

    def summary(self, out) -> Dict:
        return {
            "count": int(out["count"]),
            "yield": [out["yield"].n_pass, out["yield"].n_total],
            "mean": float(out["eye_height"].mean),
            "variance": float(out["eye_height"].variance),
            "quantiles": [float(v) for v in out["quantiles"].values],
        }

    def invariants(self, out) -> List[str]:
        problems = []
        if out["count"] != self.scenarios:
            problems.append(f"count {out['count']} != {self.scenarios}")
        if out["yield"].n_total != self.scenarios:
            problems.append("yield tallied the wrong number of scenarios")
        if not out["eye_height"].mean > 0:
            problems.append("mean eye height not open")
        quantiles = np.asarray(out["quantiles"].values)
        if np.any(np.diff(quantiles) < 0):
            problems.append("quantiles not monotone")
        return problems

    def traced(self, inp, tracer) -> TracedRequest:
        problems = []
        # The journal's cost: the same request without checkpoint_dir.
        start = time.perf_counter()
        plain = self._sweep(self._stimulus(inp), measure_eye_heights,
                            sweep_reducers(), None)
        t_plain = time.perf_counter() - start

        measured = {}

        def measure(batch, params):
            measured[(params[0][CORNER_AXIS], params[0]["draw"])] = batch.data
            with tracer.span("sweep.measure"):
                with tracer.span("eye"):
                    eyes = measure_eye_batch(batch, BIT_RATE,
                                             skip_ui=SWEEP_SKIP_UI)
                return [eye.eye_height for eye in eyes]

        reducers = {name: TracedReducer(reducer, tracer)
                    for name, reducer in sweep_reducers().items()}
        stimulus = tracer.wrap("sweep.stimulus", self._stimulus(inp))
        journal = self._fresh_dir()
        start = time.perf_counter()
        traced_out = self._sweep(stimulus, measure, reducers, journal)
        seconds = time.perf_counter() - start
        shutil.rmtree(journal, ignore_errors=True)

        # Stack and process, replayed on the chunks the sweep measured.
        plain_stimulus = self._stimulus(inp)
        for corner in CORNERS:
            session = self.corner_sessions[corner]
            for first in range(0, self.draws, self.chunk):
                waves = [plain_stimulus({CORNER_AXIS: corner, "draw": d})
                         for d in range(first,
                                        min(first + self.chunk, self.draws))]
                with tracer.span("sweep.stack"):
                    batch = WaveformBatch.stack(waves)
                with tracer.span("sweep.process"):
                    with tracer.span("tx"):
                        wave = session.transmitter.process(batch)
                    with tracer.span("rx"):
                        wave = session.receiver.process(wave)
                seen = measured.get((corner, first))
                if seen is None or not _same(wave.data, seen):
                    problems.append(f"replayed chunk ({corner}, {first}) "
                                    "differs from the one the sweep measured")
        return TracedRequest(seconds, {"plain": plain, "traced": traced_out,
                                       "plain_seconds": t_plain}, problems)

    def mismatches(self, traced: TracedRequest, out) -> List[str]:
        return [f"{kind} sweep aggregates differ from the facade's"
                for kind in ("plain", "traced")
                if traced.result[kind] != out]

    def derived_seconds(self, traced: TracedRequest,
                        t_request: float) -> Dict[str, float]:
        return {"sweep.journal": t_request - traced.result["plain_seconds"]}


# ---------------------------------------------------------------------------
# stat_eye: the interactive statistical-eye query.
# ---------------------------------------------------------------------------

class StatEyeQuery(Workload):
    name = "stat_eye"
    why = ("statistical_eye BER query on the common chain; pulse "
           "extraction and the stateye engine only")
    residual = "stateye.facade"
    exact_keys = frozenset({"eye_width_ui_1e-12", "eye_width_ui_1e-6"})
    samples_per_bit = 32

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.session = common_session()
        engine = StatEye()
        self.grid_points = (engine.n_phases * engine.n_voltages
                            * (engine.n_precursors + 1
                               + engine.n_postcursors))

    def make_input(self, index: int):
        rng = request_rng(self.seed, index)
        return (float(rng.uniform(4e-3, 10e-3)),
                float(rng.uniform(0.005, 0.02)))

    def request(self, inp):
        noise_rms, rj_rms_ui = inp
        return self.session.statistical_eye(
            noise_rms=noise_rms, rj_rms_ui=rj_rms_ui, amplitude=AMPLITUDE)

    def summary(self, out) -> Dict:
        return {
            "eye_width_ui_1e-12": float(out.eye_width_ui_at(1e-12)),
            "eye_width_ui_1e-6": float(out.eye_width_ui_at(1e-6)),
            "eye_height_v_1e-12": float(out.eye_height_at(1e-12)),
            "bathtub_ber": [float(v) for v in out.bathtub().ber],
        }

    def invariants(self, out) -> List[str]:
        problems = []
        ber = np.asarray(out.bathtub().ber)
        if not (0.0 < ber.min() <= 0.5 and ber.max() <= 0.5):
            problems.append(f"BER {ber.min()!r} outside (0, 0.5]")
        # Start the periodic curve at the crossing (its maximum).
        ber = np.roll(ber, -int(np.argmax(ber)))
        bottom = int(np.argmin(ber))
        if np.any(np.diff(ber[:bottom + 1]) > BATHTUB_TOL) \
                or np.any(np.diff(ber[bottom:]) < -BATHTUB_TOL):
            problems.append("bathtub edges not monotone")
        if not out.eye_width_ui_at(1e-12) > 0:
            problems.append("eye closed at BER 1e-12")
        return problems

    def traced(self, inp, tracer) -> TracedRequest:
        noise_rms, rj_rms_ui = inp
        s = self.session
        start = time.perf_counter()
        engine = StatEye(modulation=s.modulation, noise_rms=noise_rms,
                         rj_rms_ui=rj_rms_ui)
        with tracer.span("pulse"):
            pulse = pulse_response(
                s, s.bit_rate, samples_per_bit=self.samples_per_bit,
                n_lead_bits=max(4, engine.n_precursors + 4),
                n_lag_bits=max(8, engine.n_postcursors + 4),
                amplitude=AMPLITUDE)
        with tracer.span("stateye"):
            layered = engine.analyze(pulse)
        return TracedRequest(time.perf_counter() - start, layered)

    def mismatches(self, traced: TracedRequest, out) -> List[str]:
        return [f"layer-by-layer stateye {name} differs from the facade"
                for name in ("surfaces", "voltages", "phases_ui")
                if not _same(getattr(traced.result, name),
                             getattr(out, name))]


WORKLOADS = {cls.name: cls
             for cls in (LinkBatch, LinkSingle, YieldSweep, StatEyeQuery)}
