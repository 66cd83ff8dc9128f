"""Statistical eye/BER engine: invariants, cross-validation, wiring.

The engine computes exact ISI distributions by FFT convolution, so the
tests pin mathematical invariants (PDF normalization, monotonicity
toward the eye edges, convolution order/chunking invariance, the
NRZ == middle-PAM4-sub-eye degenerate) and cross-validate the reported
BER against the independent time-domain path in the regime both can
reach (BER >= 1e-4), for NRZ and PAM4 over several channels.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
import serial_oracles as oracle
from repro import LinkSession, StatEye
from repro.stateye import StatEyeBatchResult, StatEyeResult
from repro.analysis.ber import bathtub_from_waveform, ber_from_eye
from repro.analysis.isi import PulseResponse, pulse_response
from repro.channel.backplane import BackplaneChannel
from repro.link.session import ChannelConfig, RxConfig, TxConfig
from repro.reporting import render_bathtub, render_stateye
from repro.signals.modulation import Modulation, Nrz, Pam4, SymbolEncoder
from repro.signals.noise import add_awgn
from repro.signals.nrz import bits_to_nrz
from repro.signals.prbs import prbs7, prbs15
from repro.signals.waveform import Waveform
from repro.stateye import engine as engine_module
from repro.stateye import result as result_module

BIT_RATE = 10e9


def _pulse(length_m=0.3, amplitude=0.4):
    return pulse_response(BackplaneChannel(length_m), BIT_RATE,
                          amplitude=amplitude)


def _flat_pulse(amplitude, spb=8):
    """A zero-ISI pulse: one triangular UI-wide peak, zeros elsewhere."""
    data = np.zeros(6 * spb)
    peak = 3 * spb
    data[peak - spb // 2: peak + spb // 2 + 1] = amplitude * (
        1.0 - np.abs(np.arange(-(spb // 2), spb // 2 + 1)) / spb)
    return PulseResponse.from_waveform(Waveform(data, BIT_RATE * spb),
                                       BIT_RATE)


# -- invariants ---------------------------------------------------------------

def test_isi_pdf_sums_to_one():
    engine = StatEye(noise_rms=5e-3)
    voltages, pdf = engine.isi_distribution(_pulse())
    assert pdf.shape == (engine.n_phases, engine.n_voltages)
    assert np.all(pdf > -1e-12)
    np.testing.assert_allclose(pdf.sum(axis=-1), 1.0, atol=1e-12)


def test_isi_pdf_sums_to_one_pam4():
    engine = StatEye(modulation=Pam4(), noise_rms=5e-3)
    _, pdf = engine.isi_distribution(_pulse())
    np.testing.assert_allclose(pdf.sum(axis=-1), 1.0, atol=1e-12)


def test_surface_monotone_toward_eye_edges():
    # Where the eye is open the two conditional distributions are
    # separated, so moving the threshold away from the optimum can only
    # raise the BER (at closed phases the overlapping modes make the
    # surface legitimately humped, so those are excluded).
    result = StatEye(noise_rms=8e-3).analyze(_pulse())
    surf = result.ber_surface()
    checked = 0
    for p in range(result.n_phases):
        row = surf[p]
        best = int(np.argmin(row))
        if row[best] > 1e-6:
            continue
        checked += 1
        assert np.all(np.diff(row[best:]) >= -1e-12)
        assert np.all(np.diff(row[:best + 1]) <= 1e-12)
    assert checked >= result.n_phases // 4


def test_isi_spectrum_order_invariance():
    # The ISI convolution is a commutative product of per-cursor
    # factors: permuting the non-main cursors must not change it.
    engine = StatEye(n_precursors=2, n_postcursors=3, n_voltages=128)
    rng = np.random.default_rng(5)
    cursors = rng.normal(scale=0.05, size=(2, engine.n_phases, 6))
    cursors[:, :, 2] = 0.4  # main column
    dv = 0.01
    base = engine._isi_spectrum(cursors, dv)
    order = [4, 0, 5, 3, 1]
    permuted = cursors.copy()
    permuted[:, :, [0, 1, 3, 4, 5]] = cursors[:, :, order]
    np.testing.assert_allclose(engine._isi_spectrum(permuted, dv), base,
                               atol=1e-12)


def test_isi_spectrum_cursor_chunking_invariance():
    # Splitting the cursor set into two groups and multiplying their
    # spectra equals convolving everything at once (zero cursors are
    # identity factors, so zeroing a column removes it from the
    # product).
    engine = StatEye(n_precursors=2, n_postcursors=3, n_voltages=128)
    rng = np.random.default_rng(6)
    cursors = rng.normal(scale=0.04, size=(1, engine.n_phases, 6))
    cursors[:, :, 2] = 0.4
    dv = 0.01
    pre_only = cursors.copy()
    pre_only[:, :, 3:] = 0.0
    post_only = cursors.copy()
    post_only[:, :, :2] = 0.0
    np.testing.assert_allclose(
        engine._isi_spectrum(pre_only, dv) * engine._isi_spectrum(
            post_only, dv),
        engine._isi_spectrum(cursors, dv), atol=1e-12)


def test_scenario_chunking_invariance():
    pulses = [_pulse(d) for d in (0.1, 0.3, 0.5)]
    engine = StatEye(noise_rms=8e-3, rj_rms_ui=0.01, dj_pp_ui=0.04)
    whole = engine.analyze_batch(pulses)
    chunked = engine.analyze_batch(pulses, chunk_scenarios=1)
    np.testing.assert_allclose(chunked.surfaces, whole.surfaces, atol=1e-12)
    np.testing.assert_allclose(chunked.min_bers, whole.min_bers, atol=1e-15)
    np.testing.assert_allclose(chunked.bathtubs, whole.bathtubs, atol=1e-12)


def test_nrz_equals_middle_pam4_sub_eye_degenerate():
    # With zero ISI (cursor span 1 UI) an NRZ eye of swing A and the
    # middle PAM4 sub-eye of swing 3A see identical level separations
    # (A * c0), so on a pinned shared grid the surfaces must coincide.
    amplitude = 0.2
    common = dict(n_precursors=0, n_postcursors=0, noise_rms=10e-3,
                  v_half_span=0.5)
    nrz = StatEye(modulation=Nrz(), **common).analyze(
        _flat_pulse(amplitude))
    pam4 = StatEye(modulation=Pam4(), **common).analyze(
        _flat_pulse(3 * amplitude))
    np.testing.assert_array_equal(nrz.voltages, pam4.voltages)
    np.testing.assert_allclose(pam4.surfaces[1], nrz.surfaces[0],
                               atol=1e-12)


def test_batch_summaries_match_rows():
    pulses = [_pulse(d) for d in (0.2, 0.5)]
    engine = StatEye(noise_rms=8e-3)
    batch = engine.analyze_batch(pulses)
    for i, row in enumerate(batch.rows()):
        assert batch.min_bers[i] == row.ber
        assert batch.best_phases_ui[i] == row.best_phase_ui
        assert batch.eye_heights[i] == row.eye_height_at()
        assert batch.eye_widths_ui[i] == row.eye_width_ui_at()
        np.testing.assert_array_equal(batch.bathtubs[i], row.bathtub().ber)


def test_keep_surfaces_false_drops_surfaces_only():
    pulses = [_pulse(d) for d in (0.2, 0.5)]
    engine = StatEye(noise_rms=8e-3)
    full = engine.analyze_batch(pulses)
    slim = engine.analyze_batch(pulses, keep_surfaces=False)
    assert slim.surfaces is None
    np.testing.assert_array_equal(slim.min_bers, full.min_bers)
    np.testing.assert_array_equal(slim.bathtubs, full.bathtubs)
    assert slim.bathtub(0).minimum_ber() == full.bathtub(0).minimum_ber()
    with pytest.raises(ValueError, match="keep_surfaces"):
        slim.row(0)


def test_batch_concatenate_round_trip():
    pulses = [_pulse(d) for d in (0.1, 0.3, 0.5)]
    engine = StatEye(noise_rms=8e-3)
    whole = engine.analyze_batch(pulses)
    parts = [engine.analyze_batch([p]) for p in pulses]
    with pytest.raises(ValueError, match="v_half_span|grid|disagree"):
        StatEyeBatchResult.concatenate(parts)  # per-call grids differ
    pinned = StatEye(noise_rms=8e-3, v_half_span=0.6)
    parts = [pinned.analyze_batch([p]) for p in pulses]
    merged = StatEyeBatchResult.concatenate(parts)
    assert merged.n_scenarios == 3
    np.testing.assert_allclose(
        merged.min_bers, pinned.analyze_batch(pulses).min_bers, atol=1e-15)


@pytest.mark.parametrize("field, value", [
    ("noise_rms", 1e-2), ("rj_rms_ui", 0.01), ("dj_pp_ui", 0.02),
    ("target_ber", 1e-6), ("ber_floor", 1e-16)])
def test_batch_concatenate_rejects_mixed_engine_settings(field, value):
    # Same pinned grid, one differing engine field: the merged result
    # could only report one of the two settings, so it must refuse.
    pulse = _pulse(0.3)
    base = StatEye(noise_rms=4e-3, v_half_span=0.6)
    parts = [base.analyze_batch([pulse]),
             dataclasses.replace(base, **{field: value}).analyze_batch(
                 [pulse])]
    with pytest.raises(ValueError, match=field):
        StatEyeBatchResult.concatenate(parts)


def test_batch_concatenate_rejects_mixed_phase_grids():
    # Shared grids are checked before any column stacks: chunks with 64
    # and 32 phases are refused by name, not by a shape error from the
    # bathtubs sized by those phases.
    pulse = _pulse(0.3)
    parts = [StatEye(noise_rms=4e-3, v_half_span=0.6, n_phases=n)
             .analyze_batch([pulse]) for n in (64, 32)]
    with pytest.raises(ValueError, match="chunks disagree on 'phases_ui'"):
        StatEyeBatchResult.concatenate(parts)


# -- sub-bin cursor grouping against the per-cursor oracle --------------------

def _engine_pdf(engine, cursors, dv):
    spectrum = engine._isi_spectrum(cursors, dv)
    return np.roll(np.fft.irfft(spectrum, n=engine.n_voltages, axis=-1),
                   engine.n_voltages // 2, axis=-1)


def _reach_bins(engine, cursors, dv):
    """max|level| * |c_k| / dv of every non-main cursor."""
    isi = np.delete(cursors, engine.n_precursors, axis=-1)
    return np.max(np.abs(engine.modulation.levels)) * np.abs(isi) / dv


def _cursor_case(case, n_voltages=129):
    """(engine kwargs, cursor tensor, dv) of one grouping case."""
    rng = np.random.default_rng(["all", "none", "mixed", "wrap"].index(case))
    dv = 1e-3
    shape = (2, 8, 7)
    signs = rng.choice([-1.0, 1.0], size=shape)
    if case == "all":
        bins = rng.uniform(0.0, 1.9, size=shape)
    elif case == "none":
        bins = rng.uniform(2.5, 12.0, size=shape)
    elif case == "mixed":
        bins = rng.uniform(0.0, 1.9, size=shape)
        # Column 4 crosses the one-bin line along the phase axis.
        bins[:, :, 4] = np.linspace(0.2, 8.0, shape[0] * shape[1]).reshape(
            shape[:2])
    else:
        # 14 sub-bin cursors: the 29-tap array folds onto 17 bins.
        shape = (1, 8, 15)
        signs = rng.choice([-1.0, 1.0], size=shape)
        bins = rng.uniform(0.5, 1.9, size=shape)
        n_voltages = 17
    cursors = signs * bins * dv
    cursors[:, :, 2] = 0.3  # main column
    kwargs = dict(n_precursors=2, n_postcursors=shape[-1] - 3,
                  n_voltages=n_voltages)
    return kwargs, cursors, dv


@pytest.mark.parametrize("modulation", [Nrz(), Pam4()], ids=["nrz", "pam4"])
@pytest.mark.parametrize("case", ["all", "none", "mixed", "wrap"])
def test_isi_spectrum_matches_per_cursor_oracle(case, modulation):
    kwargs, cursors, dv = _cursor_case(case)
    engine = StatEye(modulation=modulation, **kwargs)
    narrow = _reach_bins(engine, cursors, dv) < 1.0
    if case == "all":
        assert narrow.all()
    elif case == "none":
        assert not narrow.any()
    elif case == "mixed":
        assert narrow[..., 3].any() and not narrow[..., 3].all()
    else:
        assert 2 * narrow.all(axis=(0, 1)).sum() + 1 > engine.n_voltages
    pdf = _engine_pdf(engine, cursors, dv)
    want = oracle.isi_pdf(engine, cursors, dv, engine.n_voltages // 2)
    np.testing.assert_allclose(pdf, want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(pdf.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("modulation", [Nrz(), Pam4()], ids=["nrz", "pam4"])
def test_isi_distribution_matches_per_cursor_oracle(modulation):
    engine = StatEye(modulation=modulation, noise_rms=5e-3)
    pulse = _pulse(0.6)
    voltages, pdf = engine.isi_distribution(pulse)
    cursors, _ = engine._cursor_tensor([pulse])
    dv, origin, grid = engine._grid(cursors)
    np.testing.assert_array_equal(voltages, grid)
    reach = _reach_bins(engine, cursors, dv)
    assert (reach < 1.0).any() and (reach >= 1.0).any()
    np.testing.assert_allclose(
        pdf, oracle.isi_pdf(engine, cursors, dv, origin)[0], rtol=0,
        atol=1e-15)


@pytest.mark.parametrize("modulation", [Nrz(), Pam4()], ids=["nrz", "pam4"])
def test_mixed_batch_rows_bit_identical_to_single_calls(modulation):
    # Each scenario has cursors that are sub-bin on its rows but wide
    # on another scenario's: the grouping is per row, so a batch row is
    # bit for bit the single-pulse analysis on the same pinned grid.
    pulses = [_pulse(d) for d in (0.1, 0.3, 0.6, 1.0)]
    engine = StatEye(modulation=modulation, noise_rms=6e-3, rj_rms_ui=0.01,
                     v_half_span=0.8)
    cursors, _ = engine._cursor_tensor(pulses)
    dv, _, _ = engine._grid(cursors)
    narrow = _reach_bins(engine, cursors, dv) < 1.0
    assert any(narrow[:, :, k].any() and not narrow[:, :, k].all()
               for k in range(narrow.shape[-1]))
    batch = engine.analyze_batch(pulses)
    for i, pulse in enumerate(pulses):
        single = engine.analyze(pulse)
        np.testing.assert_array_equal(batch.surfaces[i], single.surfaces)
        np.testing.assert_array_equal(batch.voltages, single.voltages)
        assert batch.min_bers[i] == single.ber
        assert batch.eye_widths_ui[i] == single.eye_width_ui_at()


@settings(max_examples=40, deadline=None)
@given(pam4=st.booleans(),
       n_pre=st.integers(0, 3), n_post=st.integers(0, 6),
       n_voltages=st.sampled_from([16, 33, 64, 129]),
       seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.3, 1.5, 4.0]))
def test_isi_spectrum_property(pam4, n_pre, n_post, n_voltages, seed,
                               scale):
    # Random cursor tensors with exact zeros and spikes on both sides
    # of the one-bin line: the PDF keeps unit mass and matches the
    # per-cursor oracle.
    engine = StatEye(modulation=Pam4() if pam4 else Nrz(),
                     n_precursors=n_pre, n_postcursors=n_post,
                     n_voltages=n_voltages)
    rng = np.random.default_rng(seed)
    dv = 1e-3
    shape = (2, 4, n_pre + n_post + 1)
    cursors = rng.normal(scale=scale * dv, size=shape)
    cursors[rng.random(shape) < 0.2] = 0.0
    pdf = _engine_pdf(engine, cursors, dv)
    want = oracle.isi_pdf(engine, cursors, dv, n_voltages // 2)
    np.testing.assert_allclose(pdf.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pdf, want, rtol=0, atol=1e-15)


# -- mirrored level pairs against the per-level oracle -------------------------

# A 4-level alphabet with no +-level pairs: every level gets its own PDF.
SKEWED = Modulation(name="skewed", levels=(-0.5, -0.2, 0.1, 0.5))
MODULATIONS = [Nrz(), Pam4(), SKEWED]
JITTER = {"none": {}, "rj": {"rj_rms_ui": 0.02}, "dj": {"dj_pp_ui": 0.1}}


def _surface_case(grid, modulation, jitter):
    """(engine, cursors, dv, origin): the sub-bin/wide cursor mix of
    :func:`_cursor_case` with a main cursor that sweeps across the grid
    along the phase axis, and noise of a few bins."""
    kwargs, cursors, dv = (_cursor_case("wrap") if grid == "wrap"
                           else _cursor_case("mixed", grid))
    m = kwargs["n_voltages"]
    cursors[:, :, 2] = np.linspace(0.1, 0.6, cursors.shape[1]) * m * dv
    engine = StatEye(modulation=modulation, n_phases=cursors.shape[1],
                     noise_rms=2.5 * dv, **kwargs, **JITTER[jitter])
    return engine, cursors, dv, m // 2


@pytest.mark.parametrize("jitter", sorted(JITTER))
@pytest.mark.parametrize("grid", [129, 128, "wrap"])
@pytest.mark.parametrize("modulation", MODULATIONS,
                         ids=[mod.name for mod in MODULATIONS])
def test_surfaces_match_per_level_oracle(modulation, grid, jitter,
                                         monkeypatch):
    engine, cursors, dv, origin = _surface_case(grid, modulation, jitter)
    if grid == "wrap":
        assert engine.n_voltages == 17
    ramps = []
    ramp = engine_module._phase_ramp

    def counted_ramp(omega, offset):
        ramps.append(offset)
        return ramp(omega, offset)

    monkeypatch.setattr(engine_module, "_phase_ramp", counted_ramp)
    got = engine._surfaces(cursors, dv, origin)
    # One conditional PDF per +-level pair; the skewed alphabet has no
    # pairs and computes each level on its own.
    n_levels = modulation.n_levels
    assert len(ramps) == (n_levels if modulation is SKEWED
                          else n_levels // 2)
    want = oracle.stateye_surfaces(engine, cursors, dv, origin)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_mirror_pairs_rows_independent_of_batch():
    # The circulant jitter fold and the mirrored tails work per
    # (scenario, eye) surface: a row is bit for bit the same alone.
    engine, cursors, dv, origin = _surface_case(128, Pam4(), "rj")
    whole = engine._surfaces(cursors, dv, origin)
    for i in range(cursors.shape[0]):
        np.testing.assert_array_equal(
            engine._surfaces(cursors[i:i + 1], dv, origin)[0], whole[i])


@settings(deadline=None)
@given(modulation=st.sampled_from(MODULATIONS),
       n_pre=st.integers(0, 3), n_post=st.integers(0, 6),
       n_voltages=st.sampled_from([16, 17, 64, 65, 128, 129]),
       jitter=st.sampled_from(sorted(JITTER)),
       seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.3, 1.5, 4.0]))
def test_surfaces_property(modulation, n_pre, n_post, n_voltages, jitter,
                           seed, scale):
    # Random cursor tensors, grids of both parities and every jitter
    # kind: the paired surfaces match the per-level oracle.  The
    # example count comes from the active hypothesis profile.
    engine = StatEye(modulation=modulation, n_phases=8,
                     n_precursors=n_pre, n_postcursors=n_post,
                     n_voltages=n_voltages, noise_rms=1.5e-3,
                     **JITTER[jitter])
    rng = np.random.default_rng(seed)
    dv = 1e-3
    shape = (2, engine.n_phases, n_pre + n_post + 1)
    cursors = rng.normal(scale=scale * dv, size=shape)
    cursors[rng.random(shape) < 0.2] = 0.0
    cursors[:, :, n_pre] = rng.uniform(0.0, 0.5, size=shape[:2]) \
        * n_voltages * dv
    origin = n_voltages // 2
    np.testing.assert_allclose(
        engine._surfaces(cursors, dv, origin),
        oracle.stateye_surfaces(engine, cursors, dv, origin),
        rtol=0, atol=1e-15)


# -- contours, bathtubs, optimum ----------------------------------------------

def test_contour_and_heights():
    result = StatEye(noise_rms=8e-3).analyze(_pulse(0.3))
    lower, upper = result.contour(1e-9)
    open_mask = np.isfinite(lower)
    assert open_mask.any()
    assert np.all(upper[open_mask] >= lower[open_mask])
    # Tighter targets can only shrink the eye.
    assert result.eye_height_at(1e-12) <= result.eye_height_at(1e-6)
    assert result.eye_width_ui_at(1e-12) <= result.eye_width_ui_at(1e-6)
    assert 0.0 < result.eye_height_at(1e-12)
    with pytest.raises(ValueError):
        result.contour(0.7)
    with pytest.raises(ValueError):
        result.ber_surface(eye=3)


def test_deep_tail_reachable():
    # The whole point: contours at 1e-15, far beyond pattern counting.
    result = StatEye(noise_rms=4e-3).analyze(_pulse(0.1))
    assert result.eye_height_at(1e-15) > 0.0
    assert result.eye_width_ui_at(1e-15) > 0.0
    tub = result.bathtub()
    assert np.all(np.isfinite(tub.ber))
    assert tub.minimum_ber() >= result.ber_floor


def test_jitter_widens_bathtub():
    pulse = _pulse(0.3)
    clean = StatEye(noise_rms=8e-3).analyze(pulse)
    jittery = StatEye(noise_rms=8e-3, rj_rms_ui=0.02,
                      dj_pp_ui=0.1).analyze(pulse)
    assert jittery.eye_width_ui_at(1e-9) < clean.eye_width_ui_at(1e-9)
    assert jittery.ber >= clean.ber


def test_pam4_has_three_sub_eyes_and_worst_is_reported():
    result = StatEye(modulation=Pam4(), noise_rms=6e-3).analyze(_pulse(0.2))
    assert result.n_eyes == 3
    worst = result.worst_eye_index()
    assert result.min_ber(worst) == max(result.min_ber(e) for e in range(3))
    # Combined BER uses all sub-eyes and can only exceed the per-eye
    # floor contribution of the worst one.
    assert result.ber > 0.0


# -- summaries over the surface stack against the per-row oracle -------------

SUMMARY_TARGETS = (1e-6, 1e-12, 1e-15)


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got, want,
                                                      equal_nan=True)


@pytest.mark.parametrize("modulation", [Nrz(), Pam4()], ids=["nrz", "pam4"])
def test_summaries_match_serial_oracle(modulation):
    # Four channels from a wide-open eye to a closed one, on a coarse
    # grid where the fixed threshold misses 1e-15 at some phases that
    # are open elsewhere (the fallback anchor).  Every accessor and
    # every batch column equals the phase-by-phase oracle bit for bit.
    pulses = [_pulse(d) for d in (0.1, 0.3, 0.6, 1.0)]
    engine = StatEye(modulation=modulation, n_voltages=129, noise_rms=4e-3,
                     rj_rms_ui=0.01)
    batch = engine.analyze_batch(pulses)
    chunked = engine.analyze_batch(pulses, chunk_scenarios=3,
                                   keep_surfaces=False)
    eyes = [None] + list(range(modulation.n_eyes))
    fallback = closed = 0
    for i, row in enumerate(batch.rows()):
        serial = oracle.SerialStatEye(row)
        vi = serial.best_threshold_indices()
        assert _same(row.best_threshold_indices(), vi)
        assert _same(row.best_thresholds, serial.best_thresholds())
        assert row.best_phase_ui == serial.best_phase_ui()
        assert row.ber == serial.ber()
        assert _same(row.combined_phase_ber(), serial.combined_phase_ber())
        assert row.worst_eye_index() == serial.worst_eye_index()
        default = engine.target_ber
        for column, want in (
                ("min_bers", serial.ber()),
                ("best_phases_ui", serial.best_phase_ui()),
                ("best_thresholds", serial.best_thresholds()),
                ("eye_heights", serial.eye_height_at(default)),
                ("eye_widths_ui", serial.eye_width_ui_at(default)),
                ("bathtubs", serial.bathtub())):
            assert _same(getattr(batch, column)[i], want), column
            assert _same(getattr(chunked, column)[i], want), column
        for eye in eyes:
            assert row.min_ber(eye) == serial.min_ber(eye)
            assert _same(row.bathtub(eye).ber, serial.bathtub(eye))
            for target in SUMMARY_TARGETS:
                lower, upper = row.contour(target, eye)
                want_lower, want_upper = serial.contour(target, eye)
                assert _same(lower, want_lower) and _same(upper, want_upper)
                height = row.eye_height_at(target, eye)
                assert height == serial.eye_height_at(target, eye)
                assert row.eye_width_ui_at(target, eye) == \
                    serial.eye_width_ui_at(target, eye)
                if eye is None:
                    continue
                missed = row.surfaces[eye][:, vi[eye]] > target
                fallback += int(np.sum(missed & np.isfinite(lower)))
                if np.isnan(lower).all():
                    closed += 1
                    assert height == 0.0 and np.isnan(upper).all()
    assert fallback > 0 and closed > 0


@st.composite
def _plateau_rows(draw):
    """(rows, anchors, target): rows on a few levels (plateaus, ties by
    the 1e-15 absolute rule, ties apart from each other) and one anchor
    per row, the edge bins drawn often."""
    n = draw(st.integers(1, 24))
    rows = draw(st.lists(
        st.lists(st.sampled_from([0.0, 4e-16, 1e-15, 3e-15, 1e-12, 0.2,
                                  0.3]), min_size=n, max_size=n),
        min_size=1, max_size=6))
    edge = st.sampled_from([0, n - 1])
    anchors = draw(st.lists(edge | st.integers(0, n - 1),
                            min_size=len(rows), max_size=len(rows)))
    return rows, anchors, draw(st.sampled_from([5e-16, 2e-15, 1e-12, 0.25]))


@settings(deadline=None)
@given(case=_plateau_rows())
@example(case=([[0.0, 0.0, 0.0]], [0], 0.25))                 # all open
@example(case=([[0.3, 0.3, 0.3, 0.3]], [3], 1e-12))           # all shut
@example(case=([[0.0, 1e-12, 4e-16, 0.3, 0.0, 1e-15]], [5], 5e-16))
@example(case=([[0.3, 0.0, 0.3, 1e-15, 0.0, 0.3, 0.0]], [0], 2e-15))
def test_run_finder_and_flat_center_property(case):
    # The stack's tie rule and contour runs equal the scalar argmin and
    # run walk, fallback anchor included.  The example count comes from
    # the active hypothesis profile.
    rows, anchors, target = case
    values = np.array(rows)
    voltages = np.arange(values.shape[1], dtype=float)
    np.testing.assert_array_equal(
        result_module._flat_center_argmin(values),
        [oracle.flat_center_argmin(row) for row in values])
    lower, upper = result_module._contours(values, np.array(anchors),
                                           voltages, target)
    for row, anchor, lo, hi in zip(values, anchors, lower, upper):
        mask = row <= target
        run = oracle.open_run(mask, anchor)
        if run is None:
            run = oracle.open_run(mask, oracle.flat_center_argmin(row))
        want = (np.nan, np.nan) if run is None else run
        assert _same([lo, hi], want)


# -- cross-validation against the time-domain path ----------------------------

@pytest.mark.parametrize("length_m,amplitude,noise_rms", [
    (0.1, 0.4, 0.05),
    (0.3, 0.4, 0.035),
    (0.5, 0.4, 0.028),
])
def test_cross_validation_nrz(length_m, amplitude, noise_rms):
    channel = BackplaneChannel(length_m)
    stat = StatEye(noise_rms=noise_rms).analyze(
        pulse_response(channel, BIT_RATE, amplitude=amplitude)).ber
    wave = channel.process(bits_to_nrz(prbs15(4000, seed=2), BIT_RATE,
                                       amplitude=amplitude,
                                       samples_per_bit=32))
    td = ber_from_eye(add_awgn(wave, noise_rms, seed=7), BIT_RATE)
    assert stat >= 1e-4 and td >= 1e-4
    assert abs(np.log10(stat) - np.log10(td)) <= 0.5


@pytest.mark.parametrize("length_m,amplitude,noise_rms", [
    (0.05, 0.4, 0.02),
    (0.1, 0.4, 0.018),
    (0.2, 0.5, 0.02),
])
def test_cross_validation_pam4(length_m, amplitude, noise_rms):
    channel = BackplaneChannel(length_m)
    stat = StatEye(modulation=Pam4(), noise_rms=noise_rms).analyze(
        pulse_response(channel, BIT_RATE, amplitude=amplitude)).ber
    encoder = SymbolEncoder(symbol_rate=BIT_RATE, modulation=Pam4(),
                            amplitude=amplitude, samples_per_symbol=32)
    wave = channel.process(encoder.encode_bits(prbs15(8000, seed=3)))
    td = ber_from_eye(add_awgn(wave, noise_rms, seed=11), BIT_RATE,
                      modulation=Pam4())
    assert stat >= 1e-4 and td >= 1e-4
    assert abs(np.log10(stat) - np.log10(td)) <= 0.5


# -- session facade -----------------------------------------------------------

def test_session_statistical_eye_matches_direct_path():
    session = LinkSession.from_configs(TxConfig(), ChannelConfig(0.3),
                                       RxConfig())
    via_session = session.statistical_eye(noise_rms=8e-3, amplitude=0.4)
    engine = StatEye(noise_rms=8e-3)
    direct = engine.analyze(pulse_response(
        session, session.bit_rate, samples_per_bit=32,
        n_lead_bits=max(4, engine.n_precursors + 4),
        n_lag_bits=max(8, engine.n_postcursors + 4), amplitude=0.4))
    assert isinstance(via_session, StatEyeResult)
    np.testing.assert_array_equal(via_session.surfaces, direct.surfaces)


def test_session_statistical_eye_engine_overrides():
    session = LinkSession.from_configs(TxConfig(), ChannelConfig(0.2),
                                       RxConfig())
    base = StatEye(noise_rms=5e-3, n_phases=32)
    result = session.statistical_eye(base, amplitude=0.4, noise_rms=20e-3)
    assert result.noise_rms == 20e-3
    assert result.n_phases == 32


def test_session_statistical_eye_modulation_override():
    # An explicit modulation= wins over the session's, like any field.
    session = LinkSession.from_configs(TxConfig(), ChannelConfig(0.2),
                                       RxConfig())
    result = session.statistical_eye(modulation=Pam4(), noise_rms=5e-3,
                                     amplitude=0.4)
    assert result.modulation == Pam4()
    assert result.n_eyes == 3
    via_engine = session.statistical_eye(
        StatEye(modulation=Pam4(), noise_rms=5e-3), amplitude=0.4)
    np.testing.assert_array_equal(result.surfaces, via_engine.surfaces)


# -- validation / exports -----------------------------------------------------

@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["noise_rms", "rj_rms_ui", "dj_pp_ui",
                                   "v_half_span"])
def test_engine_rejects_non_finite_settings(field, value):
    # NaN noise or span used to give all-NaN surfaces (min_ber nan), an
    # infinite span a non-finite voltage axis, and a NaN RJ ran as zero.
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        StatEye(**{field: value})


def test_engine_rejects_invalid_grids():
    with pytest.raises(ValueError, match="phase resolution"):
        StatEye(n_phases=2)
    with pytest.raises(ValueError, match="voltage resolution"):
        StatEye(n_voltages=8)
    with pytest.raises(ValueError, match="cursor span"):
        StatEye(n_precursors=-1)
    with pytest.raises(ValueError, match="cursor span"):
        StatEye(n_postcursors=-1)
    with pytest.raises(ValueError, match="noise_rms"):
        StatEye(noise_rms=-1e-3)
    with pytest.raises(ValueError, match="dj_pp_ui"):
        StatEye(dj_pp_ui=1.0)
    with pytest.raises(ValueError, match="v_half_span"):
        StatEye(v_half_span=0.0)
    with pytest.raises(ValueError, match="target_ber"):
        StatEye(target_ber=0.0)


def test_engine_rejects_bad_inputs():
    engine = StatEye(noise_rms=5e-3)
    with pytest.raises(TypeError, match="PulseResponse"):
        engine.analyze(Waveform(np.zeros(64), 320e9))
    with pytest.raises(ValueError, match="at least one"):
        engine.analyze_batch([])
    with pytest.raises(ValueError, match="chunk_scenarios"):
        engine.analyze_batch([_pulse()], chunk_scenarios=0)
    with pytest.raises(ValueError, match="too small"):
        StatEye(v_half_span=1e-4).analyze(_pulse())
    with pytest.raises(ValueError, match="identically zero"):
        StatEye().analyze(PulseResponse.from_waveform(
            Waveform(np.zeros(64), BIT_RATE * 8), BIT_RATE))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_engine_rejects_non_finite_pulses(bad):
    good = _pulse()
    data = np.array(good.wave.data)
    data[data.size // 3] = bad
    pulse = PulseResponse.from_waveform(
        Waveform(data, good.wave.sample_rate), BIT_RATE)
    engine = StatEye(noise_rms=5e-3)
    with pytest.raises(ValueError, match="non-finite"):
        engine.analyze(pulse)
    with pytest.raises(ValueError, match="non-finite"):
        engine.analyze_batch([good, pulse])


def test_top_level_exports():
    assert "StatEye" in repro.__all__
    assert repro.StatEye is StatEye


def test_renderers():
    result = StatEye(noise_rms=8e-3).analyze(_pulse(0.3))
    art = render_stateye(result, title="stat eye")
    assert "stat eye" in art and "BER" in art
    assert len(art.splitlines()) == 23
    tub = render_bathtub(result.bathtub(), target_ber=1e-12)
    assert "1e" in tub
    with pytest.raises(ValueError):
        render_stateye(result, width=4)
    with pytest.raises(ValueError):
        render_bathtub(result.bathtub(), target_ber=0.9)


# -- satellite regressions ----------------------------------------------------

def test_pulse_response_from_waveform_matches_measured():
    channel = BackplaneChannel(0.3)
    measured = pulse_response(channel, BIT_RATE, amplitude=0.4)
    rebuilt = PulseResponse.from_waveform(measured.wave, BIT_RATE)
    np.testing.assert_array_equal(rebuilt.cursors, measured.cursors)
    assert rebuilt.cursor_index == measured.cursor_index
    with pytest.raises(ValueError, match="integer multiple"):
        PulseResponse.from_waveform(Waveform(np.ones(64), 1.5 * BIT_RATE),
                                    BIT_RATE)


def test_modulation_aware_isi_bounds():
    pulse = _pulse(0.5)
    # Two-level default is the historical formula, bit for bit.
    others = np.concatenate([pulse.precursors(), pulse.postcursors()])
    assert pulse.isi_sum() == float(np.sum(np.abs(others)))
    assert pulse.worst_case_opening() == pulse.main_cursor - pulse.isi_sum()
    # NRZ levels span 1.0, so the modulation-aware forms agree with it.
    assert pulse.isi_sum(Nrz()) == pytest.approx(pulse.isi_sum())
    assert pulse.worst_case_opening(Nrz()) == pytest.approx(
        pulse.worst_case_opening())
    # A PAM4 inner eye starts with a third of the separation but eats
    # the same ISI: its bound must be strictly tighter.
    assert pulse.worst_case_opening(Pam4()) < pulse.worst_case_opening()
    assert pulse.worst_case_opening(Pam4()) == pytest.approx(
        pulse.main_cursor / 3.0 - pulse.isi_sum(Pam4()))


def test_bathtub_near_closed_eye_stays_finite():
    # Heavy noise leaves few clean crossings per side; the dual-Dirac
    # fit must fall back to pooled statistics, never emit NaN/inf.
    wave = bits_to_nrz(prbs7(400, seed=1), BIT_RATE, amplitude=0.4,
                       samples_per_bit=32)
    noisy = add_awgn(wave, 0.12, seed=9)
    tub = bathtub_from_waveform(noisy, BIT_RATE)
    assert np.all(np.isfinite(tub.ber))
    assert np.all(tub.ber <= 0.5)
    assert tub.minimum_ber() > 1e-12  # nearly closed, not pristine
