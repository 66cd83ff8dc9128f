"""Device models: technology constants, MOSFETs, active inductors,
varactors and passives."""

import math

import numpy as np
import pytest

from repro.devices import (
    ActiveInductor,
    MosVaractor,
    Mosfet,
    SpiralInductor,
    TSMC180,
    Technology,
    neutralized_input_capacitance,
    nmos,
    pmos,
)


# -- technology -------------------------------------------------------------

def test_tsmc180_constants_are_physical():
    assert TSMC180.l_min == pytest.approx(0.18e-6)
    assert TSMC180.vdd == 1.8
    assert TSMC180.u_n_cox > TSMC180.u_p_cox  # electrons beat holes


def test_mobility_factor_decreases_with_temperature():
    hot = TSMC180.mobility_factor(400.0)
    cold = TSMC180.mobility_factor(250.0)
    assert hot < 1.0 < cold


def test_vth_decreases_with_temperature():
    assert TSMC180.vth(True, 400.0) < TSMC180.vth(True, 300.0)


def test_velocity_sat_overdrive_scales_with_length():
    assert TSMC180.v_sat_overdrive(0.36e-6) == pytest.approx(
        2 * TSMC180.v_sat_overdrive(0.18e-6)
    )


def test_technology_rejects_nonpositive():
    with pytest.raises(ValueError):
        Technology(name="bad", l_min=0.0, vdd=1.8, u_n_cox=1e-4,
                   u_p_cox=1e-4, vth_n=0.4, vth_p=0.4,
                   cox_per_area=8e-3, c_overlap_per_width=3e-10,
                   e_sat=4e6, lambda_per_length=2e-8)


# -- mosfet --------------------------------------------------------------

def test_nmos_ft_is_tens_of_ghz():
    device = nmos(20e-6, 0.18e-6, 2e-3)
    assert 15e9 < device.ft < 80e9


def test_gm_increases_with_current():
    low = nmos(20e-6, 0.18e-6, 0.5e-3)
    high = nmos(20e-6, 0.18e-6, 2e-3)
    assert high.gm > low.gm


def test_gm_id_efficiency_improves_at_low_overdrive():
    dense = nmos(10e-6, 0.18e-6, 2e-3)   # high current density
    sparse = nmos(80e-6, 0.18e-6, 2e-3)  # low current density
    assert sparse.gm / sparse.drain_current > dense.gm / dense.drain_current


def test_velocity_saturation_softens_gm():
    device = nmos(10e-6, 0.18e-6, 2e-3)
    square_law_gm = device.beta * device.v_overdrive
    assert device.gm < square_law_gm


def test_current_equation_consistency():
    # v_overdrive solves the velocity-saturated I-V: substituting back
    # must reproduce the drain current.
    device = nmos(20e-6, 0.18e-6, 1e-3)
    vov = device.v_overdrive
    v_sat = device.tech.v_sat_overdrive(device.length)
    reconstructed = 0.5 * device.beta * vov**2 / (1 + vov / v_sat)
    assert reconstructed == pytest.approx(device.drain_current, rel=1e-9)


def test_ro_from_channel_length_modulation():
    device = nmos(20e-6, 0.18e-6, 1e-3)
    assert device.ro == pytest.approx(1.0 / device.gds)
    longer = nmos(20e-6, 0.36e-6, 1e-3)
    assert longer.ro > device.ro


def test_capacitances_scale_with_width():
    small = nmos(10e-6, 0.18e-6, 1e-3)
    large = nmos(20e-6, 0.18e-6, 2e-3)
    assert large.cgs == pytest.approx(2 * small.cgs)
    assert large.cgd == pytest.approx(2 * small.cgd)


def test_scaled_preserves_overdrive():
    device = nmos(20e-6, 0.18e-6, 1e-3)
    double = device.scaled(2.0)
    assert double.v_overdrive == pytest.approx(device.v_overdrive)
    assert double.gm == pytest.approx(2 * device.gm)


def test_pmos_has_lower_gm_than_nmos():
    n = nmos(20e-6, 0.18e-6, 1e-3)
    p = pmos(20e-6, 0.18e-6, 1e-3)
    assert p.gm < n.gm


def test_temperature_lowers_gm():
    cold = nmos(20e-6, 0.18e-6, 1e-3, temperature_k=250.0)
    hot = nmos(20e-6, 0.18e-6, 1e-3, temperature_k=400.0)
    assert hot.gm < cold.gm
    assert nmos(20e-6, 0.18e-6, 1e-3).at_temperature(400.0).gm \
        == pytest.approx(hot.gm)


def test_mosfet_validation():
    with pytest.raises(ValueError):
        Mosfet(width=0.0, length=0.18e-6, drain_current=1e-3)
    with pytest.raises(ValueError):
        Mosfet(width=1e-6, length=0.1e-6, drain_current=1e-3)  # < L_min
    with pytest.raises(ValueError):
        Mosfet(width=1e-6, length=0.18e-6, drain_current=0.0)
    with pytest.raises(ValueError):
        nmos(1e-6, 0.18e-6, 1e-3).scaled(0.0)


# -- active inductor ---------------------------------------------------------

def make_inductor(rg=1200.0):
    return ActiveInductor(pmos(40e-6, 0.18e-6, 1e-3), gate_resistance=rg)


def test_active_inductor_dc_is_one_over_gm():
    load = make_inductor()
    assert load.r_dc == pytest.approx(1.0 / load.device.gm)


def test_active_inductor_inductive_condition():
    load = make_inductor(rg=1200.0)
    assert load.is_inductive
    assert load.l_effective > 0
    small_rg = make_inductor(rg=50.0)
    assert not small_rg.is_inductive
    assert small_rg.l_effective <= 0


def test_impedance_rises_between_zero_and_pole():
    load = make_inductor()
    f = np.array([load.zero_hz / 10, math.sqrt(load.zero_hz * load.pole_hz),
                  load.pole_hz * 10])
    z = np.abs(load.impedance(f))
    assert z[1] > z[0]  # rising = inductive
    assert z[2] == pytest.approx(load.gate_resistance, rel=0.2)


def test_zero_below_pole():
    load = make_inductor()
    assert load.zero_hz < load.pole_hz


def test_quality_factor_positive_in_band():
    load = make_inductor()
    f_mid = math.sqrt(load.zero_hz * load.pole_hz)
    assert load.quality_factor(f_mid) > 0.3


def test_scaling_width_lowers_rdc():
    load = make_inductor()
    double = load.scaled(2.0)
    assert double.r_dc == pytest.approx(load.r_dc / 2.0, rel=1e-6)


def test_with_gate_resistance():
    load = make_inductor().with_gate_resistance(2000.0)
    assert load.gate_resistance == 2000.0


def test_active_inductor_rejects_bad_rg():
    with pytest.raises(ValueError):
        ActiveInductor(pmos(10e-6, 0.18e-6, 1e-3), gate_resistance=0.0)


# -- varactor ----------------------------------------------------------------

def test_varactor_cv_curve_monotone():
    var = MosVaractor(4e-6, 0.5e-6)
    v = np.linspace(-1.0, 1.0, 21)
    c = var.capacitance(v)
    assert np.all(np.diff(c) > 0)


def test_varactor_at_zero_bias_is_large_fraction_of_oxide():
    # "a larger fraction of the gate oxide capacitance" near Vgs = 0.
    var = MosVaractor(4e-6, 0.5e-6)
    assert var.capacitance_at_zero_bias() > 0.6 * var.c_oxide


def test_varactor_tuning_ratio():
    var = MosVaractor(4e-6, 0.5e-6)
    assert var.tuning_ratio() == pytest.approx(3.0)


def test_varactor_validation():
    with pytest.raises(ValueError):
        MosVaractor(0.0, 1e-6)
    with pytest.raises(ValueError):
        MosVaractor(1e-6, 1e-6, c_min_fraction=0.9, c_max_fraction=0.5)


def test_neutralization_cancels_miller():
    c_gd = 10e-15
    gain = 3.0
    without = neutralized_input_capacitance(c_gd, 0.0, gain)
    assert without == pytest.approx(c_gd * 4.0)
    perfect = neutralized_input_capacitance(c_gd, c_gd, gain)
    assert perfect == pytest.approx(2 * c_gd)
    # Over-neutralization floors at zero.
    over = neutralized_input_capacitance(c_gd, 100 * c_gd, gain)
    assert over == 0.0


def test_neutralization_rejects_negative():
    with pytest.raises(ValueError):
        neutralized_input_capacitance(-1e-15, 0.0, 2.0)


# -- passives -------------------------------------------------------------


def test_spiral_area_scales_with_sqrt_inductance():
    small = SpiralInductor(1e-9)
    big = SpiralInductor(4e-9)
    assert big.area == pytest.approx(4 * small.area, rel=1e-6)


def test_spiral_2nh_is_about_0p02mm2():
    # The calibration point behind the paper's "core area ~ one spiral".
    spiral = SpiralInductor(2e-9)
    assert spiral.area == pytest.approx(0.0225e-6, rel=0.01)  # m^2


def test_spiral_impedance_inductive_below_srf():
    spiral = SpiralInductor(2e-9, self_resonance_hz=25e9)
    z = spiral.impedance(np.array([1e9, 5e9]))
    assert z[1].imag > z[0].imag > 0


def test_passive_validation():
    with pytest.raises(ValueError):
        SpiralInductor(0.0)
