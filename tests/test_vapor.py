"""Spin-exchange formula, velocity, and vapor-pressure density."""

import math

import pytest

from cptsim import (InvalidSpin, OutOfRange, ParameterError, VaporParams,
                    alkali_number_density, mean_relative_velocity,
                    nuclear_spin_prefactor, spin_exchange)
from cptsim.vapor import RB87_MASS_KG, RB87_SIGMA_SE_CM2


def test_prefactor_exact_values():
    assert nuclear_spin_prefactor(1.5) == 0.625        # 10/16, 87Rb
    assert nuclear_spin_prefactor(3.5) == 0.6875       # 22/32, 133Cs
    assert nuclear_spin_prefactor(0.5) == 0.5          # 4/8
    assert nuclear_spin_prefactor(2.5) == pytest.approx(16 / 24)


def test_prefactor_bounds():
    values = [nuclear_spin_prefactor(k / 2) for k in range(1, 10)]
    assert all(0.5 <= v <= 0.75 for v in values)
    assert values == sorted(values)  # approaches 3/4 from below


def test_prefactor_rejects_bad_spin():
    with pytest.raises(InvalidSpin):
        nuclear_spin_prefactor(1.7)
    with pytest.raises(InvalidSpin):
        nuclear_spin_prefactor(5.5)
    with pytest.raises(InvalidSpin):
        nuclear_spin_prefactor(0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_spin_and_vapor_inputs_are_typed_errors(value):
    with pytest.raises(InvalidSpin):
        nuclear_spin_prefactor(value)
    for name in ("temperature", "atomic_mass", "sigma_se"):
        with pytest.raises(ParameterError, match=name):
            VaporParams(**{"temperature": 338.15, name: value})


def test_velocity_scaling_laws():
    v = mean_relative_velocity(300.0, RB87_MASS_KG)
    assert mean_relative_velocity(1200.0, RB87_MASS_KG) == pytest.approx(2 * v)
    assert mean_relative_velocity(300.0, 4 * RB87_MASS_KG) == pytest.approx(v / 2)


def test_velocity_hand_check_65C():
    # independent constant arithmetic: sqrt(16 kB T / (pi m)) at 338.15 K
    k_b = 1.380649e-23
    m = 86.909180527 * 1.66053906892e-27
    expected_cm_s = math.sqrt(16.0 * k_b * 338.15 / (math.pi * m)) * 100.0
    got = mean_relative_velocity(338.15, RB87_MASS_KG)
    assert got == pytest.approx(expected_cm_s, rel=1e-6)
    assert got == pytest.approx(4.06e4, rel=0.01)


def test_density_monotone_and_in_range():
    temps = [280.0 + 10.0 * i for i in range(23)]
    densities = [alkali_number_density(t) for t in temps]
    assert all(b > a for a, b in zip(densities, densities[1:]))
    with pytest.raises(OutOfRange):
        alkali_number_density(272.0)
    with pytest.raises(OutOfRange):
        alkali_number_density(501.0)


def test_density_doubles_every_8_to_10_K_near_60C():
    t0 = 333.15
    slope = math.log(alkali_number_density(t0 + 1.0) / alkali_number_density(t0))
    doubling_interval = math.log(2.0) / slope
    assert 8.0 < doubling_interval < 10.0


def test_density_magnitude_at_65C():
    # frozen from the vapor-pressure relation itself (sanity anchor)
    assert alkali_number_density(338.15) == pytest.approx(3.76e11, rel=0.02)


def test_spin_exchange_product_structure():
    p = VaporParams(temperature=338.15)
    base = spin_exchange(p)
    doubled = spin_exchange(VaporParams(temperature=338.15,
                                        sigma_se=2 * RB87_SIGMA_SE_CM2))
    assert doubled.gamma_se == pytest.approx(2 * base.gamma_se, rel=1e-12)
    assert base.width_hz * math.pi == pytest.approx(base.gamma_se, rel=1e-15)
    assert base.n > 0 and base.v_r > 0 and base.gamma_se > 0


def test_spin_exchange_ratio_tracks_density_velocity():
    a = spin_exchange(VaporParams(temperature=330.0))
    b = spin_exchange(VaporParams(temperature=350.0))
    expected = (b.n * b.v_r) / (a.n * a.v_r)
    assert b.gamma_se / a.gamma_se == pytest.approx(expected, rel=1e-12)


def test_spin_exchange_full_product_hand_check():
    # single-line independent arithmetic at 65 C
    res = spin_exchange(VaporParams(temperature=338.15))
    expected = 0.625 * RB87_SIGMA_SE_CM2 * res.v_r * res.n
    assert res.gamma_se == pytest.approx(expected, rel=1e-15)
    # absolute scale: tens of Hz at 65 C for 87Rb
    assert res.width_hz == pytest.approx(57.7, rel=0.03)


def test_width_curve_shape_50_to_90C():
    temps = [323.15 + i for i in range(41)]
    widths = [spin_exchange(VaporParams(temperature=t)).width_hz for t in temps]
    assert all(b > a for a, b in zip(widths, widths[1:]))
    # convex growth, as for an activated vapor-pressure law
    second = [widths[i + 1] - 2 * widths[i] + widths[i - 1]
              for i in range(1, len(widths) - 1)]
    assert all(s > 0 for s in second)


def test_vapor_params_validation():
    with pytest.raises(ParameterError):
        VaporParams(temperature=-1.0)
    with pytest.raises(ParameterError):
        VaporParams(temperature=300.0, sigma_se=0.0)
