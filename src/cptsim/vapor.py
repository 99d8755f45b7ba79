"""Temperature-dependent vapor physics: density, velocity, spin exchange.

Spin-exchange collisions between alkali atoms relax the ground-state
hyperfine coherence at the rate

    gamma_se = (6I + 1)/(8I + 4) * sigma_se * v_r * n

with I the nuclear spin, sigma_se the spin-exchange cross section,
v_r the mean relative velocity and n the atom number density.  The
rate is angular (rad/s); its contribution to the resonance FWHM is
gamma_se/pi in Hz.  CGS units are used where the cross section is
quoted (cm^2, cm/s, cm^-3), which multiply directly to 1/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidSpin, OutOfRange, ParameterError

# CODATA 2022 atomic mass unit; k is exact in the SI, as is the torr
ATOMIC_MASS_UNIT_KG = 1.66053906892e-27
BOLTZMANN_J_K = 1.380649e-23
TORR_PA = 101325.0 / 760.0

# 87Rb defaults: nuclear spin 3/2, atomic mass (Steck), and the commonly
# adopted Rb-Rb spin-exchange cross section.
RB87_NUCLEAR_SPIN = 1.5
RB87_MASS_AMU = 86.909180527
RB87_MASS_KG = RB87_MASS_AMU * ATOMIC_MASS_UNIT_KG
RB87_SIGMA_SE_CM2 = 1.9e-14


# Rubidium vapor pressure, liquid phase:
#     log10(P_torr) = A + B/T + C*T + D*log10(T)    (T in kelvin)
# Constants from D. A. Steck, "Rubidium 87 D Line Data" (steck.us/alkalidata),
# which reproduces the fit of A. N. Nesmeyanov, "Vapor Pressure of the
# Chemical Elements" (Elsevier, 1963).  Stated accuracy better than +-5%
# over 298-550 K; use is restricted to the window below.
VP_A = 15.88253
VP_B = -4529.635
VP_C = 0.00058663
VP_D = -2.99138
# validity window enforced by alkali_number_density (kelvin)
VP_T_MIN = 273.0
VP_T_MAX = 500.0


@dataclass(frozen=True)
class VaporParams:
    """Inputs of the spin-exchange rate."""

    temperature: float                        # kelvin
    nuclear_spin: float = RB87_NUCLEAR_SPIN   # half-integer I
    atomic_mass: float = RB87_MASS_KG         # kg
    sigma_se: float = RB87_SIGMA_SE_CM2       # cm^2

    def __post_init__(self):
        if not self.temperature > 0:
            raise ParameterError("temperature must be > 0 K")
        if not self.sigma_se > 0:
            raise ParameterError("sigma_se must be > 0")
        if not self.atomic_mass > 0:
            raise ParameterError("atomic_mass must be > 0")
        # the nuclear spin is checked by nuclear_spin_prefactor (InvalidSpin)
        for name in ("temperature", "atomic_mass", "sigma_se"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")


@dataclass(frozen=True)
class SpinExchangeResult:
    n: float           # cm^-3
    v_r: float         # cm/s
    gamma_se: float    # rad/s
    width_hz: float    # gamma_se / pi


def nuclear_spin_prefactor(nuclear_spin: float) -> float:
    """(6I + 1)/(8I + 4), evaluated in exact rational arithmetic.

    I must be a half-integer in [1/2, 9/2].
    """
    doubled = 2.0 * nuclear_spin
    twice = round(doubled) if math.isfinite(doubled) else 0  # 0 is out of range
    if not math.isclose(doubled, twice, abs_tol=1e-9) or not 1 <= twice <= 9:
        raise InvalidSpin(f"nuclear spin {nuclear_spin!r} is not a half-integer in [1/2, 9/2]")
    i = Fraction(int(twice), 2)
    return float((6 * i + 1) / (8 * i + 4))


def mean_relative_velocity(temperature: float, mass: float) -> float:
    """Mean relative speed of identical particles, sqrt(16 kT / (pi m)), in cm/s.

    Identical-species collisions have reduced mass m/2, which turns the
    usual sqrt(8 kT / (pi mu)) into the form above.
    """
    if not (temperature > 0 and mass > 0):
        raise ParameterError("temperature and mass must be > 0")
    return math.sqrt(16.0 * BOLTZMANN_J_K * temperature / (math.pi * mass)) * 100.0


def alkali_number_density(temperature: float) -> float:
    """Rb number density in cm^-3 from the liquid-phase vapor-pressure fit.

    Valid for temperature in [VP_T_MIN, VP_T_MAX] kelvin; raises
    OutOfRange outside that window.
    """
    if not (VP_T_MIN <= temperature <= VP_T_MAX):
        raise OutOfRange(
            f"temperature {temperature!r} K outside "
            f"[{VP_T_MIN:g}, {VP_T_MAX:g}] K")
    log10_p_torr = (VP_A + VP_B / temperature + VP_C * temperature
                    + VP_D * math.log10(temperature))
    p_pa = 10.0**log10_p_torr * TORR_PA
    n_m3 = p_pa / (BOLTZMANN_J_K * temperature)
    return n_m3 * 1e-6


def spin_exchange(params: VaporParams) -> SpinExchangeResult:
    """Spin-exchange relaxation rate and its FWHM contribution."""
    n = alkali_number_density(params.temperature)
    v_r = mean_relative_velocity(params.temperature, params.atomic_mass)
    gamma_se = nuclear_spin_prefactor(params.nuclear_spin) * params.sigma_se * v_r * n
    if not math.isfinite(gamma_se):
        raise ParameterError(f"spin-exchange rate not finite at {params.temperature!r} K "
                             f"(sigma_se = {params.sigma_se!r} cm^2)")
    return SpinExchangeResult(n=n, v_r=v_r, gamma_se=gamma_se,
                              width_hz=gamma_se / math.pi)
