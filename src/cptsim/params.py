"""Model parameters for the four-level sigma+ optical-pumping problem.

Unit convention: every rate and detuning stored here is an angular
frequency in rad/s.  User-facing interfaces (CLI, file output) speak
ordinary frequency in Hz; conversion is an explicit factor of 2*pi via
:func:`hz_to_angular` / :func:`angular_to_hz`.

Symbols:
    rabi        V, Rabi frequency of each bichromatic component
    gamma_opt   Gamma, optical-coherence relaxation rate (homogeneous
                half width of the optical line)
    gamma_nat   gamma, excited-state decay rate
    gamma_g     Gamma_g, isotropic ground-state relaxation rate
    omega_e     excited-state hyperfine splitting
    delta_opt   Delta, optical detuning from the upper (F_e=2) manifold;
                the detuning from F_e=1 is delta_opt + omega_e
    delta_raman delta, two-photon (Raman) detuning
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum

from .errors import ParameterError

TWO_PI = 2.0 * math.pi


def hz_to_angular(f_hz: float) -> float:
    return TWO_PI * f_hz


def angular_to_hz(omega: float) -> float:
    return omega / TWO_PI


class Depolarization(Enum):
    """Excited-state collisional depolarization mode."""

    NONE = "none"
    COMPLETE = "complete"


@dataclass(frozen=True)
class ModelParams:
    """Physical rates and detunings of the steady-state model, in rad/s."""

    rabi: float
    gamma_opt: float
    gamma_nat: float
    gamma_g: float
    omega_e: float
    delta_opt: float
    delta_raman: float = 0.0
    depolarization: Depolarization = Depolarization.NONE

    def __post_init__(self):
        if not (self.gamma_opt > 0):
            raise ParameterError("gamma_opt must be > 0")
        if not (self.gamma_nat > 0):
            raise ParameterError("gamma_nat must be > 0")
        if not (self.gamma_g > 0):
            raise ParameterError("gamma_g must be > 0 (the system is singular at gamma_g = 0)")
        if not (self.rabi >= 0):
            raise ParameterError("rabi must be >= 0")
        if not (self.omega_e > 0):
            raise ParameterError("omega_e must be > 0")
        for name in ("rabi", "gamma_opt", "gamma_nat", "gamma_g", "omega_e",
                     "delta_opt", "delta_raman"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        # lorentz_factors squares these by x**2, which raises OverflowError
        for name, value in (("rabi", self.rabi), ("gamma_opt", self.gamma_opt),
                            ("delta_opt", self.delta_opt),
                            ("omega_e", self.delta_opt + self.omega_e)):
            if math.isinf(value * value):
                raise ParameterError(f"{name} too large: a square in the model overflows")
        if self.gamma_g < sys.float_info.min:
            raise ParameterError("gamma_g too small: the model's rates underflow")
        if math.isinf(self.rabi**2 / self.gamma_nat):
            raise ParameterError("rabi**2/gamma_nat overflows")

    def replace(self, **changes) -> "ModelParams":
        return replace(self, **changes)

    def validity_flags(self) -> dict[str, bool]:
        """Report (without enforcing) the approximations behind the model.

        ``narrow_excited_state``: gamma much smaller than Gamma.
        ``low_saturation``: V^2 much smaller than Gamma^2.
        """
        return {
            "narrow_excited_state": self.gamma_nat < 0.1 * self.gamma_opt,
            "low_saturation": self.rabi**2 < 0.01 * self.gamma_opt**2,
        }


@dataclass(frozen=True)
class LorentzFactors:
    """Optical Lorentzian factors entering every pump term.

    lu, ld carry units of 1/(rad/s); du, dd are dimensionless.  The "u"
    factors belong to the F_e=2 manifold (detuning Delta), the "d"
    factors to F_e=1 (detuning Delta + omega_e).
    """

    lu: float  # Gamma / (Delta^2 + Gamma^2)
    ld: float  # Gamma / ((Delta + omega_e)^2 + Gamma^2)
    du: float  # Delta * V^2 / (Delta^2 + Gamma^2)
    dd: float  # (Delta + omega_e) * V^2 / ((Delta + omega_e)^2 + Gamma^2)


def lorentz_factors(params: ModelParams) -> LorentzFactors:
    """Recompute the Lorentz factors from scratch (never cached)."""
    g2 = params.gamma_opt**2
    den_u = params.delta_opt**2 + g2
    den_d = (params.delta_opt + params.omega_e) ** 2 + g2
    return LorentzFactors(
        lu=params.gamma_opt / den_u,
        ld=params.gamma_opt / den_d,
        du=params.delta_opt * params.rabi**2 / den_u,
        dd=(params.delta_opt + params.omega_e) * params.rabi**2 / den_d,
    )


def pumping_strength(params: ModelParams) -> float:
    """Dimensionless pumping strength s = V^2*lu/gamma_g."""
    return params.rabi**2 * lorentz_factors(params).lu / params.gamma_g


def rabi_for_pumping_strength(params: ModelParams, s: float) -> float:
    """Rabi frequency giving pumping strength s at the params' optical geometry."""
    if not math.isfinite(s):
        raise ParameterError(f"pumping strength must be finite, not {s}")
    if not s >= 0:
        raise ParameterError("pumping strength must be >= 0")
    lu = lorentz_factors(params).lu
    if not 0.0 < lu < math.inf:
        raise ParameterError(f"optical Lorentz factor lu = {lu!r}: no Rabi frequency "
                             "sets a pumping strength")
    return math.sqrt(s * params.gamma_g / lu)
