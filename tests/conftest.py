import math

import numpy as np
import pytest

import cptsim.steady_state as steady_state_mod
from cptsim import Depolarization, ModelParams, hz_to_angular, rabi_for_pumping_strength

FIG1_HZ = {
    "gamma_opt": 1e9,
    "gamma_nat": 5.75e6,
    "gamma_g": 100.0,
    "omega_e": 817e6,
    "delta_opt": -30e6,
}


def make_params(rabi=0.0, delta_raman=0.0, mode=Depolarization.NONE, **hz_overrides):
    hz = dict(FIG1_HZ)
    hz.update(hz_overrides)
    return ModelParams(
        rabi=rabi,
        gamma_opt=hz_to_angular(hz["gamma_opt"]),
        gamma_nat=hz_to_angular(hz["gamma_nat"]),
        gamma_g=hz_to_angular(hz["gamma_g"]),
        omega_e=hz_to_angular(hz["omega_e"]),
        delta_opt=hz_to_angular(hz["delta_opt"]),
        delta_raman=delta_raman,
        depolarization=mode,
    )


def random_params(rng: np.random.Generator, mode=None) -> ModelParams:
    """A physically sensible random parameter draw (log-uniform rates)."""
    gamma_opt = hz_to_angular(10 ** rng.uniform(8.5, 9.5))
    omega_e = hz_to_angular(10 ** rng.uniform(8.3, 9.1))
    delta_opt = hz_to_angular(rng.uniform(-1.5e9, 1.5e9))
    gamma_g = hz_to_angular(10 ** rng.uniform(1.0, 4.0))
    gamma_nat = hz_to_angular(10 ** rng.uniform(6.0, 7.0))
    if mode is None:
        mode = rng.choice([Depolarization.NONE, Depolarization.COMPLETE])
    p = ModelParams(rabi=0.0, gamma_opt=gamma_opt, gamma_nat=gamma_nat,
                    gamma_g=gamma_g, omega_e=omega_e, delta_opt=delta_opt,
                    depolarization=mode)
    strength = 10 ** rng.uniform(-3.0, 4.0)
    lu = gamma_opt / (delta_opt**2 + gamma_opt**2)
    rabi = np.sqrt(strength * gamma_g / lu)
    hw = gamma_g * (1.0 + strength)
    delta_raman = rng.uniform(-5.0, 5.0) * hw
    return p.replace(rabi=rabi, delta_raman=delta_raman)


def fuzz_range_draws(n=2000, seed=17):
    """ROADMAP item 6's fuzz range, stiff points kept: a list of n seeded
    (pumping strength s, params) draws at delta_raman = 0; Gamma, gamma,
    Gamma_g, omega_e in Hz and s log-uniform, Delta uniform, the mode by
    a coin."""
    rng = np.random.default_rng(seed)

    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)

    rates = dict(gamma_opt=log_uniform(1e7, 1e10), gamma_nat=log_uniform(1e5, 3e7),
                 gamma_g=log_uniform(0.1, 1e4), omega_e=log_uniform(1e7, 3e9),
                 delta_opt=rng.uniform(-2e9, 2e9, n))
    strengths = log_uniform(1e-4, 1e7)
    modes = rng.integers(0, 2, n)
    draws = []
    for i, s in enumerate(strengths.tolist()):
        base = make_params(mode=(Depolarization.NONE, Depolarization.COMPLETE)[modes[i]],
                           **{name: float(v[i]) for name, v in rates.items()})
        draws.append((s, base.replace(rabi=rabi_for_pumping_strength(base, s))))
    return draws


def use_fake_system(monkeypatch, A, b):
    """Make every factorization solve the fake system A @ x = b: patch the
    private builder of steady_state to give its delta-free (A0, b, rhs),
    A0 being A with 0.0 on the two coherence diagonals and rhs
    [b | A0[:8, 8:]], fresh at each call."""
    def build(params, lf):
        A0 = np.array(A, dtype=float)
        A0[8, 8] = A0[9, 9] = 0.0
        rhs = np.empty((8, 3))
        rhs[:, 0], rhs[:, 1:] = b[:8], A0[:8, 8:]
        return A0, np.array(b, dtype=float), rhs

    monkeypatch.setattr(steady_state_mod, "_delta_free_system", build)


@pytest.fixture
def fig1_optical():
    """Fig-1 optical geometry with a placeholder Rabi frequency."""
    return make_params()


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
