"""Steady-state CPT resonance simulator and scan-analysis toolkit.

Four-level sigma+ optical pumping model of an alkali D1 line: solves
the steady-state density-matrix system with or without excited-state
depolarization, extracts lineshape figures of merit (contrast, width,
asymmetry, quality factor), computes spin-exchange broadening versus
temperature, and fits measured transmission scans.
"""

from .couplings import (CouplingTables, EXCITED_LEVELS, GROUND_LEVELS,
                        build_coupling_tables)
from .errors import (ConfigError, CptsimError, InvalidSpin,
                     InvariantViolation, MonotonicityError, NoResonance,
                     NotBracketed, OutOfRange, ParameterError, ParseError,
                     SingularSystem, TooFewSamples, Unbracketed)
from .lineshape import (ContrastSummary, Lineshape, ResonanceMetrics,
                        Spacing, SweepSpec, asymmetry,
                        calibrate_power_broadening, default_sweep_spec,
                        fwhm, physical_contrast, resonance_center,
                        resonance_metrics, sweep)
from .params import (Depolarization, LorentzFactors, ModelParams,
                     angular_to_hz, hz_to_angular, lorentz_factors,
                     pumping_strength, rabi_for_pumping_strength)
from .scans import (BatchResult, FitModel, FitReport, Scan, batch_metrics,
                    fit_resonance, load_scan, write_scan_csv)
from .steady_state import (RationalLineshape, SteadyStateSolution,
                           assemble_linear_system, depolarize,
                           excited_from_ground, solve_steady_state)
from .vapor import (RB87_MASS_KG, RB87_NUCLEAR_SPIN, RB87_SIGMA_SE_CM2,
                    SpinExchangeResult, VaporParams, alkali_number_density,
                    mean_relative_velocity, nuclear_spin_prefactor,
                    spin_exchange)

__version__ = "0.1.0"
