"""conicwave: scattering and dispersive decay on surfaces with conical ends.

Builds the 1D operator -d^2/dxi^2 + V(xi) induced by a rotation profile
r(x), computes its Jost solutions, Wronskian and scattering coefficients
across the energy range, and evaluates the weighted oscillatory kernels of
the Schrodinger and wave evolutions to verify dispersive decay rates.
"""

from .errors import (ConfigError, ConicwaveError, ConvergenceError,
                     DomainError, QuadratureError)
from .geometry import (ArclengthChart, ConicalFit, PotentialProfile,
                       ProfileSpec, fit_conical_constants, make_profile)
from .hankel import C0, C1, KAPPA, f0_values, hankel0_plus
from .jost import JostEvaluator, ScatteringData, ScatteringModel
from .kernel import (BANDS, KINDS, DecayReport, KernelEngine, KernelSample,
                     StationaryPhaseCase, chi_low, chi_window,
                     standard_case_library, stationary_phase_check)

__version__ = "0.1.0"

__all__ = [
    "ArclengthChart", "BANDS", "C0", "C1",
    "ConfigError", "ConicalFit", "ConicwaveError", "ConvergenceError",
    "DecayReport", "DomainError", "JostEvaluator", "KAPPA", "KINDS",
    "KernelEngine", "KernelSample", "PotentialProfile", "ProfileSpec",
    "QuadratureError", "ScatteringData", "ScatteringModel",
    "StationaryPhaseCase", "chi_low", "chi_window", "f0_values",
    "fit_conical_constants", "hankel0_plus", "make_profile",
    "standard_case_library", "stationary_phase_check",
]
