"""The package's public surface: the names ``conicwave`` exports."""

import conicwave

PUBLIC = [
    "ArclengthChart", "BANDS", "C0", "C1",
    "ConfigError", "ConicalFit", "ConicwaveError", "ConvergenceError",
    "DecayReport", "DomainError", "JostEvaluator", "KAPPA", "KINDS",
    "KernelEngine", "KernelSample", "PotentialProfile", "ProfileSpec",
    "QuadratureError", "ScatteringData", "ScatteringModel",
    "StationaryPhaseCase", "chi_low", "chi_window", "f0_values",
    "fit_conical_constants", "hankel0_plus", "make_profile",
    "standard_case_library", "stationary_phase_check",
]

#: test oracles that live in tests/oracles.py, not in the package
ORACLES = ("VolterraProblem", "VolterraSolution", "estimate_mu",
           "volterra_solve", "g0_green")


def test_all_is_pinned():
    assert sorted(conicwave.__all__) == sorted(PUBLIC)
    assert len(PUBLIC) == 29


def test_every_public_name_resolves():
    for name in conicwave.__all__:
        assert getattr(conicwave, name) is not None


def test_oracles_are_not_exported():
    for name in ORACLES:
        assert not hasattr(conicwave, name)
