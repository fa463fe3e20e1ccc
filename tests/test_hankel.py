"""Hankel evaluator, the inverse-square reference wave and its Green kernel."""

import mpmath as mp
import numpy as np
import pytest

from conicwave import C0, C1, KAPPA, DomainError, f0_values, hankel0_plus
from oracles import g0_green


def _series_oracle(z: float, terms: int = 60):
    """Ascending-series J0, Y0 summed at 50 digits (independent oracle)."""
    with mp.workdps(50):
        zz = mp.mpf(z)
        q = zz * zz / 4
        term = mp.mpf(1)
        j0 = mp.mpf(1)
        ysum = mp.mpf(0)
        hk = mp.mpf(0)
        for k in range(1, terms + 1):
            term = -term * q / (k * k)
            hk += mp.mpf(1) / k
            j0 += term
            ysum -= hk * term
        y0 = (2 / mp.pi) * ((mp.log(zz / 2) + mp.euler) * j0 + ysum)
        return complex(j0), complex(y0)


def test_ascending_series_against_extended_precision_oracle():
    for z in (0.3, 1.0, 4.7, 9.0):
        j0, y0 = _series_oracle(z)
        v, _ = hankel0_plus(z)
        assert abs(v.real - j0.real) <= 1e-12
        assert abs(v.imag - y0.real) <= 1e-12 * max(1.0, abs(y0.real))


def test_large_argument_modulus_law():
    v, _ = hankel0_plus(50.0)
    law = np.sqrt(2.0 / (np.pi * 50.0))
    # the true modulus carries a +1/(8 z^2) correction ~ 2.8e-6
    assert abs(abs(v) - law) <= 1e-5
    with mp.workdps(40):
        ref = complex(mp.hankel1(0, 50))
    assert abs(v - ref) <= 1e-12 * abs(ref)


def test_hankel_against_mpmath_oracle():
    # value and derivative -H1+ against 40-digit mpmath over 14 decades
    zs = np.geomspace(1e-8, 1e6, 60)
    v, d = hankel0_plus(zs)
    worst = 0.0
    with mp.workdps(40):
        for z, vz, dz in zip(zs, v, d):
            h0 = complex(mp.hankel1(0, mp.mpf(z)))
            h1 = -complex(mp.hankel1(1, mp.mpf(z)))
            worst = max(worst, abs(vz - h0) / abs(h0), abs(dz - h1) / abs(h1))
    assert worst <= 2e-15


def test_small_argument_logarithmic_law():
    z = 1e-8
    v, _ = hankel0_plus(z)
    assert abs(v.imag - (C1 * np.log(z) + KAPPA)) <= 1e-6
    assert abs(v.real - 1.0) <= 1e-12


def test_wronskian_identity_across_branches():
    zs = np.concatenate([np.geomspace(1e-3, 15.0 - 0.01, 40),
                         np.geomspace(15.0 + 0.01, 300.0, 40)])
    v, d = hankel0_plus(zs)
    w = v.real * d.imag - d.real * v.imag
    assert np.max(np.abs(w * (np.pi * zs) / 2.0 - 1.0)) <= 1e-10


def test_branch_seam_continuity():
    v1, d1 = hankel0_plus(15.0 - 1e-12)
    v2, d2 = hankel0_plus(15.0 + 1e-12)
    assert abs(v1 - v2) <= 1e-10
    assert abs(d1 - d2) <= 1e-10


def test_domain_rejection():
    with pytest.raises(DomainError):
        hankel0_plus(0.0)
    with pytest.raises(DomainError):
        hankel0_plus(-1.0)
    with pytest.raises(DomainError):
        f0_values(np.array([-1.0]), 1.0)
    with pytest.raises(DomainError):
        f0_values(np.array([1.0]), 0.0)


def test_f0_definition_recomputed_two_ways():
    xi, lam = 3.7, 1.3
    (v,), _ = f0_values(np.array([xi]), lam)
    z = xi * lam
    h, _ = hankel0_plus(z)
    assert abs(v - C0 * np.sqrt(z) * h) <= 1e-12 * abs(v)


def test_f0_ode_residual_five_point():
    # -f0'' - f0/(4 xi^2) = lam^2 f0 to 1e-8 relative
    rng = np.random.default_rng(5)
    for _ in range(12):
        xi = 10 ** rng.uniform(-1, 2)
        lam = 10 ** rng.uniform(-1, 2)
        h = 0.02 * min(xi, 1.0 / lam)
        pts = xi + h * np.arange(-2, 3)
        v, _ = f0_values(pts, lam)
        second = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) \
            / (12 * h * h)
        resid = -second - v[2] / (4 * xi ** 2) - lam ** 2 * v[2]
        assert abs(resid) <= 1e-6 * abs(lam ** 2 * v[2])


def test_f0_oscillatory_normalisation():
    # xi*lam = 100: e^{-i xi lam} f0 within 2% of 1
    v, _ = f0_values(np.array([100.0]), 1.0)
    assert abs(v[0] * np.exp(-1j * 100.0) - 1.0) <= 0.02


def test_f0_small_argument_modulus():
    xi, lam = 1.0, 1e-6
    v, _ = f0_values(np.array([xi]), lam)
    z = xi * lam
    model = abs(C0) * np.sqrt(z) * abs(1.0 + 1j * C1 * np.log(z) + 1j * KAPPA)
    assert abs(abs(v[0]) - model) <= 0.01 * model


def test_f0_conjugate_wronskian_constant():
    lam = 0.37
    xis = np.geomspace(0.5, 80.0, 12)
    v, d = f0_values(xis, lam)
    w = v * np.conj(d) - d * np.conj(v)
    assert np.max(np.abs(w + 2j * lam)) <= 1e-9


def test_g0_green_contract():
    assert g0_green(1.0, 1.0, 1.0) == 0.0
    h = 1e-5
    dd = (g0_green(1.0 + h, 1.0 + 2e-5, 1.0)
          - g0_green(1.0 - h, 1.0 + 2e-5, 1.0)) / (2 * h)
    assert abs(dd - 1.0) <= 1e-4
    with pytest.raises(DomainError):
        g0_green(2.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        g0_green(1.0, 2.0, -1.0)


def test_g0_low_energy_magnitude_bound():
    lam = 1e-3
    # fit the constant on a coarse scan, then check a far-separated point
    rng = np.random.default_rng(2)
    ratios = []
    for _ in range(30):
        xi = 10 ** rng.uniform(0.3, 1.5)
        eta = xi * 10 ** rng.uniform(0.0, 1.2)
        if eta >= 1.0 / lam:
            continue
        glt = abs(g0_green(xi, eta, lam))
        ratios.append(glt / (np.sqrt(xi * eta) * np.log(lam) ** 2))
    C = max(ratios)
    v = abs(g0_green(10.0, 100.0, lam))
    assert v <= C * np.sqrt(10.0 * 100.0) * np.log(lam) ** 2 * (1 + 1e-12)
    assert C < 1.0
