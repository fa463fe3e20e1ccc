"""Oscillatory panel integrals against brute-force phase-resolved rules."""

import numpy as np
from numpy.polynomial import polynomial as P

from conicwave import oscquad as OQ

_XG, _WG = np.polynomial.legendre.leggauss(12)


def _brute(a, b, coef, alpha, beta, block=200_000):
    """Phase-resolved composite Gauss rule, summed in bounded blocks."""
    m0, s = 0.5 * (a + b), 0.5 * (b - a)
    fmax = max(abs(2 * alpha * a + beta), abs(2 * alpha * b + beta))
    n = int(np.ceil((b - a) * max(fmax, 1.0) / 0.8)) + 8
    edges = np.linspace(a, b, n + 1)
    total = 0.0 + 0j
    for k in range(0, n, block):
        lo = edges[k: min(k + block, n)]
        hi = edges[k + 1: min(k + block, n) + 1]
        mid = 0.5 * (lo[:, None] + hi[:, None])
        half = 0.5 * (hi[:, None] - lo[:, None])
        lam = (mid + half * _XG[None, :]).ravel()
        w = (half * _WG[None, :]).ravel()
        vals = OQ.eval_poly(coef, (lam - m0) / s) \
            * np.exp(1j * (alpha * lam ** 2 + beta * lam))
        total += np.sum(w * vals)
    return total


def _sweep_panels():
    """60 random panels (a, b, coef, alpha, beta) over all regimes."""
    rng = np.random.default_rng(7)
    rows = []
    for trial in range(60):
        a = 10 ** rng.uniform(-2, 1.3)
        b = a * (1 + rng.uniform(0.05, 0.4))
        alpha = 10 ** rng.uniform(-2, 4.3) if trial % 5 else 0.0
        beta = rng.choice([-1, 1]) * 10 ** rng.uniform(-1, 3.2)
        coef = rng.normal(size=10) + 1j * rng.normal(size=10)
        rows.append((a, b, coef, alpha, beta))
    return rows


def test_panel_integral_regime_sweep():
    rows = _sweep_panels()
    # one call mixes every regime and bisection depth
    batch = OQ.panel_osc_integral(*map(np.array, zip(*rows)))
    worst = 0.0
    for (a, b, coef, alpha, beta), got_batch in zip(rows, batch):
        got = OQ.panel_osc_integral([a], [b], [coef], alpha, [beta])[0]
        ref = _brute(a, b, coef, alpha, beta)
        for g in (got, got_batch):
            worst = max(worst, abs(g - ref) / max(abs(ref), 1e-3 * (b - a)))
    assert worst <= 1e-8


def test_batch_matches_one_panel_calls():
    # the sweep plus stationary points inside a panel (the erfc regime)
    rng = np.random.default_rng(3)
    rows = _sweep_panels() + [
        (1.4, 2.0, rng.normal(size=10) + 1j * rng.normal(size=10), alpha,
         -2 * alpha * 1.7) for alpha in (1e2, 1e4, 1e6)]
    a, b, coef, alpha, beta = map(np.array, zip(*rows))
    order = np.random.default_rng(13).permutation(len(rows))
    batch = OQ.panel_osc_integral(a[order], b[order], coef[order],
                                  alpha[order], beta[order])
    for k, i in enumerate(order):
        one = OQ.panel_osc_integral(a[i: i + 1], b[i: i + 1], coef[i: i + 1],
                                    alpha[i], beta[i: i + 1])[0]
        scale = (b[i] - a[i]) * np.max(np.abs(coef[i]))
        assert abs(batch[k] - one) <= 1e-13 * scale


def test_stationary_point_inside_panel():
    rng = np.random.default_rng(3)
    for alpha in (1e4, 1e6):
        lam0 = 1.7
        a, b = 1.4, 2.0
        beta = -2 * alpha * lam0
        coef = rng.normal(size=10) + 1j * rng.normal(size=10)
        got = OQ.panel_osc_integral([a], [b], [coef], alpha, [beta])[0]
        ref = _brute(a, b, coef, alpha, beta)
        assert abs(got - ref) <= 1e-9 * abs(ref) + 1e-14


def _random_coefs(rng, n):
    return [rng.normal(size=OQ.DEG + 1) + 1j * rng.normal(size=OQ.DEG + 1)
            for _ in range(n)]


def test_constant_maps_match_generic_polynomial_calls():
    rng = np.random.default_rng(11)
    w = np.linspace(-1.0, 1.0, 33)
    n1 = OQ.DEG + 1
    for coef in _random_coefs(rng, 200):
        # half-panel coefficients reproduce p((w -+ 1)/2); the generic refit
        # through _FIT carries its own ~1e-13 conditioning error, so the
        # comparison is on values
        halves = OQ._SPLIT @ coef
        for k, shift in enumerate((-1.0, 1.0)):
            ref = P.polyval(0.5 * (w + shift), coef)
            got = P.polyval(w, halves[k * n1: (k + 1) * n1])
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        # lam-derivatives against polyder, each within 1e-14 of its own
        # scale sum_j |c_j| |w|^j / s^k
        wq, s = rng.uniform(-1.0, 1.0), 10 ** rng.uniform(-3.0, 1.0)
        refs, scales, der = [], [], coef
        for k, got in enumerate(OQ._lam_derivatives(coef[None], wq, s)[:, 0]):
            refs.append(P.polyval(wq, der) / s ** k)
            scales.append(P.polyval(abs(wq), np.abs(der)) / s ** k)
            assert abs(got - refs[k]) <= 1e-14 * scales[k]
            der = P.polyder(der)
        # the boundary series built from them: at alpha = 0 and lam = 0 it
        # is sum_k (-1)^k p_k / D^(k+1), D = i beta, with error term
        # |p_4| / |D|^5 max(1, |beta|); beta ~ 1/s keeps the terms alike
        beta = rng.uniform(0.5, 2.0) / s
        (got,), (got_err,) = OQ._boundary_series(coef[None], wq, s, 0.0, 0.0,
                                                 np.array([beta]))
        ref = sum((-1) ** k * refs[k] / (1j * beta) ** (k + 1)
                  for k in range(4))
        assert abs(got - ref) <= 1e-14 * sum(scales[k] / beta ** (k + 1)
                                             for k in range(4))
        amp = max(1.0, beta) / beta ** 5
        assert abs(got_err - abs(refs[4]) * amp) <= 1e-14 * scales[4] * amp
        # weighted Gauss-node values of the mild regime
        for n, (xg, wv) in OQ._GAUSS.items():
            ref = np.polynomial.legendre.leggauss(n)[1] * P.polyval(xg, coef)
            assert np.max(np.abs(wv @ coef - ref)) \
                <= 1e-14 * np.max(np.abs(ref))
        assert OQ.eval_poly(coef, 0.3) == P.polyval(0.3, coef)


def test_linear_filon_small_curvature():
    # on [-1, 1] the panel variables are the phase coefficients themselves;
    # all cases go through the array form in one call
    rng = np.random.default_rng(5)
    cases = [(coef, at, bt) for coef in _random_coefs(rng, 3)
             for at in (0.0, 0.04, 0.15) for bt in (40.0, 1.0e3)]
    coefs, ats, bts = map(np.array, zip(*cases))
    for (coef, at, bt), got in zip(cases, OQ._linear_filon(coefs, ats, bts)):
        ref = _brute(-1.0, 1.0, coef, at, bt)
        assert abs(got - ref) <= 2e-12 * max(abs(ref), 1e-3)


def test_abel_tail_against_exponential_integral():
    # integral_L^inf e^{i beta lam} / lam dlam = E1(-i beta L) exactly; the
    # Taylor coefficients of 1/lam about L, on a panel of half-width 1
    # centred there
    from scipy.special import exp1
    L, beta = 5.0, 7.0
    k = np.arange(OQ.DEG + 1)
    (val,), (err,) = OQ.tail_integral((-1.0) ** k[None] / L ** (k + 1), 0.0,
                                      1.0, 0.0, np.array([beta]), L)
    ref = exp1(-1j * beta * L)
    assert abs(val - ref) <= 1e-5
    assert abs(val - ref) <= 10 * err + 1e-12
