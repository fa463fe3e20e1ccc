"""Oscillatory panel integrals against brute-force phase-resolved rules."""

import warnings

import numpy as np
from numpy.polynomial import chebyshev as C
from numpy.polynomial import polynomial as P
import pytest

from conicwave import DomainError, QuadratureError
from conicwave import oscquad as OQ

_XG, _WG = np.polynomial.legendre.leggauss(12)


def _split(x):
    """x as hi + lo with hi on 26 bits (Veltkamp), so hi * hi' is exact."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _two_prod(x, y):
    """x * y as p + err exactly (Dekker's product)."""
    p = x * y
    (xh, xl), (yh, yl) = _split(x), _split(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _brute(a, b, coef, alpha, beta, block=1 << 16):
    """Phase-resolved composite Gauss rule, summed in bounded blocks.

    In w = (lam - m)/s, m and s the panel's midpoint and half-width, the
    phase is alpha m^2 + beta m (factored out once) plus at w^2 + bt w.
    The 2^j equal sub-panels have dyadic midpoints c, whose c^2 is exact,
    so at c^2 + bt c is summed exactly as a double-double; only each
    sub-panel's own phase of at most about 1 rad about c is rounded at the
    nodes.  A large phase rounded at every node instead leaves a random
    error that sums to far more than the quadrature's own."""
    m0, s = 0.5 * (a + b), 0.5 * (b - a)
    at, bt = alpha * s * s, (2.0 * alpha * m0 + beta) * s
    n = 2 ** max(4, int(np.ceil(np.log2(abs(bt) + 2.0 * at + 1.0))))
    assert n <= 2 ** 25          # c has at most 26 bits
    h = 1.0 / n                  # sub-panel half-width
    v = h * _XG
    total = 0j
    for k in range(0, n, block):
        c = -1.0 + h * (2.0 * np.arange(k, min(k + block, n)) + 1.0)
        p1, e1 = _two_prod(bt, c)
        p2, e2 = _two_prod(at, c * c)
        hi = p1 + p2
        t = hi - p1
        lo = (p1 - (hi - t)) + (p2 - t) + e1 + e2
        local = (bt + 2.0 * at * c)[:, None] * v + at * v * v
        vals = OQ.eval_poly(coef, c[:, None] + v) \
            * np.exp(1j * (local + lo[:, None]))
        total += np.sum(np.exp(1j * hi) * (vals @ _WG))
    return np.exp(1j * (alpha * m0 * m0 + beta * m0)) * s * h * total


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
        assert ref != 0.0
        for g in (got, got_batch):
            worst = max(worst, abs(g - ref) / abs(ref))
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


def test_levin_regime(monkeypatch):
    # on [-1, 1] the panel variables are the phase coefficients; random
    # amplitudes and T_9, the degree-9 amplitude that is largest at the
    # stationary point for its size on [-1, 1], the worst case of Levin's
    # error |p(w0)| / max|p| (w0 + sqrt(w0^2 - 1))^-LEVIN_N
    coefs = _random_coefs(np.random.default_rng(17), 3) + [
        C.cheb2poly(np.eye(OQ.DEG + 1)[-1]).astype(complex)]
    W0 = OQ.LEVIN_W0
    near = [(at, sgn * 2.0 * w0 * at) for at in (3.9, 6.0, 10.0, 50.0)
            for w0 in (W0, W0 * (1 + 1e-3), W0 * (1 + 1e-2), W0 * (1 - 1e-3))
            for sgn in (1.0, -1.0)]
    # a row of the sweep that 12 Levin points miss by 2.7e-7 (20: 6.5e-15)
    near.append((4.35, 74.6))
    # far from stationarity: the sweep's worst row (at = 3.07e4, w0 = 9.4)
    # and |bt| = 1e7, where _brute needs 2^24 sub-panels (it agrees with
    # the boundary series to 7e-14, in 20 s) but the boundary series at
    # both ends is exact to within its own error estimate
    far = [(3.07e4, 2.0 * 9.42 * 3.07e4), (1.0, 1.0e7), (40.0, -1.0e7)]
    cases = [(coef, at, bt) for coef in coefs for at, bt in near + far]
    coef, at, bt = map(np.array, zip(*cases))
    levin_rows, levin = [], OQ._levin

    def counted(c, a, b):
        levin_rows.append(len(c))
        return levin(c, a, b)

    monkeypatch.setattr(OQ, "_levin", counted)
    got = OQ.panel_osc_integral(-np.ones(len(at)), np.ones(len(at)), coef,
                                at, bt)
    # every row at or past W0 took the Levin regime at the top level
    assert levin_rows[0] == np.sum(np.abs(bt) >= 2.0 * W0 * at)
    for (c, a, b), g in zip(cases, got):
        if (a, b) in far:
            ref, rem = (x[0] for x in OQ._boundary_series(
                c[None], 1.0, 1.0, 1.0, a, np.array([b])))
            ref_l, rem_l = (x[0] for x in OQ._boundary_series(
                c[None], -1.0, 1.0, -1.0, a, np.array([b])))
            ref -= ref_l
            assert rem + rem_l <= 1e-11 * abs(ref)
            assert abs(g - ref) <= 1e-10 * abs(ref)
        else:
            ref = _brute(-1.0, 1.0, c, a, b)
            assert abs(g - ref) <= 1e-10 * max(abs(ref), 2e-3)


def test_negative_curvature_is_refused():
    # a caller folds alpha < 0 by conjugation; the regimes assume alpha >= 0
    # (at <= 0.15 would send every such row to the linear-phase Filon rule)
    coef = _random_coefs(np.random.default_rng(2), 1)[0]
    with pytest.raises(DomainError, match="alpha"):
        OQ.panel_osc_integral([1.0], [1.3], [coef], -1.0e4, [3.0e4])
    with pytest.raises(DomainError, match="alpha"):
        OQ.panel_osc_integral([1.0, 1.0], [1.3, 1.3], [coef, coef],
                              [1.0, -1.0], [3.0e4, 3.0e4])


def test_unresolved_stationary_point_raises():
    # at alpha = 1e30 the stationary point at 1.7 stays inside a panel too
    # curved for the erfc moments after the last bisection
    coef = _random_coefs(np.random.default_rng(2), 1)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError):
            OQ.panel_osc_integral([1.4], [2.0], [coef], 1.0e30,
                                  [-2.0e30 * 1.7])


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
