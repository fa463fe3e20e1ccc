"""Jost solutions, scattering coefficients and the asymptotic laws."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conicwave import (C0, C1, KAPPA, ArclengthChart, ConvergenceError,
                       DomainError, KernelEngine, PotentialProfile,
                       ScatteringModel, f0_values, make_profile)
from conicwave import cli, jost, panels, volterra
from conicwave.jost import wr
from conicwave.volterra import check_bound, sweep

HYPERBOLOID_A1 = {"kind": "hyperboloid", "params": {"a": 1.0}}


# ---------------------------------------------------------------------------
# cylinder exactness
# ---------------------------------------------------------------------------

def test_cylinder_plane_waves(cylinder_model):
    for lam in (0.5, 2.0):
        fp = cylinder_model.jost_plus(lam, xi_min=-20.0)
        xs = np.linspace(-20.0, 60.0, 33)
        v, d = fp.values(xs)
        assert np.max(np.abs(v - np.exp(1j * lam * xs))) <= 1e-10
        assert np.max(np.abs(d - 1j * lam * np.exp(1j * lam * xs))) <= 1e-10
        fm = cylinder_model.jost_minus(lam, xi_max=20.0)
        v, d = fm.values(xs[::-1] * -1)
        assert np.max(np.abs(v - np.exp(1j * lam * xs[::-1]))) <= 1e-10


def test_cylinder_scattering_constants(cylinder_model):
    for lam in (0.5, 2.0, 1e-6):
        W = cylinder_model.wronskian(lam)
        assert abs(abs(W) - 2 * lam) <= 1e-10 * max(1.0, 2 * lam)
        assert abs(W + 2j * lam) <= 1e-10
        sd = cylinder_model.scattering_data(lam)
        alpha, beta = sd.alpha_minus, sd.beta_minus
        assert abs(alpha) <= 1e-10
        assert abs(abs(beta) - 1.0) <= 1e-10


def test_cylinder_connection_coefficients(cylinder_model):
    sd = cylinder_model.scattering_data(0.5)
    ap, bp, am, bm = sd.a_plus, sd.b_plus, sd.a_minus, sd.b_minus
    assert abs(ap - 1.0) <= 1e-9
    assert abs(bp - 0.5j) <= 1e-9
    assert abs(am - 1.0) <= 1e-9
    assert abs(bm + 0.5j) <= 1e-9


def test_cylinder_zero_energy_basis(cylinder_model):
    zb = cylinder_model.zero_energy_basis()
    xs = np.linspace(-30.0, 30.0, 13)
    u0, _, u1, _ = zb.values(xs)
    assert np.max(np.abs(u0 - 1.0)) <= 1e-12
    assert np.max(np.abs(u1 - xs)) <= 1e-10 * (1 + np.abs(xs).max())


# ---------------------------------------------------------------------------
# hyperboloid: oscillatory pipeline
# ---------------------------------------------------------------------------

def test_symmetric_reflection_identity(hyperboloid_model):
    lam = 0.5
    fp = hyperboloid_model.jost_plus(lam, xi_min=-30.0)
    fm = hyperboloid_model.jost_minus(lam, xi_max=30.0)
    xs = np.linspace(-25.0, 25.0, 21)
    vp, _ = fp.values(xs)
    vm, _ = fm.values(-xs)
    assert np.max(np.abs(vm - vp) / np.abs(vp)) <= 1e-8


def test_wronskian_constancy_of_jost_pair(hyperboloid_model):
    lam = 0.5
    fp = hyperboloid_model.jost_plus(lam, xi_min=-30.0)
    fm = hyperboloid_model.jost_minus(lam, xi_max=30.0)
    xs = np.linspace(-22.0, 22.0, 10)
    vp, dp = fp.values(xs)
    vm, dm = fm.values(xs)
    W = wr(vp, dp, vm, dm)
    assert np.max(np.abs(W - W.mean())) <= 1e-7 * abs(W.mean())


@pytest.mark.parametrize("profile", [
    {"kind": "hyperboloid", "params": {"a": 0.2}}, HYPERBOLOID_A1,
    {"kind": "hyperboloid", "params": {"a": 10.0}},
    {"kind": "two-sided-cone-smoothed", "params": {"kappa": 5.0}}],
    ids=["a0.2", "a1", "a10", "cone-k5"])
def test_oscillatory_flux_constant_across_handover(profile):
    # for real V, w = Wr(f+, conj f+)/(-2i lam) is constant; [0, 300]
    # reads the m sweep, which runs through the core for lam <= 1 and
    # hands the core below xi_v = 2/lam to the ODE at lam = 3.  w itself
    # sits ~1e-7 off 1 (the truncation at B), so the spread is what is
    # gated.
    m = ScatteringModel(make_profile(profile))
    xs = np.linspace(0.0, 300.0, 601)
    for lam in (0.011, 0.05, 0.3, 0.9, 3.0):
        f, df = m.jost_plus(lam, xi_hi=300.0).values(xs)
        w = wr(f, df, f.conj(), df.conj()) / (-2j * lam)
        assert np.max(np.abs(w - w[-1])) <= 1e-9, lam


@pytest.mark.parametrize("profile, rtol", [
    (HYPERBOLOID_A1, 2e-12),
    ({"kind": "hyperboloid", "params": {"a": 0.2}}, 1e-8),
    ({"kind": "two-sided-cone-smoothed", "params": {"kappa": 5.0}}, 1e-8)],
    ids=["a1", "a0.2", "cone-k5"])
def test_core_sweep_panel_halving(profile, rtol, monkeypatch):
    # for lam <= 1 the m sweep covers the core on CORE_PANEL-wide panels;
    # halving them moves W by rounding on a=1 and, on the two sharp necks,
    # by the interpolation error of the V spline (~1e-9)
    prof = make_profile(profile)
    chart = ArclengthChart(prof)
    pot = PotentialProfile(prof, chart)
    for lam in (0.05, 0.5):
        W = ScatteringModel(prof, chart, pot).wronskian(lam)
        with monkeypatch.context() as mp:
            mp.setattr(jost, "CORE_PANEL", 0.5 * jost.CORE_PANEL)
            W_half = ScatteringModel(prof, chart, pot).wronskian(lam)
        assert abs(W - W_half) <= rtol * abs(W_half), lam


def test_ode_continues_the_core_only_above_lam_one(monkeypatch):
    # for lam <= 1 the m sweep covers the core; above, each side's core is
    # one ODE continuation, shared by the coefficients and W
    calls = []
    real = jost.solve_ivp

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(jost, "solve_ivp", counting)
    model = ScatteringModel(make_profile(HYPERBOLOID_A1))
    model.scattering_data(0.5)
    assert calls == []
    model.scattering_data(3.0)
    assert len(calls) == 2


@pytest.mark.parametrize("lam", [0.05, 0.5])
def test_core_sweep_far_left_window(hyperboloid_model, lam):
    # a window reaching xi = -1e3 sweeps the core on [-2, 2] only (80
    # CORE_PANEL-wide panels) and reads below -2 through the connection
    # identity, so the grid is the core plus the tail up to B = max(400/lam,
    # 10) (1240 nodes at lam = 0.05, 1120 at 0.5) whatever xi_min; f there
    # agrees with a tight ODE continuation inward from xi = 2
    ev = hyperboloid_model.jost_plus(lam, xi_min=-1e3)
    assert ev.grid.flat.size <= 1240
    pot = hyperboloid_model.pot

    def rhs(s, y):
        return [y[1], (float(pot.V(s)) - lam * lam) * y[0]]

    pts = np.array([-1e3, -20.0, -0.5])
    sol = solve_ivp(rhs, (2.0, -1e3 - 1e-9), ev.values([2.0])[:, 0],
                    method="DOP853", rtol=1e-12, atol=1e-14,
                    dense_output=True)
    want = np.array([sol.sol(x)[0] for x in pts])
    f = ev.values(pts)[0]
    assert np.max(np.abs(f - want) / np.abs(want)) <= 1e-7


@pytest.mark.parametrize("a", [0.2, 1.0, 10.0])
@pytest.mark.parametrize("lam, X", [(0.5, 200.0), (2.0, 50.0), (20.0, 20.0)],
                         ids=["lam0.5", "lam2", "lam20"])
def test_far_reads_match_a_tight_ode(a, lam, X):
    # below -xi_v f+ (above xi_v f-) is a p + b conj(p) of the other
    # end's solve p; both agree with a tight DOP853 continuation from
    # xi = 0, one system for both sides, f-(-s) integrated as g(s), within
    # `gate` of the window's largest |f|.  On a=10 at lam = 20 the other
    # end's solve, truncated at B = 1.1*20 + 10, carries a small e^{-2i lam
    # xi} part that its 40 rad tail panels do not interpolate between nodes:
    # the read is 3.5e-8 off, as a direct read of f+ on [0, 20] is
    gate = 5e-8 if (a, lam) == (10.0, 20.0) else 1e-8
    m = ScatteringModel(make_profile(
        {"kind": "hyperboloid", "params": {"a": a}}))
    fp, fm = m.jost_plus(lam, xi_min=-X), m.jost_minus(lam, xi_max=X)
    (p0, dp0), (g0, dg0) = fp.values([0.0])[:, 0], fm.values([0.0])[:, 0]
    l2, V = lam * lam, m.pot.V_at

    def rhs(s, y):
        return [y[1], (V(s) - l2) * y[0], y[3], (V(-s) - l2) * y[2]]

    sol = solve_ivp(rhs, (0.0, -X - 1e-9), [p0, dp0, g0, -dg0],
                    method="DOP853", rtol=1e-12, atol=1e-14,
                    dense_output=True)
    s = np.linspace(-X, 0.0, 41)
    want = sol.sol(s)
    for got, ref in ((fp.values(s), want[:2]),
                     (fm.values(-s), want[2:] * np.array([[1.0], [-1.0]]))):
        err = np.abs(got - ref).max(axis=1) / np.abs(ref).max(axis=1)
        assert err.max() <= gate


def test_far_left_read_runs_no_long_ode(monkeypatch):
    # the direct solve of a far-left window ends at -xi_v: the ODE only
    # crosses the core [-xi_v, xi_v], while the default solves keep their
    # spans (xi_v, -1e-9) bit for bit
    spans = []
    real = jost.solve_ivp

    def counting(fun, span, *args, **kwargs):
        spans.append(span)
        return real(fun, span, *args, **kwargs)

    monkeypatch.setattr(jost, "solve_ivp", counting)
    model = ScatteringModel(make_profile(HYPERBOLOID_A1))
    ev = model.jost_plus(20.0, xi_min=-1e3)
    ev.values(np.array([-1e3, -0.5, 0.0]))
    assert spans and all(s[0] - s[1] <= 2 * 0.1 + 1e-6 for s in spans)
    spans.clear()
    model.scattering_data(3.0)
    assert spans == [(2.0 / 3.0, -1e-9)] * 2


def test_far_left_window_costs_no_nodes(hyperboloid_model):
    # the direct solve's grid does not grow with |xi_min|; the other end's
    # grows by its geometric tail only, 12 panels per decade of |xi_min|.
    # The flux Wr(f, conj f) stays the same across the identity's cut at -2
    near = [hyperboloid_model.jost_plus(1.0, xi_min=x) for x in (-1e3, -1e5)]
    assert near[0].grid.flat.size == near[1].grid.flat.size == 1080
    assert near[1].partner.grid.flat.size <= 1000
    f, df = near[1].values(np.array([-1e5, -1e3, -2.5, -1.5, 0.0, 5.0]))
    w = wr(f, df, f.conj(), df.conj())
    assert np.max(np.abs(w - w[-1])) <= 1e-9 * abs(w[-1])


def test_wave_sample_h_residual(hyperboloid_model):
    # interior finite differences reproduce lam^2 f - V f to 1e-5 relative
    lam = 0.7
    ev = hyperboloid_model.jost_plus(lam, xi_min=-10.0)
    pot = hyperboloid_model.pot
    for xi0 in (2.1, 7.9, 33.0, 210.0):
        h = 1e-3
        v, _ = ev.values(np.array([xi0 - h, xi0, xi0 + h]))
        second = (v[0] - 2 * v[1] + v[2]) / h ** 2
        resid = -second + (pot.V(xi0) - lam ** 2) * v[1]
        assert abs(resid) <= 1e-5 * abs(lam ** 2 * v[1])


def test_m_plus_decay_law(hyperboloid_model):
    # |m+ - 1| <= C/(lam xi), fitted C on a scan, checked mid-window
    lam = 0.5
    rec = hyperboloid_model._m_side("plus", lam, xi_hi=500.0)
    xis = np.geomspace(4.0, 500.0, 15)
    v, _ = rec.values(xis)
    m = v * np.exp(-1j * lam * xis)
    C = np.max(lam * xis * np.abs(m - 1.0))
    v40, _ = rec.values(np.array([40.0]))
    m40 = v40[0] * np.exp(-1j * lam * 40.0)
    assert abs(m40 - 1.0) <= C / (lam * 40.0) * (1 + 1e-9)
    assert C < 0.5


def test_f_plus_approaches_f0_low_energy(hyperboloid_model):
    # |f+ - f0| <= C xi^{-1/2} lam^{0.4} on [log^2 lam, lam^{-1/2}]
    worst = 0.0
    for lam in (1e-3, 1e-4, 1e-5):
        ev = hyperboloid_model.jost_plus(lam)
        xis = np.geomspace(np.log(lam) ** 2, lam ** -0.5, 7)
        v, _ = ev.values(xis)
        f0v, _ = f0_values(xis, lam)
        worst = max(worst, np.max(np.abs(v - f0v) * np.sqrt(xis))
                    / lam ** 0.4)
    assert worst <= 0.6     # frozen from the development scan (max 0.38)


# ---------------------------------------------------------------------------
# zero-energy and perturbed bases
# ---------------------------------------------------------------------------

def test_zero_energy_asymptotics(hyperboloid_model):
    from conicwave import fit_conical_constants
    zb = hyperboloid_model.zero_energy_basis()
    fit = fit_conical_constants(hyperboloid_model.chart, "right")
    xi = 1.0e4
    (u0,), _, (u1,), _ = zb.values(xi)
    ratio = u0 / (2 ** -0.25 * np.sqrt(xi))
    assert abs(ratio - (1.0 - fit.c_inf / (2 * xi))) <= 1e-3
    c2 = hyperboloid_model.fit_c2()
    val = u1 / u0 - np.sqrt(2.0) * (np.log(xi) + c2)
    assert abs(val) <= 1e-2


def test_zero_energy_annihilated(hyperboloid_model):
    zb = hyperboloid_model.zero_energy_basis()
    pot = hyperboloid_model.pot
    for xi0 in (0.9, 17.0, -110.0):
        h = 1e-3
        pts = np.array([xi0 - h, xi0, xi0 + h])
        u0, _, u1, _ = zb.values(pts)
        for vals in (u0, u1):
            second = (vals[0] - 2 * vals[1] + vals[2]) / h ** 2
            resid = -second + pot.V(xi0) * vals[1]
            scale = max(abs(vals[1]), 1.0)
            assert abs(resid) <= 1e-6 * scale
    xs = np.linspace(-200.0, 200.0, 9)
    w = wr(*zb.values(xs))
    assert np.max(np.abs(w - 1.0)) <= 1e-8


def test_low_energy_basis_limits(hyperboloid_model):
    # lam -> 0 pointwise limit
    lb = hyperboloid_model.low_energy_basis(1e-8, window=120.0)
    zb = hyperboloid_model.zero_energy_basis()
    xs = np.linspace(-100.0, 100.0, 17)
    lu0, _, lu1, _ = lb.values(xs)
    zu0, _, zu1, _ = zb.values(xs)
    rel0 = np.abs(lu0 / zu0 - 1.0)
    away = np.abs(xs) > 0.5
    rel1 = np.abs(lu1[away] / zu1[away] - 1.0)
    assert np.max(rel0) <= 1e-10
    assert np.max(rel1) <= 1e-10
    assert np.max(np.abs(wr(*lb.values(xs)) - 1.0)) <= 1e-8


def test_low_energy_basis_quadratic_departure(hyperboloid_model):
    # u_j(xi, lam)/u_j(xi) - 1 = O((xi lam)^2), fitted constant
    lam = 1e-3
    lb = hyperboloid_model.low_energy_basis(lam, window=600.0)
    zb = hyperboloid_model.zero_energy_basis()
    xs = np.geomspace(20.0, 500.0, 10)
    dep = np.abs(lb.values(xs)[0] / zb.values(xs)[0] - 1.0)
    C = np.max(dep / (xs * lam) ** 2)
    assert dep[-1] <= C * (500.0 * lam) ** 2 * (1 + 1e-9)
    assert C < 1.0
    w = wr(*lb.values(np.array([10.0, 300.0, -450.0])))
    assert np.max(np.abs(w - 1.0)) <= 1e-8


def test_low_energy_basis_lambda_derivative(hyperboloid_model):
    # centered lam-difference of u0(xi, lam) against the leading power law;
    # compared in magnitude (the energy-sign correction flips its sign
    # relative to the printed expansion, cf. the cylinder: d/dlam cos < 0)
    lam, xi = 1e-3, 500.0
    h = 1e-5 * 0.5
    lbp = hyperboloid_model.low_energy_basis(lam + h, window=600.0)
    lbm = hyperboloid_model.low_energy_basis(lam - h, window=600.0)
    der = (lbp.values(xi)[0][0] - lbm.values(xi)[0][0]) / (2 * h)
    lead = 0.5 * 2 ** -0.25 * lam * xi ** 2.5
    assert abs(abs(der) / lead - 1.0) <= 0.10


@pytest.mark.parametrize("profile", [
    {"kind": "two-sided-cone-smoothed", "params": {"kappa": 5.0}},
    {"kind": "hyperboloid", "params": {"a": 0.2}}], ids=["cone-k5", "a0.2"])
def test_low_energy_basis_resolves_a_sharp_neck(profile):
    # u0 is even, so u0'(0) = 0 as for the zero-energy seed; and W from
    # the basis coefficients is the Wronskian at xi = 0 of the evaluators
    # read off that basis.  First panels of width 0.5 left 4e-10 to 7e-10
    # in u0'(0) and 2e-9 in W on these necks
    m = ScatteringModel(make_profile(profile))
    lam = 1e-2
    zero = np.array([0.0])
    assert abs(m.low_energy_basis(lam).values(zero)[1][0]) <= 1e-10
    W, _, fp, fm = m._w_alpha(lam)
    assert fp.regime == fm.regime == jost.REGIME_LOW_ENERGY
    (f1,), (df1,) = fp.values(zero)
    (f2,), (df2,) = fm.values(zero)
    assert abs(wr(f1, df1, f2, df2) - W) <= 2e-10 * abs(W)


@pytest.mark.parametrize("profile", [
    {"kind": "hyperboloid", "params": {"a": 0.2}}, HYPERBOLOID_A1,
    {"kind": "hyperboloid", "params": {"a": 10.0}},
    {"kind": "two-sided-cone-smoothed", "params": {"kappa": 5.0}}],
    ids=["a0.2", "a1", "a10", "cone-k5"])
def test_side_basis_mu_bounds_its_solutions(profile, monkeypatch):
    # the basis series' mu bounds the integral of its kernel's sup over
    # xi >= eta, so it must hold both summed solutions, ||f|| <= e^mu ||g||,
    # and stay small: the separable bound sum_r sup|A_r| int|B_r| reached
    # 117 on the cone at lam = 1e-3
    m = ScatteringModel(make_profile(profile))
    seen = []

    def recording(f, g, mu, atol):
        check_bound(f, g, mu, atol)
        seen.append((mu, np.max(np.abs(f)) / np.max(np.abs(g))))

    monkeypatch.setattr(jost, "check_bound", recording)
    for lam in (1e-6, 1e-3, 1e-2):
        L = min(3.0 / lam, 0.98 * m.pot.xi_cap)
        for side in ("plus", "minus"):
            m._side_basis(side, lam, L)
    assert len(seen) == 12               # 3 lam x 2 sides x 2 seeds
    for mu, ratio in seen:
        assert np.log(ratio) <= mu <= 5.0


BENCH_PROFILES = [{"kind": "hyperboloid", "params": {"a": 0.2}},
                  HYPERBOLOID_A1, {"kind": "hyperboloid", "params": {"a": 10.0}},
                  {"kind": "two-sided-cone-smoothed", "params": {"kappa": 5.0}}]
BENCH_IDS = ["a0.2", "a1", "a10", "cone-k5"]


def _sweep_basis(pv, lam, grid):
    """(u0, u0', u1, u1') at the nodes of ``grid`` from the forward basis
    equation solved there by successive substitution."""
    u0, du0, u1, du1 = jost._seed_values(pv, grid.flat)
    lam2 = lam * lam
    integ = [panels.PrefixIntegrator(grid)] * 2
    out = []
    for seed, dseed in ((u0, du0), (u1, du1)):
        f, (p0, p1), _ = sweep(
            integ, (-lam2 * u1, lam2 * u0), (u0, u1), seed.astype(complex),
            jost.SWEEP_TOL * max(1.0, float(np.max(np.abs(seed)))), 10.0)
        out += [f.real, dseed - lam2 * (du1 * p0 - du0 * p1).real]
    return np.stack(out)


@pytest.mark.parametrize("profile", BENCH_PROFILES, ids=BENCH_IDS)
def test_series_basis_matches_the_sweep(profile):
    # the summed series reads the sweep on its own grid (the panels of its
    # stack that cover the window) within 1e-11 of the window's max (6e-14
    # measured) at the nodes up to L, at the matching window 1.3 lam^-1/2
    # and the whole zone min(3/lam, cap)
    m = ScatteringModel(make_profile(profile))
    cap = 0.98 * m.pot.xi_cap
    for lam in (1e-6, 1e-3, 1e-2, 0.5, 20.0):
        for L in {min(1.3 * lam ** -0.5, 3.0 / lam), min(3.0 / lam, cap)}:
            for side in ("plus", "minus"):
                rec = m._side_basis(side, lam, L)
                x = rec.grid.flat
                want = _sweep_basis(m._pv(side), lam, rec.grid)[:, x <= L]
                dev = np.max(np.abs(rec.values(x[x <= L]) - want), axis=1)
                assert np.all(dev <= 1e-11 * np.max(np.abs(want), axis=1))


def _refined_grid(lam, L):
    """[0, L] in 0.0625-wide core panels up to 4, 24 per decade beyond and
    24 per decade from min(1e-4, L/10) up to the first core break, split
    where lam turns by more than 0.2 rad; order 14."""
    core = panels.graded_breaks(0.0, L, min(4.0, L), 0.0625, 24)
    breaks = np.concatenate([[0.0], panels.geometric_breaks(
        min(1e-4, L / 10.0), core[1], 24)[:-1], core[1:]])
    return panels.PanelGrid.build(
        panels.cap_phase(breaks, lambda s: lam, max_phase=0.2), order=14)


@pytest.mark.parametrize("profile", BENCH_PROFILES, ids=BENCH_IDS)
def test_series_basis_matches_a_refined_sweep(profile):
    # at the windows of _side_coefficients the basis reads a sweep on a
    # refined grid within 5e-9 of each component's max (9.7e-10 measured,
    # at lam = 20).  An energy's own grid with 0.25-wide core panels, once
    # used above lam_low, read 4.2e-7 (a0.2) and 3.4e-7 (cone-k5) at lam =
    # 3.  Like the basis, the reference interpolates only its part beyond
    # the seed: interpolating the seed, whose chart has limited smoothness
    # at a sharp neck, left it 6e-9 off itself refined
    m = ScatteringModel(make_profile(profile))
    for lam in (1e-3, 0.05, 0.5, 3.0, 20.0):
        L = min(1.3 * min(lam ** -0.5, 2.5 / lam) + 1.0, 3.0 / lam)
        grid, x = _refined_grid(lam, L), np.linspace(0.0, L, 201)
        for side in ("plus", "minus"):
            pv = m._pv(side)
            want = np.stack(jost._seed_values(pv, x)) + grid.interpolate(
                _sweep_basis(pv, lam, grid)
                - np.stack(jost._seed_values(pv, grid.flat)), x)
            dev = np.abs(m._side_basis(side, lam, L).values(x) - want)
            assert np.all(dev.max(axis=1)
                          <= 5e-9 * np.abs(want).max(axis=1))


def test_low_energy_bases_sum_one_term_stack_per_side(monkeypatch):
    # every energy sums one of the side's two stacks, one up to lam_low and
    # one above it, each seeded once; a window that needs more terms
    # extends its stack, keeping the terms it had
    m = ScatteringModel(make_profile(HYPERBOLOID_A1))
    seeded = []
    real = jost._Terms.seeded

    def counting(pv, grid):
        seeded.append((pv, grid.breaks[-1]))
        return real(pv, grid)

    monkeypatch.setattr(jost._Terms, "seeded", counting)
    for lam in (1e-5, 1e-3, 0.05, 3.0, 50.0):
        m.scattering_data(lam)
    assert len(seeded) == len(set(seeded)) == 4
    for lam in (1e-3, 5e-4, 1e-5, 1e-2):
        for side in ("plus", "minus"):
            m._side_basis(side, lam, 1.3 * lam ** -0.5)
    stack = m._series[("plus", True)]
    m._side_basis("plus", 5e-4, 3.0 / 5e-4)
    grown = m._series[("plus", True)]
    assert len(grown.t) > len(stack.t) and grown.grid is stack.grid
    assert np.array_equal(grown.t[:len(stack.t)], stack.t)
    assert np.array_equal(grown.peak[:len(stack.t)], stack.peak)
    # a narrower window at another energy sums the stack as it is
    m._side_basis("plus", 2e-4, 1.3 * 2e-4 ** -0.5)
    assert m._series[("plus", True)] is grown
    for lam in (0.02, 7.0, 1e3):
        m._side_basis("plus", lam, min(1.3 * lam ** -0.5, 3.0 / lam))
    assert len(seeded) == 4 and m._series[("plus", True)] is grown


def test_side_basis_refuses_what_its_grids_do_not_resolve():
    # LAM_BASIS_MAX = 1e5 ties the high stack's first break to the window
    # 3/lam; there the coefficients still pass the coeffs gates
    # (constancy 3.96e-10), and above it the basis is refused by name
    m = ScatteringModel(make_profile(HYPERBOLOID_A1))
    sd = m.scattering_data(jost.LAM_BASIS_MAX)
    assert all(sd.residuals[k] <= gate
               for k, gate in cli._COEFFS_GATES.items())
    with pytest.raises(DomainError, match="lam <= LAM_BASIS_MAX = 100000.0"):
        m.scattering_data(1.01 * jost.LAM_BASIS_MAX)
    # a window past the high stack's grid (it ends at 14) once read a basis
    # extrapolated past it, 4.9e2 off on a0.2
    m = ScatteringModel(make_profile(BENCH_PROFILES[0]))
    with pytest.raises(DomainError, match="term grid"):
        m._side_basis("plus", 0.05, 60.0)


def test_basis_series_stops_at_max_sweeps(monkeypatch):
    # the series needs about a dozen terms at lam xi = 3; capped at 3 it
    # raises, on the stacks up to and above lam_low alike
    m = ScatteringModel(make_profile(HYPERBOLOID_A1))
    monkeypatch.setattr(volterra, "MAX_SWEEPS", 3)
    for lam in (1e-2, 0.5):
        with pytest.raises(ConvergenceError, match="more than 3 terms"):
            m._side_basis("plus", lam, 3.0 / lam)
        assert ("basis", "plus", 3.0 / lam) not in m._store(lam)
    monkeypatch.setattr(volterra, "MAX_SWEEPS", 200)
    for lam in (1e-2, 0.5):
        m._side_basis("plus", lam, 3.0 / lam)


def test_threads_on_one_model_share_the_term_stacks():
    # threads that extend a side's stack while others sum it read the same
    # bases, bit for bit, as one thread does: a stack is published whole,
    # and a sum reads only the terms its window needs
    cases = [(lam, L) for lam in (1e-2, 3e-3, 1e-3, 1e-4, 1e-5)
             for L in (1.3 * lam ** -0.5, min(3.0 / lam, 1e4))]
    xs = np.array([0.0, 1.0, 7.5, 30.0])

    def read(m, lam, L):
        return repr(m.low_energy_basis(lam, window=L).values(xs[xs <= L]))

    serial = ScatteringModel(make_profile(HYPERBOLOID_A1))
    want = {c: read(serial, *c) for c in cases}
    shared = ScatteringModel(make_profile(HYPERBOLOID_A1))
    got, errors = {c: set() for c in cases}, []

    def work(k):
        try:
            for c in cases[k::4] + cases[:k:4] + cases[::-1]:
                got[c].add(read(shared, *c))
        except Exception as exc:      # reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert got == {c: {w} for c, w in want.items()}


def test_low_energy_basis_window_guard(hyperboloid_model):
    with pytest.raises(DomainError):
        hyperboloid_model.low_energy_basis(1e-3, window=1.0e6)
    with pytest.raises(DomainError):
        hyperboloid_model.low_energy_basis(0.5)
    # the perturbed basis is solved on xi*lam <= 3 only
    with pytest.raises(DomainError):
        hyperboloid_model.low_energy_basis(1e-3, window=3500.0)
    with pytest.raises(DomainError):
        hyperboloid_model.jost_plus(1e-2, xi_min=-400.0)
    # a window that is not finite and > 0 is refused by name; nan once gave
    # a basis over (nan, nan), and -5 or 0 failed inside the panel builder
    for window in (float("nan"), float("inf"), -5.0, 0.0):
        with pytest.raises(DomainError, match=f"window > 0, got {window!r}"):
            hyperboloid_model.low_energy_basis(1e-3, window=window)


def test_zero_energy_moments_refuse_a_bad_xi(hyperboloid_model):
    # these once failed inside the panel builder or the basis window check
    for xi in (0.0, -3.0, float("nan"), float("inf")):
        with pytest.raises(DomainError, match=f"xi > 0, got {xi!r}"):
            hyperboloid_model.zero_energy_moments(xi)


def test_bases_refuse_xi_past_their_window(hyperboloid_model):
    # past its window a basis only extrapolates its panel grid: the lam =
    # 1e-3 basis on [-600, 600] reads u0(2000) = 196.4 there, where the
    # zero-energy u0 is 37.6
    lb = hyperboloid_model.low_energy_basis(1e-3, window=600.0)
    assert lb.window == (-600.0, 600.0)
    lb.values(np.array([-600.0, 600.0]))
    for xi in (2000.0, -2000.0):
        with pytest.raises(DomainError):
            lb.values(np.array([0.0, xi]))
    zb = hyperboloid_model.zero_energy_basis()
    cap = 3.0 * hyperboloid_model.pot.xi_cap
    for xi in (cap, -cap):
        with pytest.raises(DomainError):
            zb.values(xi)
    # the one-sided bases behind both pipelines check theirs too
    side = hyperboloid_model._side_basis("plus", 1e-3, 600.0)
    with pytest.raises(DomainError):
        side.values(np.array([-1.0]))
    with pytest.raises(DomainError):
        side.values(np.array([601.0]))
    # an empty read is empty for every kind of basis (a perturbed one
    # raised ValueError from the panel gather)
    for basis in (lb, zb, side):
        assert basis.values(np.array([])).shape == (4, 0)


def test_energy_check_rejects_zero_negative_and_nan(hyperboloid_model):
    m = hyperboloid_model
    entries = (m.scattering_data, m.wronskian, m.jost_plus, m.jost_minus,
               m.low_energy_basis,
               lambda lam: KernelEngine(m).spectral_density(1.0, 0.0, lam))
    for entry in entries:
        for lam in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                entry(lam)


def test_forced_low_pipeline_above_lam_low_raises(hyperboloid_model):
    # the matching basis of the low pipeline is built for lam <= lam_low;
    # forced above it, f was off by 3.6e-2 relative at lam = 0.1
    lam = 0.1
    assert lam > hyperboloid_model.lam_low
    with pytest.raises(DomainError):
        hyperboloid_model.jost_plus(lam, pipeline="low")
    with pytest.raises(DomainError):
        hyperboloid_model.wronskian(lam, pipeline="low")


def test_unknown_or_unsupported_pipeline_raises(hyperboloid_model,
                                                cylinder_model):
    with pytest.raises(DomainError, match="unknown pipeline"):
        hyperboloid_model.jost_plus(0.5, pipeline="fast")
    # the low pipeline matches onto a conical end, which the cylinder lacks
    with pytest.raises(DomainError, match="needs a conical right end"):
        cylinder_model.jost_plus(1e-3, pipeline="low")


# ---------------------------------------------------------------------------
# coefficients and the Wronskian laws
# ---------------------------------------------------------------------------

def test_symmetric_coefficient_relations(hyperboloid_model):
    for lam in (1e-3, 1e-5):
        sd = hyperboloid_model.scattering_data(lam)
        ap, bp, am, bm = sd.a_plus, sd.b_plus, sd.a_minus, sd.b_minus
        assert abs(am - ap) <= 1e-6 * abs(ap)
        assert abs(bm + bp) <= 1e-6 * abs(bp)


def test_b_plus_low_energy_law(hyperboloid_model):
    lams = np.geomspace(1e-6, 1e-3, 7)
    res = []
    for lam in lams:
        bp = hyperboloid_model.scattering_data(lam).b_plus
        res.append(abs(bp / (1j * 2 ** -0.25 * C0 * C1 * np.sqrt(lam)) - 1.0))
    res = np.asarray(res)
    rate = np.polyfit(np.log(lams), np.log(res), 1)[0]
    assert res[0] <= 0.05
    assert rate >= 0.4


def test_a_plus_log_law_constant(hyperboloid_model):
    vals = []
    for lam in (1e-6, 1e-5):
        ap = hyperboloid_model.scattering_data(lam).a_plus
        z = ap / (2 ** 0.25 * C0 * np.sqrt(lam)) - (1 + 1j * C1 * np.log(lam))
        vals.append(z)
    # residual converges to i*c3 with c3 = kappa - c1 c2
    c3 = KAPPA - C1 * hyperboloid_model.fit_c2()
    for z in vals:
        assert abs(z.real) <= 5e-3
        assert abs(z.imag - c3) <= 0.01


def test_wronskian_low_energy_log_law(hyperboloid_model):
    c3 = KAPPA - C1 * hyperboloid_model.fit_c2()
    for lam in (1e-6, 1e-5, 1e-4):
        W = hyperboloid_model.wronskian(lam)
        z = W / (2 * lam) - 1j * C1 * np.log(lam)
        assert abs(z - (1.0 + 1j * c3)) <= 0.05 * abs(z)


def test_wronskian_high_energy_bounded(hyperboloid_model):
    for lam in (10.0, 40.0, 100.0):
        W = hyperboloid_model.wronskian(lam)
        assert abs(W + 2j * lam) <= 1.0


def test_reflection_transmission_laws(hyperboloid_model):
    def alpha_beta(lam):
        sd = hyperboloid_model.scattering_data(lam)
        return sd.alpha_minus, sd.beta_minus

    lam = 1e-5
    alpha, beta = alpha_beta(lam)
    c3 = KAPPA - C1 * hyperboloid_model.fit_c2()
    assert abs((alpha / 1j - C1 * np.log(lam)) - c3) <= 0.05 * abs(c3) \
        + 0.05 * abs(C1 * np.log(lam)) * 0 + 0.05
    # high energy: alpha = O(lam^-2), beta = 1 + O(1/lam)
    scan = [(lam2, *alpha_beta(lam2))
            for lam2 in (10.0, 25.0, 50.0)]
    Ca = max(abs(a) * l ** 2 for l, a, _ in scan)
    Cb = max(abs(b - 1.0) * l for l, _, b in scan)
    l, a, b = 50.0, *alpha_beta(50.0)
    assert abs(a) <= Ca / l ** 2 * (1 + 1e-9)
    assert abs(b - 1.0) <= Cb / l * (1 + 1e-9)
    assert Ca < 10.0 and Cb < 10.0


def test_unitarity_identity(hyperboloid_model):
    for lam in (1e-6, 1e-4, 0.5, 7.0):
        sd = hyperboloid_model.scattering_data(lam)
        alpha, beta = sd.alpha_minus, sd.beta_minus
        assert abs(abs(beta) ** 2 - abs(alpha) ** 2 - 1.0) <= 1e-5


def test_no_wronskian_zeros(hyperboloid_model):
    lams = np.geomspace(1e-6, 50.0, 12)
    vals = [abs(hyperboloid_model.wronskian(l)) / (2 * l) for l in lams]
    assert min(vals) >= 1.0 - 1e-6


def test_scattering_data_residuals(hyperboloid_model):
    for lam in (1e-4, 0.5):
        sd = hyperboloid_model.scattering_data(lam)
        assert sd.residuals["wronskian_constancy"] <= 1e-6
        assert sd.residuals["connection_identity"] <= 1e-6
        assert sd.residuals["beta_from_W"] <= 1e-6
        assert sd.residuals["unitarity"] <= 1e-5
        assert sd.residuals["lower_bound"] <= 1e-9


def test_pipeline_overlap(hyperboloid_model):
    # low-energy representation vs oscillatory continuation, 2 <= xi lam <= 4
    for lam in (1e-3, 1e-2):
        lo = hyperboloid_model.jost_plus(lam, pipeline="low")
        osc = hyperboloid_model.jost_plus(lam, pipeline="osc")
        xis = np.linspace(2.0 / lam, min(4.0 / lam, 0.98 * lo.window[1]), 9)
        vl, dl = lo.values(xis)
        vo, do = osc.values(xis)
        assert np.max(np.abs(vl - vo) / np.abs(vo)) <= 1e-4
        assert np.max(np.abs(dl - do) / np.abs(do)) <= 1e-4
    # a kernel-table evaluator (span 1100) near the top of its V1 grid
    lam = 1e-2
    lo = hyperboloid_model.jost_plus(lam, xi_hi=1100.0, pipeline="low")
    osc = hyperboloid_model.jost_plus(lam, xi_hi=1100.0, pipeline="osc")
    xis = np.array([900.0, 1000.0, 1090.0])
    vl, dl = lo.values(xis)
    vo, do = osc.values(xis)
    assert np.max(np.abs(vl - vo) / np.abs(vo)) <= 1e-4
    assert np.max(np.abs(dl - do) / np.abs(do)) <= 1e-4


def test_low_table_record_reads_matching_basis_only(monkeypatch):
    # a span-1100 table row with both sides on the low pipeline takes
    # everything below the V1 grid from the two matching bases
    # (L = 1.3 lam^-1/2) and continues no ODE
    model = ScatteringModel(make_profile(HYPERBOLOID_A1))
    calls = []
    real = jost.solve_ivp

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(jost, "solve_ivp", counting)
    matches = []
    real_match = jost._match

    def counting_match(*args):
        matches.append(args)
        return real_match(*args)

    monkeypatch.setattr(jost, "_match", counting_match)
    lam = 8e-3
    KernelEngine(model, xi_abs_max=1.1e3)._rows([lam])
    held, store = model._energy
    keys = sorted(k[1:] for k in store if k[0] == "basis")
    assert held == lam
    assert [k[0] for k in keys] == ["minus", "plus"]
    assert all(k[1] == 1.3 * lam ** -0.5 for k in keys)
    assert calls == []
    # one match per side solve: the row's two sides, then the two of
    # scattering_data, whose own B (xi_hi = 0) is a new solve; a repeat of
    # either reads the matches its solves carry
    assert len(matches) == 2
    model.scattering_data(lam)
    assert len(matches) == 4
    KernelEngine(model, xi_abs_max=1.1e3)._rows([lam])
    model.scattering_data(lam)
    assert len(matches) == 4


def test_scattering_data_unaffected_by_table_records():
    # a span-1100 table row builds its own V1 grid; scattering_data keeps
    # its own
    fresh = ScatteringModel(make_profile(HYPERBOLOID_A1))
    used = ScatteringModel(make_profile(HYPERBOLOID_A1))
    engine = KernelEngine(used, xi_abs_max=1.1e3)
    for lam in (7e-3, 1e-2):
        engine._rows([lam])
        assert repr(used.scattering_data(lam)) == \
            repr(fresh.scattering_data(lam))


def test_solves_do_not_depend_on_earlier_calls():
    # the oscillatory solve and the perturbed basis are cached on exactly
    # the window they are built on, so a nearby earlier request is no hit
    fresh = ScatteringModel(make_profile(HYPERBOLOID_A1))
    used = ScatteringModel(make_profile(HYPERBOLOID_A1))
    used.jost_plus(2.0, xi_hi=1000.0)
    got = used.jost_plus(2.0, xi_hi=1000.0004)
    want = fresh.jost_plus(2.0, xi_hi=1000.0004)
    assert got.window == want.window == (0.0, 1.1 * 1000.0004 + 10.0)
    assert used.wronskian(2.0) == fresh.wronskian(2.0)
    pts = np.array([0.0, 3.0, 1100.0])
    assert repr(got.values(pts)) == repr(want.values(pts))
    used.low_energy_basis(1e-3, window=13.0000001)
    L = 13.0000003
    assert repr(used.low_energy_basis(1e-3, window=L).values([L])) == \
        repr(fresh.low_energy_basis(1e-3, window=L).values([L]))


def test_model_holds_one_energy():
    # the model keeps the solves of the energy it is on, for both sides and
    # every window, and lets go of them at the next energy
    model = ScatteringModel(make_profile(HYPERBOLOID_A1))
    ev = model.jost_plus(0.5)
    assert model.jost_plus(0.5) is ev
    ref = weakref.ref(ev)
    del ev
    gc.collect()
    assert ref() is not None
    model.scattering_data(0.7)
    gc.collect()
    assert ref() is None
    assert model._energy[0] == 0.7


def test_threads_on_one_model_read_their_own_energy():
    # threads at different energies replace each other's store; each call
    # still reads only its own energy's work, so every record equals the
    # one a model used by a single thread gives
    lams = [1e-3, 5e-3, 0.05, 0.5, 2.0, 7.0]
    serial = ScatteringModel(make_profile(HYPERBOLOID_A1))
    want = {lam: {repr(serial.scattering_data(lam))} for lam in lams}
    shared = ScatteringModel(make_profile(HYPERBOLOID_A1))
    got, errors = {lam: set() for lam in lams}, []

    def work(k):
        try:
            for lam in lams[k:] + lams[:k]:
                got[lam].add(repr(shared.scattering_data(lam)))
        except Exception as exc:      # reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert got == want


def test_wronskian_pipeline_agreement(hyperboloid_model):
    m = hyperboloid_model
    for lam in (1e-3, 3e-3, 1e-2):
        Wl = m.wronskian(lam, pipeline="low")
        rp = m._m_side("plus", lam)
        rm = m._m_side("minus", lam)
        fp, dfp = rp.values(np.array([0.0]))
        fmv, dfmv = rm.values(np.array([0.0]))
        Wo = complex(wr(fp[0], dfp[0], fmv[0], -dfmv[0]))
        assert abs(Wl - Wo) <= 1e-5 * abs(Wo)


def _one_sided_model():
    # r = sqrt(1 + softplus(x)^2): conical on the right end only, so at
    # lam = 5e-3 <= lam_low the plus side runs the low pipeline and the
    # minus side the oscillatory one (lam * 0.98 * xi_cap >= 12.5).  The
    # table reaches |x| = 1e4, where make_profile checks the conical end.
    x = np.arange(-100000, 100001) * 0.1
    r = np.sqrt(1.0 + np.logaddexp(0.0, x) ** 2)
    prof = make_profile({"kind": "custom-tabulated",
                         "params": {"x": x, "r": r}, "conical_right": True})
    return ScatteringModel(prof, ArclengthChart(prof, x_max=3000.0))


@pytest.mark.parametrize("new_model", [
    lambda: ScatteringModel(make_profile(HYPERBOLOID_A1)), _one_sided_model],
    ids=["hyperboloid", "one-sided"])
def test_zero_energy_basis_below_zero_is_the_seed(new_model):
    # below 0 the zero-energy basis reads its mirrored half at -xi with the
    # parity signs; the mirror only negates, so that is the seed of the
    # plus view at xi bit for bit, -0.0 (read by the plus half) included,
    # in one read and point by point
    m = new_model()
    zb = m.zero_energy_basis()
    x = np.array([-0.0, -1e-9, -0.3, -1.0, -7.5, -40.0, -1e3,
                  zb.window[0], 0.0, 2.0])

    def bits(a):
        return np.ascontiguousarray(a, dtype=float).view(np.uint64)

    want = np.array(jost._seed_values(m.pot, x))
    assert np.array_equal(bits(zb.values(x)), bits(want))
    for k, xi in enumerate(x):
        assert np.array_equal(bits(zb.values(xi)), bits(want[:, k:k + 1]))


@pytest.mark.parametrize("new_model, low_lam", [
    (lambda: ScatteringModel(make_profile(HYPERBOLOID_A1)), 1e-4),
    (_one_sided_model, 5e-3)], ids=["hyperboloid", "one-sided"])
def test_both_sides_share_the_energys_arrays(monkeypatch, new_model,
                                             low_lam):
    # the grid, the suffix integrators and e^{-2i lam xi} of the m sweep
    # and the V1 grid with its Hankel waves depend on lam and the breaks
    # only, so the two sides' solves at one energy build them once; at
    # low_lam the one-sided profile mixes the pipelines (plus low, minus
    # oscillatory), so its f0 is built for one side there either way
    omegas, hankels = [], []
    real_init, real_f0 = panels.SuffixIntegrator.__init__, jost.f0_values

    def init(self, grid, omega=0.0):
        omegas.append(omega)
        real_init(self, grid, omega)

    def f0(*args):
        hankels.append(args)
        return real_f0(*args)

    monkeypatch.setattr(panels.SuffixIntegrator, "__init__", init)
    monkeypatch.setattr(jost, "f0_values", f0)
    m = new_model()
    for lam in (0.5, 3.0):
        omegas.clear()
        m.scattering_data(lam)
        assert omegas.count(2.0 * lam) == 1
        assert m._m_side("plus", lam).grid is m._m_side("minus", lam).grid
    m.scattering_data(low_lam)
    assert len(hankels) == 2
    for lam in (0.5, 3.0, low_lam):
        fresh = new_model()
        fresh.jost_minus(lam)
        fresh.jost_plus(lam)
        got, want = m.scattering_data(lam), fresh.scattering_data(lam)
        assert repr((got.W, got.alpha_minus, got.beta_minus)) == \
            repr((want.W, want.alpha_minus, want.beta_minus))


def test_one_sided_profile_w_agrees_with_beta():
    m = _one_sided_model()
    lam = 5e-3
    assert m._pipeline_for("plus", lam, "auto") == "low"
    assert m._pipeline_for("minus", lam, "auto") == "osc"
    sd = m.scattering_data(lam)
    assert sd.W == m.wronskian(lam)
    assert abs(sd.beta_minus - sd.W / (-2j * lam)) <= 1e-15 * abs(sd.beta_minus)
    # W and the basis-coefficient W come from different pipelines here
    assert sd.residuals["connection_identity"] > 0.0
    # W is the Wronskian at xi = 0 of the very evaluators jost_plus and
    # jost_minus return; at lam = 2e-3 the minus side's oscillatory solve
    # needs the cylinder end's own C2 (the right end's refuses it)
    zero = np.array([0.0])
    for lam in (2e-3, 5e-3, 1e-2):
        sd = m.scattering_data(lam)
        (fp,), (dfp,) = m.jost_plus(lam).values(zero)
        (fm,), (dfm,) = m.jost_minus(lam).values(zero)
        assert sd.W == complex(wr(fp, dfp, fm, dfm))
        assert sd.residuals["unitarity"] <= 1e-9
        # the coeffs gates: r, r' and r'' of the table come from one spline,
        # so the zero-energy seeds and V describe one surface
        assert sd.residuals["connection_identity"] <= 1e-6
        assert sd.residuals["wronskian_constancy"] <= 1e-8


# ---------------------------------------------------------------------------
# validation suites
# ---------------------------------------------------------------------------

def test_validate_low_energy_suite(hyperboloid_model):
    report = hyperboloid_model.validate_low_energy(
        np.geomspace(1e-6, 1e-2, 25))
    for name, rec in report.items():
        assert rec["ok"], f"{name}: {rec}"
    c3 = report["wronskian_low_law"]["constants"]["c3"]
    gamma = report["gamma_constants"]["constants"]
    # fitted c3 agrees with kappa - c1 c2
    c3_law = report["c3_cross_check"]["constants"]["kappa_minus_c1c2"]
    assert abs(c3 - c3_law) <= 0.03 * abs(c3)
    # gamma constants at their symmetric-case values
    assert abs(gamma["gamma0"] - np.pi / (2 * np.sqrt(2))) <= 1e-3
    assert abs(gamma["gamma1"] - 1.0 / (np.sqrt(2) * np.pi)) <= 2e-3
    # c3 and the moment constant of the second expansion differ
    assert abs(report["moment_m2"]["constants"]["c3_tilde"] - c3) > 0.05


def test_validate_status_follows_threshold(hyperboloid_model, monkeypatch):
    # a second moment that no longer fits its law must flag its row
    model_cls = type(hyperboloid_model)
    moments = model_cls.zero_energy_moments

    def off_law(self, xi):
        m1, m2 = moments(self, xi)
        return m1, m2 + (-1) ** round(4 * np.log10(xi)) * xi ** 2.5

    monkeypatch.setattr(model_cls, "zero_energy_moments", off_law)
    report = hyperboloid_model.validate_low_energy(
        np.geomspace(1e-6, 1e-4, 3))
    assert report["moment_m2"]["value"] > report["moment_m2"]["threshold"]
    assert not report["moment_m2"]["ok"]
    for name, rec in report.items():
        assert rec["ok"] <= (rec["value"] <= rec["threshold"]), name


def test_validate_high_energy_suite(hyperboloid_model):
    report = hyperboloid_model.validate_high_energy(
        np.geomspace(1.0, 100.0, 8))
    for name, rec in report.items():
        assert rec["ok"], f"{name}: {rec}"
    assert report["m_minus_one"]["constants"]["C"] < 1.0


def test_validation_grids_are_checked(hyperboloid_model):
    m = hyperboloid_model
    with pytest.raises(DomainError, match="lam_low"):
        m.validate_low_energy(np.geomspace(1e-5, 2.0 * m.lam_low, 9))
    with pytest.raises(DomainError, match="two decades"):
        m.validate_low_energy(np.geomspace(1e-4, 5e-3, 9))
    with pytest.raises(DomainError, match="lam >= 1"):
        m.validate_high_energy(np.geomspace(0.5, 100.0, 8))
    # a bad lam is named before any solve: NaN passed every comparison and
    # reached a solve (low) or int() (high), inf reached geometric_breaks
    held = m._energy
    nan, inf = float("nan"), float("inf")
    for grid, bad in (([1e-5, nan, 1e-3], "nan"), ([1e-5, 1e-3, inf], "inf"),
                      ([0.0, 1e-5, 1e-3], "0.0")):
        with pytest.raises(DomainError, match=f"lam = {bad}"):
            m.validate_low_energy(grid)
    for grid, bad in (([nan, 2.0], "nan"), ([inf, 2.0], "inf"),
                      ([2.0, 0.5], "0.5")):
        with pytest.raises(DomainError, match=f"lam >= 1.*lam = {bad}"):
            m.validate_high_energy(grid)
    # an empty grid raised IndexError from the fit after an empty scan
    with pytest.raises(DomainError, match="empty grid"):
        m.validate_high_energy([])
    assert m._energy is held


def test_jost_rejects_bad_lambda(hyperboloid_model):
    with pytest.raises(DomainError):
        hyperboloid_model.jost_plus(0.0)
    with pytest.raises(DomainError):
        hyperboloid_model.wronskian(-1.0)
