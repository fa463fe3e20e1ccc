"""Jost solutions, scattering coefficients and the asymptotic laws."""

import numpy as np
import pytest

from conicwave import (C0, C1, KAPPA, ArclengthChart, DomainError,
                       KernelEngine, ScatteringModel, f0_values, make_profile)
from conicwave import jost
from conicwave.jost import wr

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
    # reads the core ODE below xi_v = min(2/lam, 2) and the m sweep above
    # it.  w itself sits ~1e-7 off 1 (the truncation at B), so the spread
    # is what is gated.
    m = ScatteringModel(make_profile(profile))
    xs = np.linspace(0.0, 300.0, 601)
    for lam in (0.011, 0.05, 0.3, 0.9, 3.0):
        f, df = m.jost_plus(lam, xi_hi=300.0).values(xs)
        w = wr(f, df, f.conj(), df.conj()) / (-2j * lam)
        assert np.max(np.abs(w - w[-1])) <= 1e-9, lam


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
    # a span-1100 table record with both sides on the low pipeline takes
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
    KernelEngine(model, xi_abs_max=1.1e3)._record(lam)
    keys = sorted(model._basis_cache)
    assert [k[0] for k in keys] == ["minus", "plus"]
    assert all(k[2] == 1.3 * lam ** -0.5 for k in keys)
    assert calls == []
    # one match per side solve: the record's two sides, then the two of
    # scattering_data, whose own B (xi_hi = 0) is a new solve; a repeat of
    # either reads the matches its solves carry
    assert len(matches) == 2
    model.scattering_data(lam)
    assert len(matches) == 4
    KernelEngine(model, xi_abs_max=1.1e3)._record(lam)
    model.scattering_data(lam)
    assert len(matches) == 4


def test_scattering_data_unaffected_by_table_records():
    # a span-1100 record builds its own V1 grid; scattering_data keeps its own
    fresh = ScatteringModel(make_profile(HYPERBOLOID_A1))
    used = ScatteringModel(make_profile(HYPERBOLOID_A1))
    engine = KernelEngine(used, xi_abs_max=1.1e3)
    for lam in (7e-3, 1e-2):
        engine._record(lam)
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


def test_one_sided_profile_w_agrees_with_beta():
    # r = sqrt(1 + softplus(x)^2): conical on the right end only, so at
    # lam = 5e-3 <= lam_low the plus side runs the low pipeline and the
    # minus side the oscillatory one (lam * 0.98 * xi_cap >= 12.5).  The
    # table reaches |x| = 1e4, where make_profile checks the conical end.
    x = np.arange(-100000, 100001) * 0.1
    r = np.sqrt(1.0 + np.logaddexp(0.0, x) ** 2)
    prof = make_profile({"kind": "custom-tabulated",
                         "params": {"x": x, "r": r}, "conical_right": True})
    m = ScatteringModel(prof, ArclengthChart(prof, x_max=3000.0))
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


def test_jost_rejects_bad_lambda(hyperboloid_model):
    with pytest.raises(DomainError):
        hyperboloid_model.jost_plus(0.0)
    with pytest.raises(DomainError):
        hyperboloid_model.wronskian(-1.0)
