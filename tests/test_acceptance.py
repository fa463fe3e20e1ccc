"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is
calibrated at run time except constants the criteria themselves define as
fitted.
"""

import numpy as np

from conicwave import (C0, C1, ArclengthChart, KernelEngine,
                       PotentialProfile, make_profile, standard_case_library,
                       stationary_phase_check)
from conicwave.kernel import KIND_SCHRODINGER, KIND_WAVE_PLUS, SUP_GRID


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): "
          f"{detail}", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


# --------------------------------------------------------------------------
# 1. cylinder exactness
# --------------------------------------------------------------------------

def test_criterion_01_cylinder_exactness(cylinder_model):
    pot = cylinder_model.pot
    xi = np.linspace(-500.0, 500.0, 101)
    v_ok = float(np.max(np.abs(pot.V(xi))))
    worst_f = 0.0
    worst_w = 0.0
    worst_ab = 0.0
    for lam in (0.5, 2.0):
        fp = cylinder_model.jost_plus(lam, xi_min=-20.0)
        fm = cylinder_model.jost_minus(lam, xi_max=20.0)
        xs = np.linspace(-20.0, 60.0, 41)
        vp, _ = fp.values(xs)
        vm, _ = fm.values(-xs)
        worst_f = max(worst_f,
                      float(np.max(np.abs(vp - np.exp(1j * lam * xs)))),
                      float(np.max(np.abs(vm - np.exp(-1j * lam * -xs)))))
        W = cylinder_model.wronskian(lam)
        worst_w = max(worst_w, abs(abs(W) - 2 * lam))
        sd = cylinder_model.scattering_data(lam)
        alpha, beta = sd.alpha_minus, sd.beta_minus
        worst_ab = max(worst_ab, abs(alpha), abs(abs(beta) - 1.0))
    ok = v_ok <= 1e-12 and worst_f <= 1e-10 and worst_w <= 1e-10 \
        and worst_ab <= 1e-10
    _report(1, "cylinder exactness", ok,
            f"|V|={v_ok:.1e}, plane-wave dev={worst_f:.1e}, "
            f"||W|-2lam|={worst_w:.1e}, reflection dev={worst_ab:.1e}")


# --------------------------------------------------------------------------
# 2. potential tail
# --------------------------------------------------------------------------

def test_criterion_02_potential_tail():
    prof = make_profile({"kind": "hyperboloid", "params": {"a": 1.0}})
    win = np.geomspace(10.0, 1.0e4, 400)

    def c3_of(x_max):
        chart = ArclengthChart(prof, x_max=x_max)
        pot = PotentialProfile(prof, chart)
        return float(np.max(np.abs(win ** 3 * pot.V1(win)))), pot

    c3_a, pot = c3_of(1.0e5)
    c3_b, _ = c3_of(2.0e5)
    stable = abs(c3_b - c3_a) <= 0.20 * c3_a
    shape = bool(np.max(np.abs(win ** 2 * pot.V(win) + 0.25) * win)
                 <= 1.05 * c3_a)
    sane = c3_a <= 0.5
    ok = stable and shape and sane
    _report(2, "potential tail", ok,
            f"C3={c3_a:.4f}, doubled-chart C3={c3_b:.4f} "
            f"(drift {abs(c3_b - c3_a) / c3_a:.1%}), 1/xi shape "
            f"{'holds' if shape else 'fails'}")


# --------------------------------------------------------------------------
# 3. low-energy Wronskian law
# --------------------------------------------------------------------------

def test_criterion_03_wronskian_low_law(hyperboloid_model):
    lams = np.geomspace(1e-6, 1e-3, 40)
    W = np.array([hyperboloid_model.wronskian(l) for l in lams])
    wnorm = W / (2 * lams)
    slope, c3 = np.polyfit(np.log(lams), wnorm.imag, 1)
    model = 1.0 + 1j * (c3 + C1 * np.log(lams))
    resid = float(np.max(np.abs(wnorm - model) / np.abs(model)))
    slope_ok = abs(slope / C1 - 1.0) <= 0.02
    ok = resid <= 0.05 and slope_ok
    _report(3, "low-energy Wronskian law", ok,
            f"max rel residual {resid:.2%} (gate 5%), "
            f"Im-slope/(2/pi) - 1 = {slope / C1 - 1.0:+.2%} (gate 2%), "
            f"c3 = {c3:.5f}")


# --------------------------------------------------------------------------
# 4. coefficient asymptotics
# --------------------------------------------------------------------------

def test_criterion_04_coefficient_asymptotics(hyperboloid_model):
    lams = np.geomspace(1e-6, 1e-3, 10)
    res = []
    for lam in lams:
        bp = hyperboloid_model.scattering_data(lam).b_plus
        res.append(abs(bp / (1j * 2 ** -0.25 * C0 * C1 * np.sqrt(lam)) - 1.0))
    res = np.asarray(res)
    rate = float(np.polyfit(np.log(lams), np.log(res), 1)[0])
    head_ok = res[0] <= 0.05
    # derivative law by centered differences
    c3 = -0.1183
    worst_d = 0.0
    for lam in (1e-5, 1e-4):
        dap, dbp = hyperboloid_model.coefficient_derivatives(lam)
        db_pred = 0.5j * 2 ** -0.25 * C0 * C1 / np.sqrt(lam)
        da_pred = 0.5 * 2 ** 0.25 * C0 / np.sqrt(lam) \
            * (1 + 1j * (c3 + 2 * C1 + C1 * np.log(lam)))
        worst_d = max(worst_d, abs(dbp / db_pred - 1.0),
                      abs(dap / da_pred - 1.0))
    ok = head_ok and rate >= 0.4 and worst_d <= 0.10
    _report(4, "coefficient asymptotics", ok,
            f"b+ ratio dev at 1e-6: {res[0]:.2%} (gate 5%), residual rate "
            f"lam^{rate:.2f} (gate >= 0.4), derivative law dev "
            f"{worst_d:.2%} (gate 10%)")


# --------------------------------------------------------------------------
# 5. unitarity identity
# --------------------------------------------------------------------------

def test_criterion_05_unitarity(hyperboloid_model):
    lams = np.concatenate([np.geomspace(1e-6, 1e-3, 7),
                           np.geomspace(1.0, 100.0, 5)])
    worst = 0.0
    for lam in lams:
        sd = hyperboloid_model.scattering_data(lam)
        alpha, beta = sd.alpha_minus, sd.beta_minus
        worst = max(worst, abs(abs(beta) ** 2 - abs(alpha) ** 2 - 1.0))
    ok = worst <= 1e-5
    _report(5, "unitarity identity", ok,
            f"max ||beta|^2-|alpha|^2-1| = {worst:.2e} (gate 1e-5)")


# --------------------------------------------------------------------------
# 6. high-energy m-bounds
# --------------------------------------------------------------------------

def test_criterion_06_high_energy_m_bounds(hyperboloid_model):
    report = hyperboloid_model.validate_high_energy(
        np.geomspace(1.0, 100.0, 8))
    bad = [k for k, v in report.items() if not v["ok"]]
    Cs = {k: round(v["constants"]["C"], 4) for k, v in report.items()}
    ok = not bad
    _report(6, "high-energy m-bounds", ok,
            f"fitted constants {Cs}" + (f"; flagged: {bad}" if bad else ""))


# --------------------------------------------------------------------------
# 9. stationary-phase majorant  (cheap; before the long scans)
# --------------------------------------------------------------------------

def test_criterion_09_stationary_phase():
    cases = standard_case_library()
    worst_ratio = 0.0
    worst_oracle = 0.0
    for case in cases:
        lhs, rhs = stationary_phase_check(case)
        if rhs > 0:
            worst_ratio = max(worst_ratio, lhs / rhs)
        if case.oracle is not None:
            worst_oracle = max(worst_oracle, abs(lhs - abs(case.oracle)))
    ok = worst_ratio <= 10.0 and worst_oracle <= 1e-6
    _report(9, "stationary-phase majorant", ok,
            f"C_sp = {worst_ratio:.3f} over {len(cases)} cases (gate 10), "
            f"oracle dev {worst_oracle:.1e} (gate 1e-6)")


# --------------------------------------------------------------------------
# 10. pipeline overlap and band partition
# --------------------------------------------------------------------------

def test_criterion_10_pipeline_overlap(hyperboloid_model, hyperboloid_engine):
    worst_f = 0.0
    for lam in (1e-3, 1e-2):
        lo = hyperboloid_model.jost_plus(lam, pipeline="low")
        osc = hyperboloid_model.jost_plus(lam, pipeline="osc")
        xis = np.linspace(2.0 / lam, min(4.0 / lam, 0.98 * lo.window[1]), 9)
        vl, _ = lo.values(xis)
        vo, _ = osc.values(xis)
        worst_f = max(worst_f, float(np.max(np.abs(vl - vo) / np.abs(vo))))
    rng = np.random.default_rng(1234)
    worst_b = 0.0
    for _ in range(20):
        t = 10 ** rng.uniform(0.5, 3.5)
        xi = rng.choice([-1, 1]) * 10 ** rng.uniform(-0.5, 2.9)
        xip = rng.choice([-1, 1]) * 10 ** rng.uniform(-0.5, 2.9)
        full = hyperboloid_engine.evolution_kernel(KIND_SCHRODINGER, t,
                                                   xi, xip)
        tot = 0.0 + 0j
        for band, args in [("low_low", (xi, xip)), ("osc_osc", (xi, xip)),
                           ("osc_low", (xi, xip)), ("osc_low", (xip, xi)),
                           ("high_energy", (xi, xip))]:
            tot += hyperboloid_engine.band_kernel(KIND_SCHRODINGER, band,
                                                  t, *args).value
        worst_b = max(worst_b, abs(tot - full.value) / abs(full.value))
    ok = worst_f <= 1e-4 and worst_b <= 1e-5
    _report(10, "pipeline overlap", ok,
            f"low/osc f+ overlap dev {worst_f:.1e} (gate 1e-4), band "
            f"partition dev {worst_b:.1e} (gate 1e-5)")


# --------------------------------------------------------------------------
# 8. per-band decay bounds
# --------------------------------------------------------------------------

def _band_stat(engine, kind, band, t, pairs):
    best = 0.0
    for a, b in pairs:
        if band == "smeared":
            x = np.linspace(-1.0, 1.0, 41)
            u = (x + 1.0) / 2.0
            phi = np.zeros_like(x)
            core = (u > 0) & (u < 1)
            phi[core] = np.exp(-1.0 / (u[core] * (1 - u[core])))
            best = max(best, engine.wave_smeared(a, t, x, phi))
        else:
            best = max(best, abs(engine.band_kernel(kind, band, t, a, b)
                                 .value))
    return best


def test_criterion_08_band_decay_suite(hyperboloid_engine):
    eng = hyperboloid_engine
    # Schrodinger chi-bands live on lam <= lam_low, so their t-asymptotics
    # start near 1/lam_low^2 = 1e4 and the probe decade sits above it; the
    # wave time scale is 1/lam_low and [1e3, 1e4] is already asymptotic.
    t_schr = np.array([1.0e4, 1.0e5, 3.162e5, 1.0e6])
    t_wave = np.array([1.0e2, 1.0e3, 3.162e3, 1.0e4])
    low_pairs = [(0.0, 0.0), (3.0, -2.0), (30.0, -15.0), (80.0, 40.0)]
    osc_pairs = [(500.0, -500.0), (450.0, -420.0), (1000.0, -1000.0)]
    mix_pairs = [(500.0, -3.0), (1000.0, -30.0)]
    same_pairs = [(1000.0, 500.0), (900.0, 420.0)]
    suite = [
        ("low_low bound", "low_low", KIND_SCHRODINGER, 1.0, t_schr,
         low_pairs),
        ("low_low bound, wave", "low_low", KIND_WAVE_PLUS, 1.0, t_wave,
         low_pairs),
        ("opposite-side oscillatory", "osc_osc", KIND_SCHRODINGER, 1.0,
         t_schr, osc_pairs),
        ("opposite-side oscillatory, wave", "osc_osc", KIND_WAVE_PLUS, 0.5,
         t_wave, [(500.0, -400.0), (450.0, -420.0)]),
        ("mixed window", "osc_low", KIND_SCHRODINGER, 1.0, t_schr,
         mix_pairs),
        ("mixed window, wave", "osc_low", KIND_WAVE_PLUS, 0.5, t_wave,
         [(500.0, -3.0), (800.0, -20.0)]),
        ("same-side oscillatory", "same_side_osc", KIND_SCHRODINGER, 1.0,
         t_schr, same_pairs),
        ("same-side oscillatory, wave", "same_side_osc", KIND_WAVE_PLUS,
         0.5, t_wave, [(950.0, 420.0), (800.0, 430.0)]),
        ("high-energy band", "high_energy", KIND_SCHRODINGER, 1.0, t_wave,
         [(3.0, -2.0), (100.0, 30.0), (1000.0, -1000.0)]),
        ("smeared high-energy wave", "smeared", KIND_WAVE_PLUS, 0.5, t_wave,
         [(0.0, None), (-50.0, None)]),
    ]
    failures = []
    details = []
    for name, band, kind, rate, t_grid, pairs in suite:
        vals = np.array([_band_stat(eng, kind, band, t, pairs) * t ** rate
                         for t in t_grid])
        last = t_grid >= t_grid.max() / 10.0
        lv = np.maximum(vals[last], 1e-300)
        grow = max(lv[j] / lv[i] for i in range(len(lv))
                   for j in range(i + 1, len(lv)))
        details.append(f"{name}: max growth x{grow:.2f}")
        if grow > 2.0:
            failures.append(name)
    ok = not failures
    _report(8, "per-band decay bounds", ok, "; ".join(details))


# --------------------------------------------------------------------------
# 7. Schrodinger decay exponent (the long scan, last)
# --------------------------------------------------------------------------

def test_criterion_07_schrodinger_decay(hyperboloid_model):
    # its own engine: the scan's light-cone probes grow the span to 1.05e4
    # and clear the table, which must not leak into the session engine
    eng = KernelEngine(hyperboloid_model, xi_abs_max=1.1e3)
    rep = eng.decay_scan(
        KIND_SCHRODINGER, np.geomspace(10.0, 1.0e4, 13),
        spatial_grid=np.asarray(SUP_GRID))
    ok = abs(rep.fit_alpha - 1.0) <= 0.15 and rep.fit_R2 >= 0.95
    _report(7, "Schrodinger decay exponent", ok,
            f"alpha = {rep.fit_alpha:.3f} (target 1.00 +/- 0.15), "
            f"R^2 = {rep.fit_R2:.4f} (gate 0.95)")
