"""Profiles, the arclength chart and the induced potential."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicwave import (ConfigError, DomainError, fit_conical_constants,
                       geometry, make_profile)
from conicwave.geometry import (DEFAULT_X_MAX, ArclengthChart,
                                PotentialProfile)


def test_make_profile_cylinder():
    prof = make_profile({"kind": "cylinder"})
    x = np.linspace(-5, 5, 11)
    assert np.all(prof.r(x) == 1.0)
    assert np.all(prof.r1(x) == 0.0)
    assert not prof.conical_right


def test_make_profile_hyperboloid():
    prof = make_profile({"kind": "hyperboloid", "params": {"a": 1.0}})
    x = np.array([0.0, 1.0, -3.0])
    assert np.allclose(prof.r(x), np.sqrt(1 + x ** 2), rtol=1e-14)
    assert np.allclose(prof.r1(x), x / np.sqrt(1 + x ** 2), rtol=1e-14)
    assert prof.conical_left and prof.conical_right


def test_make_profile_rejections():
    with pytest.raises(ConfigError):
        make_profile({"kind": "hyperboloid", "params": {"a": 0.0}})
    # load_config refuses a profile that is not an object before this
    for doc in (["cylinder"], "cylinder", None):
        with pytest.raises(ConfigError, match="must be a mapping"):
            make_profile(doc)
    with pytest.raises(ConfigError):
        make_profile({"kind": "torus"})
    with pytest.raises(ConfigError):
        make_profile({"kind": "custom-tabulated",
                      "params": {"x": np.linspace(-1, 1, 11).tolist(),
                                 "r": (np.linspace(-1, 1, 11) ** 2 - 0.1)
                                 .tolist()}})


def test_tabulated_profile_roundtrip():
    xs = np.linspace(-40, 40, 8001)
    s = np.sqrt(1 + xs ** 2)
    # any strictly increasing grid: uniform, and sinh-spaced (6x denser at
    # x = 0 than at the ends)
    for x in (np.linspace(-60.0, 60.0, 2401),
              60.0 * np.sinh(2.5 * np.linspace(-1.0, 1.0, 2401))
              / np.sinh(2.5)):
        prof = make_profile({"kind": "custom-tabulated",
                             "params": {"x": x, "r": np.sqrt(1.0 + x ** 2)}})
        assert np.max(np.abs(prof.r(xs) - s)) <= 1e-9
        assert np.max(np.abs(prof.r1(xs) - xs / s)) <= 1e-7
        assert np.max(np.abs(prof.r2(xs) - s ** -3)) <= 2e-6


def _one_sided_table(scale=1.0, x_end=3000.0):
    """{x, r} for r = scale * sqrt(1 + softplus(x)^2) on [-x_end, x_end]."""
    x = np.linspace(-x_end, x_end, int(round(20.0 * x_end)) + 1)
    return {"x": x, "r": scale * np.sqrt(1.0 + np.logaddexp(0.0, x) ** 2)}


def test_tabulated_conical_end_checked_inside_table():
    # the conical-end samples stop where the table ends (|x| = 3000 here);
    # past it the spline extrapolates and x^2 |r/|x| - 1| grows without bound
    prof = make_profile({"kind": "custom-tabulated", "conical_right": True,
                         "params": _one_sided_table()})
    assert prof.conical_right and not prof.conical_left
    with pytest.raises(ConfigError, match="conical on the right"):
        make_profile({"kind": "custom-tabulated", "conical_right": True,
                      "params": _one_sided_table(scale=1.2)})
    with pytest.raises(ConfigError, match="table ends before"):
        make_profile({"kind": "custom-tabulated", "conical_right": True,
                      "params": _one_sided_table(x_end=8.0)})


@pytest.fixture(scope="module")
def hyp_chart():
    prof = make_profile({"kind": "hyperboloid", "params": {"a": 1.0}})
    return ArclengthChart(prof, x_max=1e5)


def test_chart_rejects_nonfinite_x_max():
    # NaN passes a bare x_max <= 0 check and would build a chart over
    # |x| <= 16 only; Infinity overflows while grading the breaks
    prof = make_profile({"kind": "cylinder"})
    for x_max in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ConfigError, match="x_max"):
            ArclengthChart(prof, x_max=x_max)


def test_cylinder_chart_is_identity():
    chart = ArclengthChart(make_profile({"kind": "cylinder"}), x_max=1e4)
    assert chart.xi_of_x(2.0) == pytest.approx(2.0, abs=1e-13)
    assert chart.x_of_xi(-3.0) == pytest.approx(-3.0, abs=1e-13)


def test_hyperboloid_arclength_simpson_oracle(hyp_chart):
    # composite Simpson with 2e6 intervals of sqrt(1 + y^2/(1+y^2)) on [0,1]
    y = np.linspace(0.0, 1.0, 2_000_001)
    f = np.sqrt(1.0 + y ** 2 / (1.0 + y ** 2))
    simp = (f[0] + f[-1] + 4 * f[1::2].sum() + 2 * f[2:-1:2].sum()) \
        * (y[1] - y[0]) / 3.0
    assert abs(hyp_chart.xi_of_x(1.0) - simp) <= 1e-8


def test_chart_asymptotic_constant_convergence(hyp_chart):
    d3 = hyp_chart.xi_of_x(1.0e3) - np.sqrt(2) * 1.0e3
    d4 = hyp_chart.xi_of_x(1.0e4) - np.sqrt(2) * 1.0e4
    assert abs(d3 - d4) < 1e-3


def test_chart_roundtrip_and_domain(hyp_chart):
    xs = np.concatenate([np.geomspace(1e-3, 9.9e4, 60), [-7.0, 0.0, -4.4e4]])
    rt = np.abs(hyp_chart.x_of_xi(hyp_chart.xi_of_x(xs)) - xs)
    assert np.max(rt / (1 + np.abs(xs))) <= 1e-9
    with pytest.raises(DomainError):
        hyp_chart.xi_of_x(2.0e5)
    with pytest.raises(DomainError):
        hyp_chart.x_of_xi(2.0 * hyp_chart.xi_max)


def _newton_everywhere(chart, xi):
    """x_of_xi's four Newton steps run on every point, as it ran them
    before it skipped the points a step left in place."""
    xi = np.clip(np.atleast_1d(np.asarray(xi, dtype=float)),
                 chart.xi_min, chart.xi_max)
    x = np.clip(chart._inv_seed(xi), -chart.x_max, chart.x_max)
    for _ in range(4):
        f = chart.xi_of_x(x) - xi
        x = np.clip(x - f / chart._metric(x), -chart.x_max, chart.x_max)
    return x


@pytest.mark.parametrize("doc", [
    {"kind": "hyperboloid", "params": {"a": 0.2}},
    {"kind": "two-sided-cone-smoothed", "params": {"kappa": 5.0}}],
    ids=["a0.2", "cone-k5"])
def test_inverse_chart_skips_settled_points_bit_for_bit(doc):
    # the potential grid, the clipped ends (xi past the image by less than
    # the pad) and a scalar read the same bits as four steps on every point
    chart = ArclengthChart(make_profile(doc))
    grid = geometry._potential_grid(min(chart.xi_max, -chart.xi_min))
    ends = [chart.xi_min, chart.xi_max, chart.xi_min * (1 + 1e-10),
            chart.xi_max * (1 + 1e-10)]
    xi = np.concatenate([grid, ends])
    got, want = chart.x_of_xi(xi), _newton_everywhere(chart, xi)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.max(np.abs(got[-4:])) == chart.x_max
    for s in (0.0, 3.7, -250.0, ends[-1]):
        one = chart.x_of_xi(s)
        assert type(one) is float
        assert np.array_equal(np.atleast_1d(one).view(np.int64),
                              _newton_everywhere(chart, s).view(np.int64))


def test_chart_odd_symmetry(hyp_chart):
    xs = np.geomspace(0.1, 1e4, 20)
    assert np.max(np.abs(hyp_chart.xi_of_x(xs)
                         + hyp_chart.xi_of_x(-xs))) <= 1e-9 * (1 + xs.max())


@settings(max_examples=30, deadline=None)
@given(st.floats(-9e4, 9e4), st.floats(1e-6, 9e3))
def test_chart_monotone(x1, gap):
    chart = _module_chart()
    x2 = min(x1 + gap, 9.9e4)
    if x2 > x1:
        assert chart.xi_of_x(x2) > chart.xi_of_x(x1)


_CHART_CACHE = {}


def _module_chart():
    if "c" not in _CHART_CACHE:
        prof = make_profile({"kind": "hyperboloid", "params": {"a": 1.0}})
        _CHART_CACHE["c"] = ArclengthChart(prof, x_max=1e5)
    return _CHART_CACHE["c"]


def test_potential_cylinder_zero():
    prof = make_profile({"kind": "cylinder"})
    pot = PotentialProfile(prof, ArclengthChart(prof, x_max=1e4))
    assert pot.rho(17.3) == 0.0 and pot.V(17.3) == 0.0


def test_potential_inverse_square_tail(hyp_chart):
    V = PotentialProfile(hyp_chart.profile, hyp_chart).V(50.0)
    assert -0.27 <= 50.0 ** 2 * V <= -0.23


def test_potential_d2_inverse_cubic():
    prof = make_profile({"kind": "hyperboloid", "params": {"a": 1.0}, "d": 2})
    V = PotentialProfile(prof, ArclengthChart(prof, x_max=1e4)).V(50.0)
    assert abs(50.0 ** 2 * V) <= 0.05


def test_potential_profile_invariants(hyp_chart):
    pot = PotentialProfile(hyp_chart.profile, hyp_chart)
    # V = rho' + rho^2 against finite differences of rho
    xis = np.array([0.7, 5.0, 33.0, 410.0])
    h = 1e-4
    drho = (pot.rho(xis + h) - pot.rho(xis - h)) / (2 * h)
    lhs = pot.V(xis)
    assert np.max(np.abs(lhs - (drho + pot.rho(xis) ** 2))
                  / np.abs(lhs)) <= 1e-6
    # symmetry
    g = np.geomspace(0.1, 1e4, 25)
    assert np.max(np.abs(pot.V(g) - pot.V(-g))) <= 1e-9 * np.max(np.abs(pot.V(g)))
    # V1 undefined below xi_tail
    with pytest.raises(DomainError):
        pot.V1(1.0)
    # r(xi) * sqrt(2)/xi -> 1 on the conical side
    assert abs(pot.r_of_xi(1e5) * np.sqrt(2) / 1e5 - 1.0) <= 1e-3


@pytest.mark.parametrize("doc", [
    {"kind": "hyperboloid", "params": {"a": 0.2}},
    {"kind": "two-sided-cone-smoothed", "params": {"kappa": 5.0}},
    {"kind": "custom-tabulated", "conical_right": True,
     "params": _one_sided_table(x_end=400.0), "x_max": 300.0}])
def test_scalar_V_is_the_spline(doc):
    """V_at, which the ODE right-hand side calls, is bit-equal to the spline
    inside the grid, at every breakpoint and extrapolated past both ends,
    where V refuses.  The mirrored view is a PotentialProfile that reads the
    same splines at -xi bit for bit, with the sign flipped on the odd
    evaluators and the per-end constants swapped; mirroring twice reads the
    original."""
    prof = make_profile(doc)
    x_max = doc.get("x_max", DEFAULT_X_MAX)
    pot = PotentialProfile(prof, ArclengthChart(prof, x_max))
    grid = pot._V.x
    rng = np.random.default_rng(11)
    pts = np.concatenate([rng.uniform(grid[0], grid[-1], 2000),
                          rng.uniform(-15.0, 15.0, 2000), grid,
                          grid[0] - rng.uniform(0.0, 50.0, 50),
                          grid[-1] + rng.uniform(0.0, 50.0, 50)])
    mirror = pot.mirrored()
    twice = mirror.mirrored()
    assert isinstance(mirror, PotentialProfile)
    on_chart = np.abs(pts) <= pot.xi_cap
    inside = pts[on_chart]
    for pv in (pot, mirror, twice):
        want = pv._V(pv.sign * pts)
        got = [pv.V_at(float(s)) for s in pts]
        assert all(type(v) is float for v in got)
        assert np.array_equal(np.array(got), want)
        assert np.array_equal(pv.V(inside), want[on_chart])
        with pytest.raises(DomainError, match="chart"):
            pv.V(grid[-1] + 50.0)
    tail = pts[np.abs(pts) >= pot.xi_tail]
    for name, sign, xs in (("V", 1.0, inside), ("V1", 1.0, tail),
                           ("r_of_xi", 1.0, pts), ("rho", -1.0, inside),
                           ("dr_of_xi", -1.0, pts),
                           ("inv_r_integral", -1.0, pts)):
        base = getattr(pot, name)
        assert np.array_equal(getattr(mirror, name)(xs), sign * base(-xs)), \
            name
        assert np.array_equal(getattr(twice, name)(xs), base(xs)), name
    for right, left in (("C2", "C2_left"), ("C3", "C3_left"),
                        ("tail_coeff_right", "tail_coeff_left")):
        assert getattr(mirror, right) == getattr(pot, left), right
        assert getattr(mirror, left) == getattr(pot, right), left
        assert getattr(twice, right) == getattr(pot, right), right
    assert np.array_equal(mirror.v1_tail_model(tail),
                          pot.tail_coeff_left / np.abs(tail) ** 3)


def test_conical_fit_constants(hyp_chart):
    fit = fit_conical_constants(hyp_chart, "right")
    # independent oracle: direct quadrature of sqrt(1+r'^2) - sqrt(2)
    from scipy.integrate import quad
    head = quad(lambda t: np.sqrt(1 + t ** 2 / (1 + t ** 2)) - np.sqrt(2),
                0, 1e5, limit=500)[0]
    tail = quad(lambda u: (np.sqrt(1 + (1 / u) ** 2 / (1 + (1 / u) ** 2))
                           - np.sqrt(2)) / u ** 2, 1e-20, 1e-5, limit=500)[0]
    assert abs(fit.c_inf - (head + tail)) <= 1e-6
    # 1/x residual law on [100, x_max]
    assert fit.max_resid <= fit.resid_coeff / 100.0 * 1.01
    # tail coefficient matches -c_inf/2
    pot = PotentialProfile(hyp_chart.profile, hyp_chart)
    assert abs(pot.tail_coeff_right - (-fit.c_inf / 2)) <= 2e-3


def test_conical_fit_smoothed_cone_reproducible():
    prof = make_profile({"kind": "two-sided-cone-smoothed"})
    chart = ArclengthChart(prof, x_max=1e5)
    fit1 = fit_conical_constants(chart, "right")
    fit2 = fit_conical_constants(ArclengthChart(prof, x_max=1e5), "right")
    assert abs(fit1.c_inf - fit2.c_inf) <= 1e-6
    from scipy.integrate import quad
    oracle = quad(lambda t: np.sqrt(1 + np.tanh(t) ** 2) - np.sqrt(2),
                  0, 200, limit=400)[0]
    assert abs(fit1.c_inf - oracle) <= 1e-6


def test_conical_fit_rejects_cylinder():
    chart = ArclengthChart(make_profile({"kind": "cylinder"}), x_max=1e4)
    with pytest.raises(DomainError):
        fit_conical_constants(chart, "right")


def test_conical_fit_left_side(hyp_chart):
    left = fit_conical_constants(hyp_chart, "left")
    right = fit_conical_constants(hyp_chart, "right")
    assert np.isfinite(left.c_inf)
    assert left.c_inf == pytest.approx(right.c_inf, abs=1e-9)
    pot = PotentialProfile(hyp_chart.profile, hyp_chart)
    assert np.isfinite([pot.C2_left, pot.C3, pot.C3_left]).all()
    assert pot.C2_left == pytest.approx(pot.C2, rel=1e-6)
    assert pot.C3_left == pytest.approx(pot.C3, rel=1e-6)
