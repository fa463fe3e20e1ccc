"""Spectral density, dispersive kernels, bands and the stationary-phase
majorant."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
from numpy.polynomial import polynomial as P
import pytest

from conicwave import (DomainError, KernelEngine, QuadratureError,
                       standard_case_library, stationary_phase_check)
from conicwave import ScatteringModel, jost, kernel, make_profile, panels
from conicwave.geometry import ArclengthChart, PotentialProfile
from conicwave.kernel import (KIND_SCHRODINGER, KIND_WAVE_PLUS,
                              LAM_MIN_TABLE, StationaryPhaseCase,
                              _compact_bump, _compact_bump_d)
from conicwave.panels import gauss_legendre


# ---------------------------------------------------------------------------
# spectral density
# ---------------------------------------------------------------------------

def test_density_cylinder_closed_form(cylinder_engine):
    for (xi, xip, lam) in [(3.0, 1.0, 0.7), (5.0, -2.0, 1.3),
                           (-4.0, -9.0, 0.35), (2.0, 2.0, 5.0),
                           (40.0, -11.0, 2e-3)]:
        d = cylinder_engine.spectral_density(xi, xip, lam)
        assert abs(d - np.cos(lam * (xi - xip))) <= 1e-10


def test_density_symmetry(hyperboloid_engine, rng):
    for _ in range(12):
        xi = rng.uniform(-200, 200)
        xip = rng.uniform(-200, 200)
        lam = 10 ** rng.uniform(-3, 1)
        a = hyperboloid_engine.spectral_density(xi, xip, lam)
        b = hyperboloid_engine.spectral_density(xip, xi, lam)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_density_diagonal_positivity(hyperboloid_engine, rng):
    # pins the Wronskian sign convention
    vals = []
    for _ in range(200):
        xi = rng.uniform(-800, 800)
        lam = 10 ** rng.uniform(-4, 1.5)
        vals.append(hyperboloid_engine.spectral_density(xi, xi, lam))
    assert min(vals) >= -1e-10


def test_density_of_states_slope(cylinder_engine):
    from scipy.integrate import quad
    val = quad(lambda l: cylinder_engine.spectral_density(2.0, 2.0, l),
               1e-6, 3.0, limit=200)[0]
    assert abs(val / 3.0 - 1.0) <= 0.01


# ---------------------------------------------------------------------------
# evolution kernel
# ---------------------------------------------------------------------------

def test_cylinder_fresnel_oracle(cylinder_engine):
    # closed-form free kernel, symmetrised over the half-line spectrum; the
    # Filon panels run from LAM_MIN_TABLE up, those below lam_low read off
    # the s-grid, and the sub-table tail lam < LAM_MIN_TABLE is added
    def closed(ks):
        th = ks.xi - ks.xi_prime
        return 0.25 * np.sqrt(np.pi / ks.t) * np.exp(1j * np.pi / 4) \
            * np.exp(-1j * th ** 2 / (4 * ks.t)) * ks.weight

    for (t, xi, xip) in [(10.0, 3.0, -2.0), (100.0, 0.0, 0.0),
                         (1000.0, 30.0, 10.0), (1.0e5, 30.0, 10.0),
                         (1.0e6, 0.0, 0.0)]:
        ks = cylinder_engine.evolution_kernel(KIND_SCHRODINGER, t, xi, xip)
        assert abs(ks.value - closed(ks)) <= 1e-4
        assert abs(ks.value - closed(ks)) <= ks.err_est
        assert ks.err_est <= 1e-4 * max(1.0, abs(ks.value))
    # far pairs: the channel phase e^{i theta lam}, theta = 2000, is
    # integrated exactly on every panel, down to LAM_MIN_TABLE
    for t in (1.0e4, 1.0e5):
        ks = cylinder_engine.evolution_kernel(KIND_SCHRODINGER, t, 1000.0,
                                              -1000.0)
        assert abs(ks.value - closed(ks)) <= 1e-11 * abs(closed(ks))


def test_cylinder_wave_oracle(cylinder_engine):
    # the cylinder's wave kernel at xi = xi' = 0 is i/(2t) (Abel); at these
    # t the phase t lam turns by a radian only below 1e-5, where the Filon
    # panels still run, down to the table floor LAM_MIN_TABLE
    for t in (2.0e5, 1.0e6, 1.0e7):
        ks = cylinder_engine.evolution_kernel(KIND_WAVE_PLUS, t, 0.0, 0.0)
        assert abs(ks.value - 0.5j / t) <= ks.err_est


def test_kernel_past_the_table_raises(cylinder_engine):
    # the sub-table tail holds the phase t lam^p at its lam = LAM_MIN_TABLE
    # value; past a held phase of 0.1 the engine refuses before it builds a
    # record or a pair entry.  Beyond that bound the cylinder wave kernel at
    # (0, 0) is 2% off at t = 2e7 and 48% off at t = 9.9e7 (err_est 71% of
    # the value); at t = 1e8 the held phase is a whole radian
    eng = cylinder_engine
    for kind, t in ((KIND_WAVE_PLUS, 2.0e7), (KIND_WAVE_PLUS, 9.9e7),
                    (KIND_WAVE_PLUS, 1.0e8), (KIND_SCHRODINGER, 2.0e15),
                    (KIND_SCHRODINGER, 1.0e16)):
        n_rec, n_pair = len(eng._records), len(eng._pair_cache)
        with pytest.raises(DomainError):
            eng.evolution_kernel(kind, t, 7.0, -5.0)
        assert (len(eng._records), len(eng._pair_cache)) == (n_rec, n_pair)


def test_time_reversal(hyperboloid_engine):
    k1 = hyperboloid_engine.evolution_kernel(KIND_SCHRODINGER, 37.0, 5.0, 1.0)
    k2 = hyperboloid_engine.evolution_kernel(KIND_SCHRODINGER, -37.0, 5.0, 1.0)
    assert abs(k1.value - np.conj(k2.value)) <= 1e-8


def test_wave_minus_is_conjugate_evolution(cylinder_engine):
    from conicwave.kernel import KIND_WAVE_MINUS, KIND_WAVE_PLUS
    kp = cylinder_engine.band_kernel(KIND_WAVE_PLUS, "low_low",
                                     500.0, 3.0, -2.0)
    km = cylinder_engine.band_kernel(KIND_WAVE_MINUS, "low_low",
                                     500.0, 3.0, -2.0)
    assert abs(km.value - np.conj(kp.value)) <= 1e-12


def test_band_partition_of_unity(hyperboloid_engine, rng):
    worst = 0.0
    for _ in range(20):
        t = 10 ** rng.uniform(0.5, 3.5)
        xi = rng.choice([-1, 1]) * 10 ** rng.uniform(-0.5, 2.9)
        xip = rng.choice([-1, 1]) * 10 ** rng.uniform(-0.5, 2.9)
        full = hyperboloid_engine.evolution_kernel(KIND_SCHRODINGER, t, xi, xip)
        tot = 0.0 + 0j
        for band, args in [("low_low", (xi, xip)), ("osc_osc", (xi, xip)),
                           ("osc_low", (xi, xip)), ("osc_low", (xip, xi)),
                           ("high_energy", (xi, xip))]:
            tot += hyperboloid_engine.band_kernel(KIND_SCHRODINGER, band, t,
                                                  *args).value
        worst = max(worst, abs(tot - full.value) / abs(full.value))
    assert worst <= 1e-5


def _table_engine(monkeypatch, model, xi_abs_max, s_panel, panel_ratio):
    """An engine whose lam table is built with other S_PANEL and
    PANEL_RATIO; the engine reads both only while it is constructed."""
    with monkeypatch.context() as mp:
        mp.setattr(kernel, "S_PANEL", s_panel)
        mp.setattr(kernel, "PANEL_RATIO", panel_ratio)
        return KernelEngine(model, xi_abs_max=xi_abs_max)


def test_quadrature_self_consistency(cylinder_model, monkeypatch):
    e1 = KernelEngine(cylinder_model, xi_abs_max=50.0)
    e2 = _table_engine(monkeypatch, cylinder_model, 50.0, 0.45, 7.0 / 6.0)
    for band in ("low_low", "high_energy", None):
        for (t, xi, xip) in [(100.0, 3.0, -2.0), (20.0, 0.5, -0.1)]:
            if band:
                k1 = e1.band_kernel(KIND_SCHRODINGER, band, t, xi, xip)
                k2 = e2.band_kernel(KIND_SCHRODINGER, band, t, xi, xip)
            else:
                k1 = e1.evolution_kernel(KIND_SCHRODINGER, t, xi, xip)
                k2 = e2.evolution_kernel(KIND_SCHRODINGER, t, xi, xip)
            assert abs(k1.value - k2.value) <= max(k1.err_est, k2.err_est)


def test_subthreshold_table_self_consistency(hyperboloid_model,
                                             monkeypatch):
    # the default s-grid and sub-threshold ladder (s-panels of width 2,
    # step PANEL_RATIO^2) against a finer table; the low_low band stops in
    # the first panel above lam_low, where its cut is 0, so this compares
    # the sub-threshold tables alone
    fine = _table_engine(monkeypatch, hyperboloid_model, 50.0, 1.0, 7.0 / 6.0)
    default = KernelEngine(hyperboloid_model, xi_abs_max=50.0)
    k1 = default.band_kernel(KIND_SCHRODINGER, "low_low", 100.0, 3.0, -2.0)
    k2 = fine.band_kernel(KIND_SCHRODINGER, "low_low", 100.0, 3.0, -2.0)
    assert abs(k1.value - k2.value) <= max(k1.err_est, k2.err_est)


def test_engine_rejects_bad_table_parameters(cylinder_model):
    # unchecked, a NaN xi_abs_max never grows (need > nan is false)
    nan, inf = float("nan"), float("inf")
    for x in (-1.0, nan, inf):
        with pytest.raises(DomainError, match="xi_abs_max"):
            KernelEngine(cylinder_model, xi_abs_max=x)
    KernelEngine(cylinder_model, xi_abs_max=0.0)


def _kernel(eng, kind, band, t, xi, xip):
    if band is None:
        return eng.evolution_kernel(kind, t, xi, xip)
    return eng.band_kernel(kind, band, t, xi, xip)


def test_cached_panel_fits_match_fresh_engine(cylinder_model, monkeypatch):
    # repeat kernels read each pair's cached Filon panel fits, so they must
    # equal, bit for bit, the same kernel on an engine that fits anew
    cases = [(KIND_SCHRODINGER, None, 20.0, 3.0, -2.0),
             # lam_top = 30.48 falls inside a panel, integrated whole
             (KIND_WAVE_PLUS, None, 500.0, 3.0, -2.0),
             # the osc_low cut is not symmetric in (xi, xi')
             (KIND_WAVE_PLUS, "osc_low", 500.0, 300.0, 2.0),
             (KIND_WAVE_PLUS, "osc_low", 500.0, 2.0, 300.0)]
    def coarse(xi_abs_max):                # a cheap table
        return _table_engine(monkeypatch, cylinder_model, xi_abs_max, 2.0,
                             2.0)

    def same(a, b):
        return (a.value, a.err_est) == (b.value, b.err_est)

    warm = coarse(400.0)
    for case in cases:
        _kernel(warm, *case)
    fresh = coarse(400.0)
    for case in cases:
        fresh._pair_cache.clear()          # same table, every fit redone
        assert same(_kernel(warm, *case), _kernel(fresh, *case))
    # a wider span rebuilds the table; no fit of the old one may survive
    _kernel(warm, KIND_SCHRODINGER, None, 20.0, 3.0, -450.0)
    grown = coarse(warm.xi_abs_max)
    for case in cases[:2]:
        assert same(_kernel(warm, *case), _kernel(grown, *case))
    # a kernel that needs panels further up appends them to the pair's
    # entry, and its fits are extended: the earlier rows stay as they were
    _kernel(grown, KIND_SCHRODINGER, None, 10.0, 5.0, -7.0)
    data = grown._pair_cache[5.0, -7.0]
    fits = dict(data["fits"])
    top = data["edges"][-1]
    _kernel(grown, KIND_WAVE_PLUS, None, 10.0, 5.0, -7.0)
    assert grown._pair_cache[5.0, -7.0] is data
    assert data["edges"][-1] > top and set(fits) <= set(data["fits"])
    n = len(data["nodes"])
    for key, old in fits.items():
        new = data["fits"][key]
        assert all(len(o) < len(x) == n for o, x in zip(old, new))
        assert all(np.array_equal(o, x[:len(o)]) for o, x in zip(old, new))


def test_sub_table_tail(cylinder_model, monkeypatch):
    # the sub-table tail lam < LAM_MIN_TABLE: d = lam Im[F] cut and d' read
    # off the channels' fits at w = -1 of the first panel, d held constant
    # in s = log(1/lam) under a phase held at its LAM_MIN_TABLE value, each
    # reference line written out on its own
    eng = _table_engine(monkeypatch, cylinder_model, 400.0, 2.0, 2.0)
    lam_min = LAM_MIN_TABLE
    xg, wg = gauss_legendre(12)
    cases = [(KIND_SCHRODINGER, None, 20.0, 3.0, -2.0),
             (KIND_WAVE_PLUS, None, 500.0, 3.0, -2.0),
             (KIND_WAVE_PLUS, None, 9.0e6, 300.0, 2.0),
             (KIND_WAVE_PLUS, "osc_low", 150.0, 300.0, 2.0),
             (KIND_SCHRODINGER, "low_low", 1.0e6, 3.0, -2.0)]
    for kind, band, t, xi, xip in cases:
        p = eng._phase_power(kind)
        data = eng._pair_data(max(xi, xip), min(xi, xip), 30.0)
        cut = eng._cut_factory(band, xi, xip)
        fits = [eng._fits(data, (band, xi >= xip), j, cut)
                for j in range(len(data["thetas"]))]
        assert data["edges"][0] == lam_min
        s = 0.5 * (data["edges"][1] - data["edges"][0])
        d = d1 = 0.0
        for th, (cp, _) in zip(data["thetas"], fits):
            # cp fits lam G cut of a channel with the phase e^{i th lam}
            e = np.exp(1j * th * lam_min)
            v = P.polyval(-1.0, cp[0])
            v1 = P.polyval(-1.0, P.polyder(cp[0])) / s
            d += (e * v).imag
            d1 += (e * (v1 + 1j * th * v)).imag
        tail = lam_min * d * np.exp(1j * t * lam_min ** p)
        err = lam_min ** 2 * abs(d1) + abs(tail * t) * lam_min ** p
        got = eng._sub_table_tail(data, fits, p, t)
        assert abs(got[0] - tail) <= 1e-13 * abs(tail)
        assert abs(got[1] - err) <= 1e-13 * err
        if band is None:
            # on the cylinder lam Im F = cos(lam (xi - xi')) / 2 exactly
            lam = 0.5 * lam_min * (xg + 1.0)
            exact = 0.5 * lam_min * np.sum(
                wg * np.exp(1j * t * lam ** p) * 0.5 * np.cos(lam * (xi - xip)))
            assert abs(tail - exact) <= err <= 0.1 * abs(exact)


@pytest.fixture(scope="module")
def hyperboloid_a10_engine():
    prof = make_profile({"kind": "hyperboloid", "params": {"a": 10.0}})
    chart = ArclengthChart(prof)
    model = ScatteringModel(prof, chart, PotentialProfile(prof, chart))
    return KernelEngine(model, xi_abs_max=1.1e3)


@pytest.mark.parametrize("name", ["hyperboloid_engine",
                                  "hyperboloid_a10_engine"])
def test_subthreshold_panels_match_direct_samples(name, request):
    # the Filon panels below lam_low read their channel values off the
    # s-grid; a table row at each panel node must agree with them (the
    # s-panels of width 2 read 4.3e-10 on a = 1 and 1.3e-9 on a = 10)
    eng = request.getfixturevalue(name)
    for xi, xip in [(300.0, -1000.0), (1000.0, 0.5)]:
        hi, lo = max(xi, xip), min(xi, xip)
        data = eng._pair_data(hi, lo, 30.0)
        below = data["edges"][1:] <= eng.lam_low
        assert below.any()
        for i in np.flatnonzero(below):
            direct = eng._amplitudes(hi, lo, data["nodes"][i])
            for v, direct in zip(data["vals"], direct):
                assert (np.max(np.abs(v[i] - direct))
                        <= 1e-8 * np.max(np.abs(direct)))


def _read_at(evs, xi):
    """(f, f')(xi) of each Jost solution in ``evs``, read in one stack
    pass: shape (2, len(evs))."""
    n = len(evs)
    return jost.JostStack(evs).read(np.arange(n), np.full(n, xi))


def _bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def _f_reference(ev, xi):
    """(f, f')(xi) of a Jost side from its pieces, one point and one grid
    at a time (``PanelGrid.interpolate``), with the stacked read's
    arithmetic: the reference that read is checked against."""
    y = np.array([-xi if ev.mirror else xi])
    if y[0] >= ev.cut:
        f, df = ev.grid.interpolate(ev.vals, y)
        if ev.basis is None:
            il = 1j * np.array([ev.lam])
            ph = np.exp(il * y)
            f, df = ph * f, ph * (il * f + df)
    elif ev.basis is None:
        f, df = ev.ode(y[0])[:, None]
    else:
        half = ev.basis if y[0] >= 0 else ev.basis.minus
        z = np.abs(y)
        u = half.grid.interpolate(half.corr, z)
        u += np.array(jost._seed_values(half.pv, z))
        if y[0] < 0:
            u *= np.array(jost._PARITY)[:, None]
        a, b = np.array([ev.a]), np.array([ev.b])
        f, df = a * u[0] + b * u[2], a * u[1] + b * u[3]
    return np.array([f[0], -df[0] if ev.mirror else df[0]])


def _evs(eng, lams, side):
    """The table's Jost evaluators of one side at the energies ``lams``."""
    return [eng._table[row][3 if side == "plus" else 4]
            for row in eng._rows(lams)]


def _m_one_point(eng, lam, side, xi):
    """m_side(xi) at one energy by a one-point ``values`` call and scalar
    products: the read that a ``JostStack`` batches over table rows."""
    ph = -1j if side == "plus" else 1j
    return (_evs(eng, [lam], side)[0].values(np.array([xi]))[0][0]
            * np.exp(ph * lam * xi))


def _amps_one_point(eng, lam, hi, lo):
    """The channel amplitudes at one energy, product by scalar product,
    with W, alpha and beta read off its table row."""
    W, alpha, beta = eng._table[eng._rows([lam])[0]][:3]

    def m(side, xi):
        return _m_one_point(eng, lam, side, xi)
    if hi >= 0.0 >= lo:
        return [m("plus", hi) * m("minus", lo) / W]
    if lo > 0.0:
        return [alpha * m("plus", hi) * m("plus", lo) / W,
                beta * m("plus", hi) * np.conj(m("plus", lo)) / W]
    return [-np.conj(alpha) * m("minus", hi) * m("minus", lo) / W,
            beta * np.conj(m("minus", hi)) * m("minus", lo) / W]


def _xi_v(ev):
    """Where an oscillatory side's core meets its geometric tail panels."""
    return 2.0 / max(ev.lam, 1.0)


def _branch(ev, xi):
    """The piece of a Jost evaluator that serves xi."""
    x = -xi if ev.mirror else xi
    if ev.basis is not None:
        if x >= ev.cut:
            return "V1 grid"
        return "basis" if x >= 0 else "mirrored basis"
    if x >= _xi_v(ev):
        return "m grid"
    return "core grid" if ev.ode is None else "ODE"


def _edges(eng, lam):
    """Where the pieces of the table row at ``lam`` meet, in its plus
    side's coordinate: xi_v or the cut xi_lo, an inner break of its nodal
    grid and, for a low row, of its basis grid below xi_lo."""
    ev = _evs(eng, [lam], "plus")[0]
    pts = [ev.grid.breaks[len(ev.grid.breaks) // 2]]
    if ev.basis is not None:
        return pts + [ev.cut, ev.basis.grid.breaks[3]]
    return pts + [_xi_v(ev)]


@pytest.mark.parametrize("name, branches", [
    ("hyperboloid_engine",
     {"V1 grid", "basis", "mirrored basis", "m grid", "core grid", "ODE"}),
    ("cylinder_engine", {"m grid", "core grid", "ODE"})])
def test_batched_read_equals_one_point_values(name, branches, request):
    """A ``JostStack`` read and every pair entry sampled through it equal,
    bit for bit, the one-point ``values`` read with scalar products: f on
    each branch and side, where the branches meet (xi_v, xi_lo and inner
    breaks), the s-grid samples, and the Filon panel samples (read off the
    s-grid below lam_low)."""
    eng = request.getfixturevalue(name)
    lams = list(eng._s_lam) + [0.02, 0.3, 3.0, 40.0]
    edges = [x for lam in (lams[0], lams[-2], lams[-1])
             for x in _edges(eng, lam)]
    hit = set()
    for side, sign in (("plus", 1.0), ("minus", -1.0)):
        for xi in [0.0, 0.5, -5.0, 5.0, 300.0, 1000.0] + edges:
            xi *= sign
            evs = [ev for ev in _evs(eng, lams, side)
                   if ev.window[0] <= xi <= ev.window[1]]
            got = _read_at(evs, xi).T
            for want in ([ev.values(np.array([xi]))[:, 0] for ev in evs],
                         [_f_reference(ev, xi) for ev in evs]):
                want = np.reshape(want, got.shape)
                assert np.array_equal(_bits(got), _bits(want)), (side, xi)
            hit |= {_branch(ev, xi) for ev in evs}
    assert hit == branches
    empty = _read_at([], 0.5)
    assert empty.shape == (2, 0) and empty.dtype == complex
    # the columns hold each row's (W, alpha, beta)
    assert np.array_equal(_bits(eng._cols),
                          _bits(np.array([r[:3] for r in eng._table]).T))
    s_lams = eng._s_lam
    for xi, xip in [(300.0, -1000.0), (0.5, 0.0), (1000.0, 0.5),
                    (-0.5, -300.0)]:
        hi, lo = max(xi, xip), min(xi, xip)
        data = eng._pair_data(hi, lo, 0.05)
        s_vals = [np.array(v) for v in
                  zip(*(_amps_one_point(eng, lam, hi, lo) for lam in s_lams))]
        assert all(np.array_equal(a, b) for a, b in
                   zip(eng._amplitudes(hi, lo, s_lams), s_vals))
        for b, lam_nodes, *vals in zip(data["edges"][1:], data["nodes"],
                                       *data["vals"]):
            if b <= eng.lam_low:
                want = [eng._sgrid.interpolate(v, np.log(1.0 / lam_nodes))
                        for v in s_vals]
            else:
                want = [np.array(v) for v in zip(
                    *(_amps_one_point(eng, lam, hi, lo)
                      for lam in lam_nodes))]
            assert all(np.array_equal(v, w) for v, w in zip(vals, want))


def test_batched_read_refuses_what_values_refuses(hyperboloid_model):
    """A ``JostStack`` read raises DomainError wherever one of its evaluators'
    ``values`` does: a xi outside one row's window, a NaN xi, and a xi
    outside the window (0, L) of the matching basis behind a low-pipeline
    row, which no built row reaches, so it is shrunk in a copy."""
    # an engine of its own: the windows follow the span, which decay scans
    # grow on the shared one
    eng = KernelEngine(hyperboloid_model, xi_abs_max=1.1e3)
    lams = list(eng._s_lam[::20]) + [0.5]
    rows = eng._rows(lams)

    def refuses(fun, *args):
        try:
            fun(*args)
        except DomainError:
            return True
        return False

    for side, xi in (("plus", -20.0), ("plus", 2.0e3), ("minus", 20.0)):
        evs = _evs(eng, lams, side)
        # some of the rows serve xi, the others refuse it
        n_refused = sum(refuses(ev.values, np.array([xi])) for ev in evs)
        assert 0 < n_refused < len(evs)
        assert refuses(_read_at, evs, xi)
        assert refuses(eng._m_values, rows, side, xi)
    for side in ("plus", "minus"):
        assert refuses(_read_at, _evs(eng, lams, side), float("nan"))
    lam = 1e-3
    ev = _evs(eng, [lam], "plus")[0]
    assert ev.cut > 15.0
    narrow = {"plus": eng.model._side_basis("plus", lam, 10.0),
              "minus": eng.model._side_basis("minus", lam, 10.0)}
    # the two-sided basis with one half replaced by the narrow one
    halves = {"plus": dataclasses.replace(narrow["plus"],
                                          minus=ev.basis.minus),
              "minus": dataclasses.replace(ev.basis, minus=narrow["minus"])}
    for field, xi in (("plus", 15.0), ("minus", -15.0)):
        shrunk = dataclasses.replace(ev, basis=halves[field])
        assert not refuses(ev.values, np.array([xi]))
        assert refuses(shrunk.values, np.array([xi]))
        assert refuses(_read_at, [ev, shrunk], xi)
    with pytest.raises(DomainError, match="not bases"):
        jost.JostStack([ev, ev.basis])
    # a basis stack's rows are all one- or all two-sided, all seeds or all
    # perturbed
    for other in (eng.model.zero_energy_basis(), narrow["plus"]):
        with pytest.raises(DomainError, match="one kind"):
            jost._BasisStack([ev.basis, other])


def test_read_after_span_growth_equals_a_fresh_engine(hyperboloid_model):
    """Growing the span empties the table with its columns, stacks and m
    arrays, so a read after it equals, bit for bit, a fresh engine's at
    the grown span (at lam = 3 the m grid ends at B = 1.1 xi_abs_max + 10,
    so the two spans' rows differ)."""
    lams = (1e-3, 0.5, 3.0)

    def reads(eng):
        rows = eng._rows(lams)
        return [eng._m_values(rows, side, xi) for side, xi in
                (("plus", 0.3), ("minus", -50.0))] + eng._amplitudes(
                    5.0, -7.0, lams)

    eng = KernelEngine(hyperboloid_model, xi_abs_max=100.0)
    before = reads(eng)
    eng._ensure_span(400.0)
    fresh = KernelEngine(hyperboloid_model, xi_abs_max=eng.xi_abs_max)
    for old, got, want in zip(before, reads(eng), reads(fresh)):
        assert np.array_equal(_bits(got), _bits(want))
        assert not np.array_equal(old, want)
    assert len(eng._records) == len(eng._table) == eng._cols.shape[1] == 3


def test_rows_solve_each_new_energy_once(cylinder_model, monkeypatch):
    """``_rows`` solves each energy the table lacks once, in input order,
    and a row pairs its energy's (W, alpha, beta) with its evaluators; a
    solve that raises appends nothing."""
    eng = KernelEngine(cylinder_model, xi_abs_max=10.0)
    calls = []
    real = cylinder_model._w_alpha

    def counting(lam, **kwargs):
        calls.append(lam)
        if lam == 9.0:
            raise QuadratureError("a solve that fails")
        return real(lam, **kwargs)

    monkeypatch.setattr(cylinder_model, "_w_alpha", counting)
    assert eng._rows([0.5]).tolist() == [0]
    assert eng._rows([0.7, 0.5, 0.7, 2.0]).tolist() == [1, 0, 1, 2]
    assert calls == [0.5, 0.7, 2.0]
    for lam, row in eng._records.items():
        W, alpha, beta, f_plus, f_minus = eng._table[row]
        assert f_plus.lam == f_minus.lam == lam
        assert np.array_equal(eng._cols[:, row], [W, alpha, beta])
    with pytest.raises(QuadratureError):
        eng._rows([3.0, 9.0])
    assert len(eng._records) == len(eng._table) == eng._cols.shape[1] == 3


def test_one_table_below_the_threshold(cylinder_model, monkeypatch):
    eng = _table_engine(monkeypatch, cylinder_model, 400.0, 2.0, 2.0)
    eng.evolution_kernel(KIND_SCHRODINGER, 10.0, 3.0, -2.0)
    # (the lowest node of the first panel above lam_low rounds to a hair
    # below it)
    below = {lam for lam in eng._records if lam < eng.lam_low * (1 - 1e-12)}
    assert below and below <= set(eng._s_lam.tolist())
    # another kind and t integrate the same sub-threshold panels, from
    # values already in hand
    n = len(eng._records)
    eng.evolution_kernel(KIND_WAVE_PLUS, 1.0e3, 3.0, -2.0)
    assert len(eng._records) == n


def test_unknown_kind_and_short_scan_raise(cylinder_engine):
    with pytest.raises(DomainError, match="unknown kernel kind"):
        cylinder_engine.evolution_kernel("heat", 10.0, 1.0, 0.0)
    with pytest.raises(DomainError, match="two decades"):
        cylinder_engine.decay_scan(KIND_SCHRODINGER, [10.0, 100.0, 500.0])


@pytest.mark.parametrize("t", [5.01, 5.04])
def test_wave_kernel_gives_up_at_the_light_cone(hyperboloid_engine, t):
    # at (3, -2) the channel with theta = 5 sits within 0.05 of t, where
    # the Abel tail degenerates: its bound (err_est 7.52) is refused; 5.1
    # and 5.2 pass
    with pytest.raises(QuadratureError, match="err_est=7.52e"):
        hyperboloid_engine.evolution_kernel(KIND_WAVE_PLUS, t, 3.0, -2.0)


def test_band_sign_precondition(hyperboloid_engine):
    with pytest.raises(DomainError):
        hyperboloid_engine.band_kernel(KIND_SCHRODINGER, "same_side_osc",
                                       10.0, 5.0, -3.0)
    with pytest.raises(DomainError):
        hyperboloid_engine.band_kernel(KIND_SCHRODINGER, "no_such_band",
                                       10.0, 5.0, 3.0)
    with pytest.raises(DomainError):
        hyperboloid_engine.evolution_kernel(KIND_SCHRODINGER, 0.0, 1.0, 0.0)


def test_kernels_refuse_t_zero_and_nonfinite(cylinder_engine, cylinder_model):
    # t = 0 is no evolution: a band kernel there would read a number
    # (0.00375 for low_low on the cylinder at (0, 0)) that means nothing
    eng = cylinder_engine
    for t in (0.0, float("nan"), float("inf"), -float("inf")):
        for band in ("low_low", "osc_osc", None):
            with pytest.raises(DomainError):
                eng.band_kernel(KIND_WAVE_PLUS, band, t, 0.0, 0.0)
        with pytest.raises(DomainError):
            eng.evolution_kernel(KIND_WAVE_PLUS, t, 0.0, 0.0)
    # a non-finite xi or xi' is refused before the table changes: NaN read
    # the pair (0, 0), since max(0.0, nan) is 0.0, and inf emptied the
    # table and solved every later row over an infinite span
    own = KernelEngine(cylinder_model, xi_abs_max=10.0)
    own.spectral_density(1.0, -2.0, 0.5)
    for bad in (float("nan"), float("inf"), -float("inf")):
        for xi, xip in ((bad, 0.0), (0.0, bad)):
            for call in (
                    lambda: own.evolution_kernel(KIND_SCHRODINGER, 10.0, xi,
                                                 xip),
                    lambda: own.band_kernel(KIND_WAVE_PLUS, "low_low", 10.0,
                                            xi, xip),
                    lambda: own.spectral_density(xi, xip, 1.0),
                    lambda: own.decay_scan(KIND_SCHRODINGER,
                                           [1.0, 10.0, 100.0], [xi, xip])):
                with pytest.raises(DomainError, match="xi must be finite"):
                    call()
                assert (own.xi_abs_max, len(own._records)) == (10.0, 1)
    # a decay scan names a bad t before the table or any kernel changes:
    # inf was refused only after the finite t had run (and had grown the
    # span to the probe's), NaN was called an xi, a negative t broke the
    # two-decade check and t = 0 divided by zero
    nan, inf = float("nan"), float("inf")
    for t_grid, bad in (([1.0, 10.0, 100.0, inf], "inf"),
                        ([1.0, nan, 10.0, 100.0], "nan"),
                        ([-1.0, 10.0, 1000.0], "-1.0"),
                        ([0.0, 10.0, 100.0], "0.0")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"t = {bad}"):
                own.decay_scan(KIND_SCHRODINGER, t_grid)
        assert (own.xi_abs_max, len(own._records)) == (10.0, 1)


def test_full_kernel_is_the_band_free_band_kernel(cylinder_engine):
    full = cylinder_engine.evolution_kernel(KIND_SCHRODINGER, 50.0, 3.0, 1.0)
    same = cylinder_engine.band_kernel(KIND_SCHRODINGER, None, 50.0, 3.0, 1.0)
    assert same == full and same.band is None


# ---------------------------------------------------------------------------
# smeared wave kernel
# ---------------------------------------------------------------------------

def _bump_grid(center=0.0, half=1.0, n=41):
    x = np.linspace(center - half, center + half, n)
    return x, _compact_bump(x, center - half, center + half), \
        _compact_bump_d(x, center - half, center + half)


def test_wave_smeared_zero_function(cylinder_engine):
    x = np.linspace(-1, 1, 21)
    assert cylinder_engine.wave_smeared(0.0, 100.0, x, np.zeros_like(x),
                                        np.zeros_like(x)) == 0.0


def test_wave_smeared_cylinder_oracle(cylinder_engine):
    # For the cylinder the high-energy smeared kernel has the closed form
    #   sum_j w_j phi_j w(xi,xi') * (G(t+xi-xi') + G(t-xi+xi'))/4
    # with G(u) = i/u - int_0^lam_low chi(lam) e^{i u lam} dlam (Abel).
    from conicwave.kernel import chi_low
    eng = cylinder_engine
    x, phi, dphi = _bump_grid()
    t, xi = 100.0, 0.0

    def G(u):
        lam = np.linspace(0, eng.lam_low, 4001)
        integ = chi_low(lam, eng.lam_low) * np.exp(1j * u * lam)
        return 1j / u - np.trapezoid(integ, lam)

    w = np.zeros_like(x)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    acc = 0.0 + 0j
    for xq, wq, pv in zip(x, w, phi):
        if pv == 0.0:
            continue
        weight = (np.hypot(xi, 1) * np.hypot(xq, 1)) ** -0.5
        acc += wq * pv * weight * 0.25 * (G(t + xi - xq) + G(t - xi + xq))
    norm = np.sum(w * np.abs(phi)) + np.sum(w * np.abs(dphi))
    oracle_ratio = abs(acc) / (t ** -0.5 * norm)
    got = eng.wave_smeared(xi, t, x, phi, dphi)
    assert abs(got - oracle_ratio) <= 0.02 * oracle_ratio


def test_wave_smeared_no_growth(cylinder_engine):
    x, phi, dphi = _bump_grid()
    r100 = cylinder_engine.wave_smeared(0.0, 100.0, x, phi, dphi)
    r400 = cylinder_engine.wave_smeared(0.0, 400.0, x, phi, dphi)
    assert r400 <= 2.0 * r100
    assert r100 < 1.0


def test_wave_smeared_translation(hyperboloid_engine):
    x0, phi0, dphi0 = _bump_grid(0.0)
    x5, phi5, dphi5 = _bump_grid(-50.0)
    r0 = hyperboloid_engine.wave_smeared(0.0, 100.0, x0, phi0, dphi0)
    r5 = hyperboloid_engine.wave_smeared(0.0, 100.0, x5, phi5, dphi5)
    assert r5 <= 2.0 * max(r0, 1e-6) + 2.0 * r0


def test_wave_smeared_rejects_bad_grid(cylinder_engine):
    with pytest.raises(DomainError):
        cylinder_engine.wave_smeared(0.0, 10.0, np.array([0.0, 1.0]),
                                     np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        cylinder_engine.wave_smeared(0.0, 10.0, np.linspace(0, 1, 5),
                                     np.array([1, np.inf, 1, 1, 1.0]))


# ---------------------------------------------------------------------------
# stationary phase
# ---------------------------------------------------------------------------

def test_stationary_phase_gaussian_oracle():
    for t in (1e2, 1e4):
        case = standard_case_library((t,))[0]
        lhs, rhs = stationary_phase_check(case)
        assert abs(lhs - abs(case.oracle)) <= 1e-6
        assert lhs <= 10.0 * rhs


def _whole_grid_lhs(case):
    """lhs on one PanelGrid of the whole support: the phase-resolved
    quadrature without blocks or shared oscillators."""
    a, b = case.support
    breaks = panels.cap_phase(np.linspace(a, b, 65),
                              lambda x: case.t * abs(case.dphase(x)) + 1.0,
                              max_phase=1.0)
    grid = panels.PanelGrid.build(breaks, order=12)
    x = grid.flat
    return float(abs(panels.integrate(
        grid, case.amplitude(x) * np.exp(1j * case.t * case.phase(x)))))


def _holds_critical_point(case):
    a, b = case.support
    return a < 0.0 < b


def test_stationary_phase_batch_is_bit_identical():
    """A support that misses the critical point keeps the phase-resolved
    grid, evaluated and summed in batches of panels: each such case's lhs
    is the whole-grid value, bit for bit, noise-level lhs (~1e-16)
    included."""
    cases = [c for c in standard_case_library((1e2, 1e3))
             if not _holds_critical_point(c)]
    assert len(cases) == 4
    for case in cases:
        lhs, _ = stationary_phase_check(case)
        assert lhs == _whole_grid_lhs(case), case.label


@pytest.mark.parametrize("t", [1e2, 1e4])
def test_stationary_phase_x2gauss_closed_form(t):
    """int x^2 e^{-x^2} e^{i t x^2} dx = sqrt(pi)/2 (1 - i t)^{-3/2}; the
    support's cut at |x| = 6.5 is below 1e-18."""
    case = [c for c in standard_case_library((t,))
            if c.label.startswith("x2gauss")][0]
    assert case.oracle is None
    closed = np.sqrt(np.pi) / 2.0 * abs(1.0 - 1j * t) ** -1.5
    lhs, _ = stationary_phase_check(case)
    assert abs(lhs - closed) <= 1e-9 * closed


def test_stationary_phase_u_panel_halving(monkeypatch):
    """Halving the u-panels moves the anharmonic and x^2 Gaussian lhs at
    t = 1e4 by at most 1e-9 relative."""
    cases = [c for c in standard_case_library((1e4,))
             if c.label.startswith(("anharmonic", "x2gauss"))]
    assert len(cases) == 2 and all(map(_holds_critical_point, cases))
    coarse = [stationary_phase_check(c) for c in cases]
    monkeypatch.setattr(kernel, "_U_PANELS", 2 * kernel._U_PANELS)
    fine = [stationary_phase_check(c) for c in cases]
    for case, (lhs, _), (ref, _) in zip(cases, coarse, fine):
        assert abs(lhs - ref) <= 1e-9 * ref, case.label


def test_stationary_phase_memory_is_bounded():
    """bump_left_t10000, the largest grid without the critical point (67,535
    panels of 12 nodes), is summed block by block: its tracemalloc peak
    stays below 8 MB, where the whole grid takes about 44 MB, and its lhs is
    the whole-grid value."""
    case = [c for c in standard_case_library((1e4,))
            if c.label == "bump_left_t10000"][0]
    tracemalloc.start()
    try:
        lhs, _ = stationary_phase_check(case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak
    assert lhs == _whole_grid_lhs(case)


@pytest.mark.parametrize("t", [-100.0, 0.0, np.nan, np.inf])
def test_stationary_phase_rejects_bad_t(t):
    case = dataclasses.replace(standard_case_library((1e2,))[0], t=t)
    with pytest.raises(DomainError, match="finite t > 0"):
        stationary_phase_check(case)


@pytest.mark.parametrize("phase, dphase", [
    (lambda x: (np.asarray(x) - 0.3) ** 2,
     lambda x: 2.0 * (np.asarray(x) - 0.3)),
    (lambda x: np.asarray(x) ** 2 + 0.3 * np.asarray(x),
     lambda x: 2.0 * np.asarray(x) + 0.3),
    (lambda x: np.asarray(x) ** 2 + 1.0,
     lambda x: 2.0 * np.asarray(x))], ids=["shifted", "slope", "offset"])
def test_stationary_phase_rejects_critical_point_off_zero(phase, dphase):
    """The majorant is centred at 0 and the u-map needs phi(0) = phi'(0) =
    0; a phase that breaks either is refused, whichever the route."""
    for support in ((-1.0, 1.0), (1.0, 2.0)):
        case = dataclasses.replace(standard_case_library((1e2,))[0],
                                   phase=phase, dphase=dphase,
                                   support=support)
        with pytest.raises(DomainError, match="phi'"):
            stationary_phase_check(case)


def test_stationary_phase_zero_amplitude():
    case = StationaryPhaseCase(
        phase=lambda x: np.asarray(x) ** 2, dphase=lambda x: 2 * np.asarray(x),
        amplitude=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        damplitude=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        t=100.0, support=(-1.0, 1.0))
    lhs, rhs = stationary_phase_check(case)
    assert lhs == 0.0 and rhs == 0.0


def test_stationary_phase_curvature_guard():
    case = StationaryPhaseCase(
        phase=lambda x: 0.25 * np.asarray(x) ** 2,
        dphase=lambda x: 0.5 * np.asarray(x),
        amplitude=lambda x: np.exp(-np.asarray(x) ** 2),
        damplitude=lambda x: -2 * np.asarray(x) * np.exp(-np.asarray(x) ** 2),
        t=100.0, support=(-1.0, 1.0))
    with pytest.raises(DomainError):
        stationary_phase_check(case)


def test_stationary_phase_nonstationary_bump_decay():
    # support away from the critical point: both sides decay like 1/t
    vals = []
    for t in (1e2, 1e4):
        case = [c for c in standard_case_library((t,))
                if c.label.startswith("bump_outside")][0]
        lhs, rhs = stationary_phase_check(case)
        vals.append((lhs, rhs))
        assert lhs <= 10.0 * rhs
    assert vals[1][0] <= vals[0][0] * 1e-1


# ---------------------------------------------------------------------------
# decay scan (cylinder free rate)
# ---------------------------------------------------------------------------

def test_cylinder_decay_rate(cylinder_engine):
    rep = cylinder_engine.decay_scan(
        KIND_SCHRODINGER, np.geomspace(10.0, 1.0e3, 7),
        spatial_grid=np.array([0.0, 1.0, 3.0]))
    assert abs(rep.fit_alpha - 0.5) <= 0.05
    assert rep.fit_R2 >= 0.99
