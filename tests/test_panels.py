"""Panel basis integrals against an independent phase-resolved quadrature."""

import numpy as np
import pytest

from conicwave import DomainError, panels
from conicwave.panels import (PanelGrid, full_panel_integrals,
                              geometric_breaks, linear_breaks,
                              prefix_basis_integrals, suffix_basis_integrals)
from conicwave.volterra import separable_integrators
from oracles import EinsumSuffix

ORDER = 10
BETA_GL = 15.0          # |beta| up to which _basis_segments takes the GL route
_XG, _WG = np.polynomial.legendre.leggauss(24)

GRIDS = {
    "linear": PanelGrid.build(linear_breaks(0.0, 5.0, 7), order=ORDER),
    "geometric": PanelGrid.build(geometric_breaks(0.1, 50.0, 6), order=ORDER),
}
#: per grid: omega with every panel on the GL route, and omega with some
#: panels on the monomial route
OMEGAS = {"linear": (0.0, 7.0, 100.0), "geometric": (0.0, 1.5, 40.0)}
CASES = [(name, om) for name, oms in OMEGAS.items() for om in oms]


def _lagrange(ref, j, w):
    """j-th Lagrange basis polynomial on the nodes ref, by its product form."""
    out = np.ones_like(w)
    for k, r in enumerate(ref):
        if k != j:
            out *= (w - r) / (ref[j] - r)
    return out


def _oracle(a, b, lo, hi, j, omega, ref):
    """integral_lo^hi L_j(eta) exp(i omega eta) on the panel [a, b], split
    into pieces of phase at most 0.5 with 24 Gauss points each."""
    n = int(np.ceil(abs(omega) * (hi - lo) / 0.5)) + 1
    edges = np.linspace(lo, hi, n + 1)
    mid = 0.5 * (edges[:-1, None] + edges[1:, None])
    half = 0.5 * (edges[1:, None] - edges[:-1, None])
    eta = (mid + half * _XG[None, :]).ravel()
    w = (half * _WG[None, :]).ravel()
    basis = _lagrange(ref, j, (2.0 * eta - a - b) / (b - a))
    return np.sum(w * basis * np.exp(1j * omega * eta))


@pytest.mark.parametrize("name,omega", CASES)
def test_basis_integrals_against_oracle(name, omega):
    grid = GRIDS[name]
    beta = omega * 0.5 * np.diff(grid.breaks)
    if omega == OMEGAS[name][1]:
        assert np.all(beta <= BETA_GL)
    elif omega == OMEGAS[name][2]:
        assert np.any(beta > BETA_GL)
    ref = panels.gauss_legendre(ORDER)[0]
    suf = suffix_basis_integrals(grid, omega)
    pre = prefix_basis_integrals(grid, omega)
    full = full_panel_integrals(grid, omega)
    worst = 0.0
    for p in range(grid.npanels):
        a, b = grid.breaks[p], grid.breaks[p + 1]
        for j in range(ORDER):
            f = _oracle(a, b, a, b, j, omega, ref)
            worst = max(worst, abs(full[p, j] - f) / (b - a))
            for i, x in enumerate(grid.nodes[p]):
                s = _oracle(a, b, x, b, j, omega, ref)
                q = _oracle(a, b, a, x, j, omega, ref)
                worst = max(worst, abs(suf[p, i, j] - s) / (b - a),
                            abs(pre[p, i, j] - q) / (b - a))
    assert worst <= 1e-13


@pytest.mark.parametrize("w0", ["suffix", "prefix", "full"])
def test_batched_segments_match_one_beta_calls(w0):
    """Each row of a batch over beta equals the call with that beta alone:
    bit for bit on the GL route, repeated betas included, to rounding on
    the monomial route."""
    ref = panels.gauss_legendre(ORDER)[0]
    w0 = {"suffix": ref, "prefix": -ref[::-1], "full": np.array([-1.0])}[w0]
    batch, betas = _batched_segments(w0)
    gl = np.abs(betas) <= BETA_GL
    assert gl.any() and not gl.all()
    for row, beta, on_gl in zip(batch, betas, gl):
        one = panels._basis_segments(ORDER, w0, np.array([beta]))[0]
        if on_gl:
            # bit patterns, so that -0.0 and 0.0 parts count as different
            assert np.array_equal(row.view(np.uint64), one.view(np.uint64))
        else:
            assert np.max(np.abs(row - one)) <= 1e-14 * np.max(np.abs(one))


def _batched_segments(w0):
    """_basis_segments over a beta set with repeats, and that set: the 40
    core-like panels of linspace(0, 2, 41) have 6 bit-distinct widths."""
    widths = np.diff(np.linspace(0.0, 2.0, 41))
    assert len(np.unique(widths)) == 6
    betas = np.concatenate([
        [-200.0, -16.0, -15.0, -2.5, -0.0, 0.0, 1e-3, 7.0, 14.999, 15.0,
         15.0001, 40.0, 1e3, 7.0, -2.5, 0.0, -0.0, 40.0],
        0.5 * widths, 1.0 * (0.5 * widths), 30.0 * (0.5 * widths)])
    return panels._basis_segments(ORDER, w0, betas), betas


@pytest.mark.parametrize("w0", ["suffix", "prefix", "full"])
def test_real_split_gl_route_matches_complex_einsum(w0):
    # the GL route contracts wts * exp(i beta pts) with the real Lagrange
    # values as two real einsums; the complex three-operand einsum it
    # replaced gives the same bits
    ref = panels.gauss_legendre(ORDER)[0]
    w0 = {"suffix": ref, "prefix": -ref[::-1], "full": np.array([-1.0])}[w0]
    batch, betas = _batched_segments(w0)
    gl = np.abs(betas) <= BETA_GL
    wts, pts, bmat = panels._gl_reference(ORDER, w0.tobytes())
    oracle = np.einsum("ig,pig,igj->pij", wts,
                       np.exp(1j * betas[gl, None, None] * pts), bmat)
    assert np.array_equal(batch[gl].view(np.uint64), oracle.view(np.uint64))


def test_one_integrator_per_distinct_frequency(monkeypatch):
    # one integrator serves every term of a sweep; it builds per-panel
    # matrices once per distinct nonzero frequency and none for omega = 0,
    # whose rows take the shared reference product, and rows of one
    # frequency on equal values give equal bits
    built = []
    real = panels._panel_matrices

    def counting(grid, omega):
        built.append(omega)
        return real(grid, omega)

    monkeypatch.setattr(panels, "_panel_matrices", counting)
    grid = GRIDS["geometric"]
    assert isinstance(separable_integrators(grid, [0.0, 0.0]),
                      panels.SuffixIntegrator)
    assert built == []
    integ = separable_integrators(grid, [0.0, 0.0, 2.0, 2.0])
    assert built == [2.0]
    f = np.random.default_rng(4).normal(size=(2, grid.flat.size)) + 0j
    got = integ.node_values(f[[0, 0, 1, 1]])
    assert np.array_equal(_bits(got[0]), _bits(got[1]))
    assert np.array_equal(_bits(got[2]), _bits(got[3]))
    # each kind of row is one slice of the stack
    with pytest.raises(DomainError, match="omega = 0 rows first"):
        separable_integrators(grid, [2.0, 0.0])


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_suffix_values_match_per_frequency_einsum(name):
    # the reference product (omega = 0) and the batched per-panel product
    # round differently from the per-frequency einsum, by at most 1e-15 of
    # the row's largest value, stacked and one row at a time, complex rows
    # and real omega = 0 rows alike
    grid = GRIDS[name]
    omegas = (0.0, 2.0, 30.0)
    rng = np.random.default_rng(5)
    f = rng.normal(size=(3, grid.flat.size)) \
        + 1j * rng.normal(size=(3, grid.flat.size))
    want = EinsumSuffix(grid, omegas).node_values(f)
    got = separable_integrators(grid, omegas).node_values(f)
    assert got.shape == f.shape
    for r, omega in enumerate(omegas):
        one = separable_integrators(grid, [omega]).node_values(f[r])
        assert one.shape == f[r].shape
        scale = 1e-15 * np.max(np.abs(want[r]))
        assert np.max(np.abs(got[r] - want[r])) <= scale
        assert np.max(np.abs(one - want[r])) <= scale
    want = EinsumSuffix(grid, [0.0]).node_values(f[0].real)
    got = separable_integrators(grid, [0.0]).node_values(f[0].real)
    assert np.isrealobj(got)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("name, omega", [(name, 0.0) for name in GRIDS])
def test_stacked_prefix_values_match_one_array_calls(name, omega):
    # the basis series integrates both seeds' terms in one call; prefix
    # integrals run at omega = 0 only
    grid = GRIDS[name]
    integ = panels.PrefixIntegrator(grid)
    f = np.random.default_rng(3).normal(size=(2, 3, grid.flat.size))
    got = integ.node_values(f)
    assert got.shape == f.shape
    for i in np.ndindex(f.shape[:-1]):
        assert np.array_equal(got[i], integ.node_values(f[i]))


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_zero_omega_is_scaled_reference(name):
    grid = GRIDS[name]
    ref, wg = panels.gauss_legendre(ORDER)
    suf_ref = panels._basis_segments(ORDER, ref, np.zeros(1))[0]
    pre_ref = panels._basis_segments(ORDER, -ref[::-1],
                                     -np.zeros(1))[0, ::-1, ::-1]
    suf = suffix_basis_integrals(grid)
    pre = prefix_basis_integrals(grid)
    full = full_panel_integrals(grid)
    for p, h in enumerate(np.diff(grid.breaks)):
        assert np.array_equal(suf[p], (h / 2) * suf_ref)
        assert np.array_equal(pre[p], (h / 2) * pre_ref)
        assert np.array_equal(full[p], (h / 2) * wg + 0j)


def test_cached_references_are_read_only():
    ref = panels.gauss_legendre(ORDER)[0]
    panels._basis_segments(ORDER, ref, np.ones(1))
    cached = panels._gl_reference(ORDER, ref.tobytes())
    cached += (panels._reference_segment(ORDER, True),
               panels._reference_segment(ORDER, False))
    for arr in cached:
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # results are fresh arrays, so callers may still write to them
    grid = GRIDS["linear"]
    out = suffix_basis_integrals(grid)
    out[:] = 0.0
    assert np.any(suffix_basis_integrals(grid) != 0.0)


def _cap_phase_oracle(breaks, freq_of_x, max_phase):
    """cap_phase by one np.linspace per panel, each frequency sampled alone."""
    out = [breaks[0]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        f = abs(freq_of_x(0.5 * (a + b)))
        k = max(1, int(np.ceil(f * (b - a) / max_phase)))
        out.extend(np.linspace(a, b, k + 1)[1:])
    return np.asarray(out)


@pytest.mark.parametrize("t,order", [(3.0, 12), (300.0, 12), (300.0, 7)],
                         ids=["3.0", "300.0", "300.0-order7"])
def test_integrate_blocks_is_the_grid_integral(t, order):
    """Blockwise evaluation sums the weighted values along numpy's pairwise
    tree, so the integral is bit-identical to the whole-grid path: one
    block (t = 3); several with a partial last one and many leaves over a
    value count that is no multiple of 8 (t = 300)."""
    breaks = panels.cap_phase(np.linspace(-4.0, 2.5, 65),
                              lambda x: t * abs(2.0 * x) + 1.0, max_phase=1.0)
    grid = PanelGrid.build(breaks, order=order)
    assert (grid.npanels < panels.BLOCK_PANELS) == (t < 10.0)
    assert grid.npanels % panels.BLOCK_PANELS != 0
    n = grid.npanels * order
    assert t < 10.0 or (n > 4 * panels._LEAF_VALUES and n % 8 != 0)
    x = grid.flat
    got = panels.integrate_blocks(
        breaks, lambda y: np.exp(-y * y) * np.exp(1j * t * y * y), order=order)
    assert got == panels.integrate(grid, np.exp(-x * x) * np.exp(1j * t * x * x))
    got = panels.integrate_blocks(breaks, lambda y: y * y * np.exp(-y * y),
                                  order=order)
    assert np.isrealobj(got) and got == panels.integrate(
        grid, x * x * np.exp(-x * x))
    with pytest.raises(DomainError):
        panels.integrate_blocks([0.0, 1.0, 1.0], np.cos)


def _chunks(a, rng):
    """Pieces of a of random lengths, as a block stream."""
    cuts = np.cumsum(rng.integers(1, 3 * panels.BLOCK_PANELS,
                                  a.size // panels.BLOCK_PANELS + 1))
    return iter(np.split(a, cuts[cuts < a.size]))


def _halving_sum(a):
    """A pairwise sum split at n // 2, not numpy's rule."""
    if a.size <= 128:
        return a.sum()
    return _halving_sum(a[:a.size // 2]) + _halving_sum(a[a.size // 2:])


@pytest.mark.parametrize("n", [1, 7, 8, 129, 65537, 1000003])
def test_pairwise_sums_are_numpy_sum(n):
    """numpy's ``.sum()`` of a contiguous run is the pairwise tree that
    ``_pairwise_sum`` follows, at numpy's own leaves (128 floats) and at
    ``_LEAF_VALUES``, fed in pieces that cut through its leaves.  A numpy
    release that sums another way fails here, not in a moved CSV cell."""
    rng = np.random.default_rng(n)
    r = rng.standard_normal(n) * np.exp(rng.uniform(-10.0, 10.0, n))
    c = r + 1j * rng.standard_normal(n) * np.exp(rng.uniform(-10.0, 10.0, n))
    for a, unit in ((r, 1), (c, 2)):
        for leaf in (128 // unit, panels._LEAF_VALUES):
            got = panels._pairwise_sum(panels._taker(_chunks(a, rng)), n,
                                       unit, leaf)
            assert got == a.sum(), (unit, leaf)
        if n == 1000003:
            # these values tell numpy's split from a plain halving
            assert _halving_sum(a) != a.sum()


@pytest.mark.parametrize("case", ["constant", "piecewise", "statphase"])
def test_cap_phase_matches_per_panel_linspace(case):
    """The vectorised split gives the per-panel linspace breaks bit for bit,
    for the three kinds of frequency its callers pass."""
    rng = np.random.default_rng(7)
    split = 0
    for _ in range(40):
        if case == "constant":
            lam = 10.0 ** rng.uniform(-3, 2)
            breaks = geometric_breaks(10.0 ** rng.uniform(-2, 1),
                                      10.0 ** rng.uniform(1.5, 4), 8)
            freq, cap = (lambda s: lam), 0.8
        elif case == "piecewise":
            lam = 10.0 ** rng.uniform(-4, -2)
            # the low-energy pipeline's window [0.75/sqrt(lam), 8/lam]
            breaks = geometric_breaks(max(5.0, 0.75 * lam ** -0.5),
                                      rng.uniform(8.0, 16.0) / lam, 12)
            freq = lambda s: np.where(s * lam > 0.5, lam, 0.0)  # noqa: E731
            cap = 1.0
        else:
            a = rng.uniform(-7.0, 1.0)
            breaks = np.linspace(a, a + rng.uniform(1.0, 13.0), 65)
            t = 10.0 ** rng.uniform(1, 4)
            freq = lambda x: t * abs(2.0 * np.asarray(x)) + 1.0  # noqa: E731
            cap = 1.0
        got = panels.cap_phase(breaks, freq, max_phase=cap)
        want = _cap_phase_oracle(breaks, freq, cap)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        split += len(got) > len(breaks)
    assert split >= 20


def test_geometric_breaks_needs_an_increasing_positive_range():
    for a, b in ((0.0, 1.0), (-1.0, 1.0), (2.0, 2.0), (2.0, 1.0)):
        with pytest.raises(DomainError, match="0 < a < b"):
            panels.geometric_breaks(a, b, 12)


def _bits(a):
    """The bit patterns of a complex array, for bit-for-bit comparison."""
    return np.ascontiguousarray(a).view(np.uint64)


def test_stacked_interpolation_matches_one_array_calls():
    """Stacked value arrays share one locate and one weight row per point,
    and ``StackedGrids`` reads each point on its own grid; every column
    equals that grid's one-array ``interpolate`` call bit for bit.  The
    points are those a ragged bisection can get wrong: GL nodes (the
    exact-hit branch), every break (the first and last included), 1e-10
    past either end and further, -0.0, on grids of different lengths and a
    one-panel grid, all read in one call."""
    rng = np.random.default_rng(7)
    grids = list(GRIDS.values()) + [
        PanelGrid.build(geometric_breaks(0.5, 30.0, 9), order=ORDER),
        PanelGrid.build([-1.0, 2.0], order=ORDER),
        PanelGrid.build(linear_breaks(0.0, 1.0, 40), order=ORDER)]
    assert {g.npanels for g in grids} == {1, 7, 17, 40}
    values = [rng.normal(size=(4, g.flat.size))
              + 1j * rng.normal(size=(4, g.flat.size)) for g in grids]
    for g, v in zip(grids, values):
        x = np.concatenate([rng.uniform(g.breaks[0], g.breaks[-1], 200),
                            g.flat[::7], g.breaks, [g.breaks[-1] + 0.5]])
        got = g.interpolate(v, x)
        assert got.shape == (4, x.size)
        for k in range(4):
            assert np.array_equal(_bits(got[k]),
                                  _bits(g.interpolate(v[k], x)))
    stacked = panels.StackedGrids.build(grids)
    rows, x = [], []
    for r, g in enumerate(grids):
        b = g.breaks
        pts = np.concatenate([b, b[:1] - 1e-10, b[-1:] + 1e-10, b[:1] - 3.0,
                              b[-1:] + 7.0, g.flat[::3], [0.0, -0.0],
                              rng.uniform(b[0], b[-1], 20)])
        rows += [r] * pts.size
        x.append(pts)
    rows, x = np.array(rows), np.concatenate(x)
    # interleave the grids, as the rows of a table read at once are
    order = rng.permutation(x.size)
    rows, x = rows[order], x[order]
    p = stacked.locate(rows, x)
    got = stacked.interpolate(values, rows, x)
    assert got.shape == (4, x.size)
    for r, g in enumerate(grids):
        at = rows == r
        assert np.array_equal(p[at], g.locate(x[at]))
        assert np.array_equal(_bits(got[:, at]),
                              _bits(g.interpolate(values[r], x[at])))
    # a NaN locates in the last panel, as searchsorted puts it, both in
    # the bisection and on one grid (one row at many points)
    nan = np.full(len(grids), np.nan)
    assert np.array_equal(stacked.locate(np.arange(len(grids)), nan),
                          [g.npanels - 1 for g in grids])
    one = np.zeros(5, dtype=int)
    xs = np.array([0.1, 2.5, 5.0, 9.0, np.nan])
    assert np.array_equal(stacked.locate(one, xs), grids[0].locate(xs))
    assert np.array_equal(_bits(stacked.interpolate(values, one[:4], xs[:4])),
                          _bits(grids[0].interpolate(values[0], xs[:4])))
    with pytest.raises(DomainError):
        panels.StackedGrids.build(
            [grids[0], PanelGrid.build(grids[0].breaks, order=6)])
